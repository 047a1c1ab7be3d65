import json
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occens import (
    ChainConfig,
    Distribution,
    EnumerationBudgetError,
    MaxEntSolution,
    MaximumKind,
    SolverError,
    SpecValidationError,
    build_distribution,
    classify_maximum,
    degeneracies_for,
    empirical_fluctuations,
    enumerate_states,
    exact_covariance,
    exact_mean,
    iid_draws,
    layer_decomposition,
    make_spec,
    metropolis_chain,
    mgf,
    rotation_basis,
    scaling_factor,
    solve,
    validate_spec,
)
from occens import ensemble
from occens.ensemble import Accumulator, accumulate_support
from occens.entropy import log_multiplicity

from helpers import (
    brute_force_state_count,
    draws_distribution,
    dump_distribution,
    edge_specs,
    log_weights_and_z,
    random_spec,
    reference_cut,
    reference_enumerate_states,
    reference_layer_decomposition,
    reference_log_multiplicity,
    reference_weighted_covariance,
    two_level_spec,
)


def uniform_two_level(energy_cap=1.5):
    # c=0.5 gives G(4)=2 -> per-level (1, 1): every state has one arrangement
    return make_spec(["1", "2"], [0.5, 0.5], energy_cap, "proportional", c=0.5)


class TestEnumeration:
    def test_two_level_cap(self):
        spec = two_level_spec("proportional", energy_cap=1.5)
        states = enumerate_states(spec, 4)
        assert states.tolist() == [[2, 2], [3, 1], [4, 0]]

    def test_single_level(self):
        spec = make_spec(["1"], [1.0], 2, "proportional", c=1.0)
        assert enumerate_states(spec, 5).tolist() == [[5]]

    def test_loose_cap_all_compositions(self):
        spec = two_level_spec("proportional", energy_cap=2)
        states = enumerate_states(spec, 3)
        assert states.tolist() == [[0, 3], [1, 2], [2, 1], [3, 0]]

    def test_lexicographic_order(self):
        spec = make_spec(["1", "2", "3"], [1 / 3, 1 / 3, 1 / 3], 3,
                         "proportional", c=1.0)
        states = enumerate_states(spec, 6)
        rows = [tuple(r) for r in states.tolist()]
        assert rows == sorted(rows)

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("n", [1, 7, 50])
    def test_stars_and_bars_when_cap_never_binds(self, m, n):
        energies = [str(k + 1) for k in range(m)]
        spec = make_spec(energies, [1.0 / m] * m, m, "proportional", c=1.0)
        states = enumerate_states(spec, n, budget=10**8)
        assert states.shape[0] == math.comb(n + m - 1, m - 1)

    def test_support_monotone_in_cap(self):
        lo = enumerate_states(two_level_spec("proportional", energy_cap="6/5"), 10)
        hi = enumerate_states(two_level_spec("proportional", energy_cap="8/5"), 10)
        lo_set = {tuple(r) for r in lo.tolist()}
        hi_set = {tuple(r) for r in hi.tolist()}
        assert lo_set <= hi_set

    def test_budget_error_advises_sampler(self):
        # 1,373,701 states; the error names that count
        spec = make_spec(["1", "2", "3", "4"], [0.25] * 4, 5,
                         "proportional", c=1.0)
        count = enumerate_states(spec, 200).shape[0]
        with pytest.raises(EnumerationBudgetError,
                           match=f"exact state count {count} .*sampler"):
            enumerate_states(spec, 200, budget=10**6)

    def test_budget_checked_on_prefixes_first(self):
        # 201*202/2 = 20301 viable prefixes over the first two levels
        spec = make_spec(["1", "2", "3", "4"], [0.25] * 4, 5,
                         "proportional", c=1.0)
        with pytest.raises(EnumerationBudgetError,
                           match="at least 20301 viable prefixes"):
            enumerate_states(spec, 200, budget=10**4)

    def test_int64_overflow_rejected(self):
        # 1e12 - ceil(9998e12 / 9999) + 1 states; at N=1e15,
        # q*(eps_m - eps_1)*N = 9.999e18 would wrap in the int64 walk
        spec = make_spec(["1", "10000"], [0.5, 0.5], 2, "proportional", c=1.0)
        with pytest.raises(EnumerationBudgetError, match="exact state count 100010002 "):
            enumerate_states(spec, 10**12)
        with pytest.raises(OverflowError, match="overflows int64"):
            enumerate_states(spec, 10**15)

    def test_exact_count_admits_m3_at_n3000(self):
        # the old bound m*(N+1)^(m-1) = 27M rejected this under the default
        # budget of 10M
        spec = make_spec(["1", "2", "3"], [0.3, 0.4, 0.3], "9/5",
                         "proportional", c=1.0)
        assert enumerate_states(spec, 3000).shape == (1201 ** 2, 3)

    def test_every_state_feasible_and_complete(self):
        # cross-check against a direct filter of all compositions
        spec = make_spec(["1/2", "3/2", "2"], [0.2, 0.3, 0.5], "5/4",
                         "proportional", c=1.0)
        n = 9
        states = {tuple(r) for r in enumerate_states(spec, n).tolist()}
        cap = spec.energy_cap_units(n)
        e = spec.energy_units
        brute = {
            (a, b, n - a - b)
            for a in range(n + 1)
            for b in range(n + 1 - a)
            if a * e[0] + b * e[1] + (n - a - b) * e[2] <= cap
        }
        assert states == brute


# Largest N per m that keeps C(N+m-1, m-1), the brute-force filter's work,
# near 12k compositions.
MAX_N = {1: 40, 2: 40, 3: 40, 4: 40, 5: 20, 6: 14}


@st.composite
def capped_supports(draw):
    """A random rational spec with m <= 6, a cap anywhere above eps_1, an N
    and per-level degeneracies up to 1e8."""
    m = draw(st.integers(1, 6))
    q = draw(st.integers(1, 4))
    numerators = sorted(draw(st.lists(st.integers(1, 12), min_size=m,
                                      max_size=m, unique=True)))
    energies = [Fraction(v, q) for v in numerators]
    cap = energies[0] + Fraction(draw(st.integers(1, 48)),
                                 draw(st.integers(1, 8)))
    spec = make_spec(energies, [1.0 / m] * m, cap, "proportional", c=1.0)
    degs = draw(st.lists(st.integers(1, 10**8), min_size=m, max_size=m))
    return spec, draw(st.integers(1, MAX_N[m])), degs


@settings(max_examples=80, deadline=None)
@given(capped_supports())
def test_enumeration_matches_reference(case):
    spec, n, degs = case
    states = enumerate_states(spec, n)
    assert states.dtype == np.int64 and states.T.flags.c_contiguous
    assert np.array_equal(states, reference_enumerate_states(spec, n))
    assert states.shape[0] == brute_force_state_count(spec, n)
    assert np.array_equal(log_multiplicity(states, degs),
                          reference_log_multiplicity(states, degs))


class TestDistribution:
    def test_pmf_normalized(self):
        dist = build_distribution(two_level_spec("proportional", energy_cap=1.5), 4)
        assert abs(dist.pmf.sum() - 1.0) <= 1e-12
        log_weights, log_z = log_weights_and_z(dist)
        assert np.allclose(dist.pmf, np.exp(log_weights - log_z))

    def test_uniform_when_single_boxes(self):
        dist = build_distribution(uniform_two_level(), 4)
        assert degeneracies_for(uniform_two_level(), 4).per_level == (1, 1)
        assert np.allclose(dist.pmf, 1.0 / 3.0, atol=1e-15)

    def test_log_z_dominates_max_weight(self):
        dist = build_distribution(two_level_spec("high_degeneracy"), 16)
        log_weights, log_z = log_weights_and_z(dist)
        assert log_z >= float(log_weights.max())

    def test_arrays_frozen(self):
        dist = build_distribution(uniform_two_level(), 4)
        with pytest.raises(ValueError):
            dist.pmf[0] = 0.5


class TestMoments:
    def test_uniform_mean(self):
        dist = build_distribution(uniform_two_level(), 4)
        assert np.allclose(exact_mean(dist), [0.75, 0.25], atol=1e-15)

    def test_single_level_degenerate(self):
        spec = make_spec(["1"], [1.0], 2, "proportional", c=1.0)
        dist = build_distribution(spec, 5)
        assert np.allclose(exact_mean(dist), [1.0])
        assert np.allclose(exact_covariance(dist), [[0.0]])

    def test_mgf_at_zero(self):
        dist = build_distribution(two_level_spec("proportional"), 32)
        assert mgf(dist, [0.0, 0.0]) == pytest.approx(1.0, abs=1e-12)

    def test_mgf_convex_along_line(self):
        dist = build_distribution(two_level_spec("proportional"), 32)
        direction = np.array([0.7, -0.3])
        vals = [mgf(dist, t * direction) for t in (-1.0, 0.0, 1.0)]
        assert vals[0] + vals[2] >= 2.0 * vals[1] - 1e-12

    def test_mean_in_hull_covariance_psd(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            spec = random_spec(rng, "proportional", 3, boundary=True)
            dist = build_distribution(spec, 24)
            mean = exact_mean(dist)
            frac = dist.counts / dist.n
            assert np.all(mean >= frac.min(axis=0) - 1e-12)
            assert np.all(mean <= frac.max(axis=0) + 1e-12)
            cov = exact_covariance(dist)
            assert np.allclose(cov, cov.T)
            assert np.min(np.linalg.eigvalsh(cov)) >= -1e-14

    def test_mgf_shape_check(self):
        dist = build_distribution(uniform_two_level(), 4)
        with pytest.raises(ValueError):
            mgf(dist, [0.1])


class TestLayers:
    def test_hand_slacks(self):
        dist = build_distribution(two_level_spec("proportional", energy_cap=1.5), 4)
        layers = layer_decomposition(dist)
        assert layers.slacks == (0, 1, 2)
        # one state per layer; layer 0 holds the maximal-energy state (2, 2)
        assert dist.counts.tolist() == [[2, 2], [3, 1], [4, 0]]
        assert layers.masses.tolist() == dist.pmf.tolist()

    def test_single_state_single_layer(self):
        spec = make_spec(["1"], [1.0], 2, "proportional", c=1.0)
        layers = layer_decomposition(build_distribution(spec, 5))
        assert len(layers.slacks) == 1
        assert layers.masses[0] == pytest.approx(1.0, abs=1e-15)

    def test_partition(self):
        dist = build_distribution(two_level_spec("high_degeneracy"), 40)
        layers = layer_decomposition(dist)
        assert layers.masses.sum() == pytest.approx(1.0, abs=1e-12)
        # every state lies in exactly one layer: its slack's
        slack = (dist.spec.energy_cap_units(dist.n)
                 - dist.counts @ np.array(dist.spec.energy_units))
        assert sorted(set(slack.tolist())) == list(layers.slacks)
        for value, mass in zip(layers.slacks, layers.masses):
            assert mass == pytest.approx(float(dist.pmf[slack == value].sum()),
                                         rel=1e-15)


class TestDump:
    def test_line_per_state_roundtrip(self):
        dist = build_distribution(uniform_two_level(), 4)
        lines = dump_distribution(dist).strip().split("\n")
        assert len(lines) == dist.size
        first = lines[0].split(",")
        assert first[:2] == ["2", "2"]
        assert float(first[3]) == pytest.approx(1.0 / 3.0, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       regime=st.sampled_from(["high_degeneracy", "proportional",
                               "low_degeneracy"]),
       m=st.integers(2, 4), n=st.integers(1, 60))
def test_layers_match_unique_grouping(seed, regime, m, n):
    # Masses come from one np.bincount over the slack lattice instead of a
    # sort; the slacks must be equal, the masses close to a math.fsum.
    spec = random_spec(np.random.default_rng(seed), regime, m, boundary=True)
    try:
        dist = build_distribution(spec, n)
    except SpecValidationError:  # G(N) < m at small N
        return
    assert_layers_match(layer_decomposition(dist), dist)


def assert_layers_match(got, dist):
    """Slacks equal to the oracle's, and each mass within (c + 64) ulps of
    the math.fsum of its c states' pmf: np.bincount adds a layer's states in
    row order (c - 1 half-ulps), and the division by the pmf's pairwise
    total and the pmf's own pairwise normalisation add under 64 ulps for
    S < 2**24.  Subnormal masses may lose a further 2**-1074 per state."""
    want, sizes = reference_layer_decomposition(dist)
    assert got.slacks == want.slacks
    bound = (sizes + 64) * 2.0**-52 * want.masses + sizes * 2.0**-1074
    assert np.all(np.abs(got.masses - want.masses) <= bound)


def assert_covariance_close(got, y, pmf):
    # within 1e-12 of the row-major formula, relative to the second moments
    # sqrt(E[y_i^2] E[y_j^2]) of the two variables; this scale stays away
    # from zero when the variance is itself a rounding error (all draws equal)
    want = reference_weighted_covariance(y, pmf)
    scale = np.sqrt(pmf @ (y * y))
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * np.outer(scale, scale))


LAYOUT_MAX_N = {2: 80, 3: 40, 4: 24, 5: 14}


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       regime=st.sampled_from(["high_degeneracy", "proportional",
                               "low_degeneracy"]),
       m=st.integers(2, 5), boundary=st.booleans(), chain=st.booleans(),
       data=st.data())
def test_column_layout_keeps_estimators(seed, regime, m, boundary, chain,
                                        data):
    # Enumerated rows and chain draws hold one contiguous column per level.
    # Every estimator gives the bits of a row-major copy of the counts, as
    # the Accumulator reads one column at a time either way; the
    # covariances move by rounding only from the row-major formula, and the
    # layer masses from a math.fsum per layer.
    rng = np.random.default_rng(seed)
    spec = random_spec(rng, regime, m, boundary)
    n = data.draw(st.integers(1, LAYOUT_MAX_N[m]), label="n")
    try:
        if chain:
            cfg = ChainConfig(steps=3000, seed=seed, burn_in=0, thinning=7)
            dist = draws_distribution(spec, n, metropolis_chain(spec, n, cfg))
        else:
            dist = build_distribution(spec, n)
    except SpecValidationError:  # G(N) < m at small N
        return
    assert dist.counts.dtype == np.int64 and dist.counts.T.flags.c_contiguous
    rows = Distribution(spec=spec, n=n, counts=np.ascontiguousarray(dist.counts),
                        pmf=dist.pmf)
    assert rows.counts.flags.c_contiguous
    assert np.array_equal(exact_mean(dist), exact_mean(rows))
    xi = rng.normal(size=m)
    assert mgf(dist, xi) == mgf(rows, xi)
    got = layer_decomposition(dist)
    assert got.slacks == layer_decomposition(rows).slacks
    assert np.array_equal(got.masses, layer_decomposition(rows).masses)
    assert_layers_match(got, rows)

    fractions = rows.counts / rows.n
    cov = exact_covariance(dist)
    assert np.array_equal(cov, exact_covariance(rows))
    assert_covariance_close(cov, fractions, dist.pmf)
    sol = solve(spec)
    y = (math.sqrt(scaling_factor(spec, n))
         * (fractions[:, : m - 1] - sol.x_star[: m - 1]))
    if sol.kind is MaximumKind.BOUNDARY:
        y = y @ rotation_basis(spec)[:, 1:]
    acc = empirical_fluctuations(dist, sol, spec)
    assert np.array_equal(acc.covariance(),
                          empirical_fluctuations(rows, sol, spec).covariance())
    assert_covariance_close(acc.covariance(), y, dist.pmf)


def blocked_sums(spec, n, block, centre, xi):
    """An Accumulator over the support at N streamed in blocks of `block`
    states: the mean and covariance of X - centre, one probe, the layers;
    and the row's Support."""
    acc = Accumulator(spec, n, centre=centre, basis=np.eye(spec.m),
                      covariance=True, probes=[xi], layers=True)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ensemble, "BLOCK_STATES", block)
        support = accumulate_support(acc)
    return acc, support


BLOCK_MAX_N = {1: 30, 2: 80, 3: 40, 4: 20, 5: 12, 6: 9}


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       regime=st.sampled_from(["high_degeneracy", "proportional",
                               "low_degeneracy"]),
       m=st.integers(1, 6), boundary=st.booleans(), data=st.data())
def test_blocks_match_one_block(seed, regime, m, boundary, data):
    # Blocks of B states (B from 1 to S) against one block of the states
    # the row weighs.  The two runs take each weight exp(lw - shift) at
    # another shift: the subtraction is exact within a factor 2 and else
    # rounds by under |lw - shift| * 2**-53, so the weights differ by some
    # ln(S) ulps where they carry mass, and the sums regroup.  1e-12 of each estimator's scale bounds both; the
    # scales are sqrt(E[y_i^2] E[y_j^2]) for moments of y = X - centre, the
    # value for the mgf and each mass, floored at 1e-300 for masses that
    # underflow in one run only.
    rng = np.random.default_rng(seed)
    if m == 1:
        spec = make_spec(["1"], [1.0], "3/2", regime,
                         **({"c": 1.0} if regime == "proportional" else {}))
    else:
        spec = random_spec(rng, regime, m, boundary)
    n = data.draw(st.integers(1, BLOCK_MAX_N[m]), label="n")
    try:
        size = enumerate_states(spec, n).shape[0]
        whole, support = blocked_sums(spec, n, size, spec.weights,
                                      rng.normal(size=m))
    except SpecValidationError:  # G(N) < m at small N
        return
    block = data.draw(st.integers(1, size), label="block")
    got, _ = blocked_sums(spec, n, block, whole.centre, whole.probes[0])
    assert len(whole.block_totals) == 1
    assert len(got.block_totals) == -(-support.weighed // block)
    second = np.diag(whole.covariance()) + whole.mean() ** 2
    scale = np.sqrt(np.multiply.outer(second, second))
    assert np.all(np.abs(got.mean() - whole.mean()) <= 1e-12 * np.sqrt(second))
    assert np.all(np.abs(got.covariance() - whole.covariance())
                  <= 1e-12 * scale)
    assert got.mgf(0) == pytest.approx(whole.mgf(0), rel=1e-12, abs=0)
    layers, want = got.layers(), whole.layers()
    assert layers.slacks == want.slacks
    assert np.all(np.abs(layers.masses - want.masses)
                  <= 1e-12 * want.masses + 1e-300)


def test_blocks_partition_support_in_order():
    # m=3 at N=200, cap 5/2: blocks of B = 4096 states, the last one
    # shorter, concatenate to the whole support when nothing is cut, and
    # to its states above the threshold, 57% of them, when they are cut.
    # A block's counts hold until the next block is made.
    spec = make_spec(["1", "2", "3"], [0.3, 0.4, 0.3], "5/2",
                     "high_degeneracy")
    states, _, keep = reference_cut(spec, 200)
    assert 0.5 < keep.mean() < 0.6
    for widen, want in ((None, states), (0.0, states[keep])):
        rows = ensemble._support(spec, 200, 10**6, widen)
        blocks = []
        for counts, _, _ in ensemble._weighed_blocks(spec, 200, rows, 4096):
            assert counts.T.flags.c_contiguous
            blocks.append(counts.copy())
        assert [len(b) for b in blocks[:-1]] == [4096] * (len(blocks) - 1)
        assert 0 < len(blocks[-1]) <= 4096
        assert np.array_equal(np.concatenate(blocks), want)


WALK_MAX_N = {1: 30, 2: 40, 3: 25, 4: 14, 5: 10, 6: 8}


@settings(max_examples=200, deadline=None)
@given(spec=edge_specs(), data=st.data())
def test_walk_counts_fills_and_weighs_the_support(spec, data):
    # The count pass and the fill are one prefix walk; the sweeps' blocks
    # and build_distribution are one weigher.  The whole support's count
    # is a brute-force count and its one fill is enumerate_states; the
    # streamed rows' blocks of B states concatenate to its states above
    # the threshold, each weighted exp(lw - max lw) with lw from
    # log_multiplicity bit for bit; and build_distribution's pmf is the
    # whole support's one block, normalised, bit for bit.
    n = data.draw(st.integers(1, WALK_MAX_N[spec.m]), label="n")
    rows = ensemble._support(spec, n, 10**6)
    states = enumerate_states(spec, n)
    assert rows.report == (len(states), len(states), 0.0)
    assert len(states) == brute_force_state_count(spec, n)
    try:
        degs = degeneracies_for(spec, n).as_array
    except SpecValidationError:  # G(N) < m at small N
        return
    [(counts, w, _)] = ensemble._weighed_blocks(spec, n, rows, len(states))
    assert np.array_equal(counts, states)
    dist = build_distribution(spec, n)
    assert np.array_equal(dist.counts, counts)
    assert np.array_equal(dist.pmf, w / w.sum())
    _, _, keep = reference_cut(spec, n)
    rows = ensemble._support(spec, n, 10**6, 0.0)
    block = data.draw(st.integers(1, len(states)), label="block")
    blocks = []
    for counts, weights, shift in ensemble._weighed_blocks(spec, n, rows,
                                                           block):
        assert counts.T.flags.c_contiguous
        lw = log_multiplicity(counts, degs)
        assert shift == lw.max()
        assert np.array_equal(weights, np.exp(lw - shift))
        blocks.append(counts.copy())  # the next block reuses its buffer
    assert np.array_equal(np.concatenate(blocks), states[keep])


def test_block_memory_does_not_grow_with_support(monkeypatch):
    # Boundary m=3 with every sum on: S grows about fourfold from N=800 to
    # N=1600, while the traced peak stays that of a few blocks, under half
    # of the support as one float column (8*S bytes).
    spec = make_spec(["1", "2", "3"], [0.3, 0.4, 0.3], "8/5", "proportional",
                     c=1.0)
    monkeypatch.setattr(ensemble, "BLOCK_STATES", 4096)
    peaks, sizes = [], []
    for n in (800, 1600):
        sizes.append(enumerate_states(spec, n).shape[0])
        acc = Accumulator(spec, n, centre=spec.weights, basis=np.eye(3),
                          covariance=True, probes=[[0.5, 0.0, -0.5]],
                          layers=True)
        tracemalloc.start()
        accumulate_support(acc)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert sizes[1] > 3.5 * sizes[0]
    assert peaks[1] < 1.2 * peaks[0]
    assert peaks[1] < 4 * sizes[1]


def test_sparse_slacks_hold_no_span_sized_array():
    # Energies 1, 9999 and 10000 leave most slack steps unrealized: at
    # N=1000 the span holds 5M steps for 125,251 states.  The layers are kept
    # per realized slack; a mass and a count per step of the span would take
    # 16 bytes a step, eight times the bound below.
    spec = make_spec(["1", "9999", "10000"], [0.4, 0.3, 0.3], "5000",
                     "proportional", c=1.0)
    dist = build_distribution(spec, 60)
    assert_layers_match(layer_decomposition(dist), dist)
    acc = Accumulator(spec, 1000, layers=True)
    tracemalloc.start()
    accumulate_support(acc)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    steps = spec.energy_cap_units(1000) // spec.lattice_step
    assert peak < 2 * steps
    # one layer per slack of the 27,531 states weighed
    states, _, keep = reference_cut(spec, 1000)
    assert len(acc.layers().slacks) == len(np.unique(
        states[keep] @ np.array(spec.energy_units))) == 27531


def test_cap_past_int64_keeps_layers_exact():
    # A cap above the top energy admits every composition: the layers at
    # cap 1e30 are those at cap 3, their slacks moved by the difference of
    # the integer bounds, a Python int past int64.  Keying the layers from
    # the raw bound once overflowed int64 here.
    far, top = (make_spec(["1", "2", "3"], [0.3, 0.4, 0.3], cap,
                          "proportional", c=1.0) for cap in ("1e30", "3"))
    n = 20
    dists = [build_distribution(spec, n) for spec in (far, top)]
    got, want = map(layer_decomposition, dists)
    assert np.array_equal(got.masses, want.masses)
    shift = far.energy_cap_units(n) - top.energy_cap_units(n)
    assert shift >= 2**63
    assert got.slacks == tuple(slack + shift for slack in want.slacks)
    assert_layers_match(got, dists[0])
    assert_layers_match(want, dists[1])


def test_bound_past_int64_raises_one_error():
    # q*(eps_m - eps_1)*N = 9.999e18: the count pass, the i.i.d. sampler
    # and a layered Accumulator share the one guard on the bound
    spec = make_spec(["1", "10000"], [0.5, 0.5], 2, "proportional", c=1.0)
    n = 10**15
    message = re.escape("N*q*(eps_m - eps_1) = 9999000000000000000 "
                        "overflows int64")
    with pytest.raises(OverflowError, match=message):
        ensemble._support(spec, n, 10**6)
    with pytest.raises(OverflowError, match=message):
        iid_draws(spec, n, 1, 0)
    with pytest.raises(OverflowError, match=message):
        Accumulator(spec, n, layers=True)


@settings(max_examples=100, deadline=None)
@given(spec=edge_specs().filter(lambda spec: spec.m <= 4), data=st.data())
def test_caps_past_the_top_energy_admit_the_same_support(spec, data):
    # Every cap at or above eps_m admits every composition and leaves the
    # maximum interior (lam = 0), so the states, one seed's i.i.d. draws and
    # the layer masses are the same at each such cap.
    top = spec.energies[-1]
    caps = [Fraction(cap) for cap in (top, 10 * top, "1e30")]
    specs = [validate_spec(spec._replace(energy_cap=cap)) for cap in caps
             if cap > spec.energies[0]]  # at m = 1 the cap eps_m is empty
    n = data.draw(st.integers(1, 30 if spec.m < 4 else 20), label="n")
    states = [enumerate_states(s, n) for s in specs]
    assert all(np.array_equal(got, states[0]) for got in states[1:])
    try:
        degeneracies_for(spec, n)
    except SpecValidationError:  # G(N) < m at small N
        return
    seed = data.draw(st.integers(0, 2**63 - 1), label="seed")
    draws = [iid_draws(s, n, 20, seed) for s in specs]
    assert all(got.tobytes() == draws[0].tobytes() for got in draws[1:])
    masses = [layer_decomposition(build_distribution(s, n)).masses
              for s in specs]
    assert all(np.array_equal(got, masses[0]) for got in masses[1:])


def _outcome(fn, *args):
    """fn(*args), or the type and text of the numeric failure it raised."""
    try:
        return fn(*args)
    except (SolverError, ArithmeticError) as err:
        return type(err), str(err)


@settings(max_examples=100, deadline=None)
@given(spec=edge_specs().filter(lambda spec: spec.m <= 4), data=st.data())
def test_common_energy_shift_changes_nothing(spec, data):
    # A state is admissible when sum eps_i*N_i <= E*N with sum N_i = N, so
    # adding one integer to every energy and the cap moves no support, weight,
    # draw, classification, x* or lam; only solve's nu moves.
    shift = data.draw(st.integers(-10**18, 10**18), label="shift")
    moved = validate_spec(spec._replace(
        energies=tuple(e + shift for e in spec.energies),
        energy_cap=spec.energy_cap + shift))
    n = data.draw(st.integers(1, 40 if spec.m < 4 else 20), label="n")
    assert np.array_equal(enumerate_states(moved, n), enumerate_states(spec, n))
    assert classify_maximum(moved) is classify_maximum(spec)
    got, want = _outcome(solve, moved), _outcome(solve, spec)
    if isinstance(want, MaxEntSolution):  # a NamedTuple, so test it first
        assert (got.x_star, got.lam) == (want.x_star, want.lam)
    else:
        assert got == want
    try:
        degeneracies_for(spec, n)
    except SpecValidationError:  # G(N) < m at small N
        return
    seed = data.draw(st.integers(0, 2**63 - 1), label="seed")
    assert iid_draws(moved, n, 20, seed).tobytes() == iid_draws(
        spec, n, 20, seed).tobytes()
    cfg = ChainConfig(steps=2000, seed=seed, burn_in=100, thinning=10)
    assert metropolis_chain(moved, n, cfg).tobytes() == metropolis_chain(
        spec, n, cfg).tobytes()
    got, want = (layer_decomposition(build_distribution(s, n))
                 for s in (moved, spec))
    assert got.slacks == want.slacks
    assert np.array_equal(got.masses, want.masses)


def test_lattice_past_int64_raises_one_error():
    # Energies far below zero once passed the guard on q*eps_m*N alone, and
    # the int64 walk silently dropped 3 of the 11 states at N=4.
    spec = make_spec([-4 * 10**18, 1, 2], [0.3, 0.4, 0.3], 1, "proportional",
                     c=1.0)
    message = re.escape("N*q*(eps_m - eps_1) = 16000000000000000008 "
                        "overflows int64")
    for run in (lambda: enumerate_states(spec, 4),
                lambda: iid_draws(spec, 4, 1, 0),
                lambda: Accumulator(spec, 4, layers=True)):
        with pytest.raises(OverflowError, match=message):
            run()


def test_energies_far_from_zero_enumerate_exactly():
    # Energies 1e18 + (1, 2, 3) overflowed int64 from zero; measured from
    # eps_1 they are heights 0, 1, 2 under a cap height of 1.
    base = 10**18
    spec = make_spec([base + 1, base + 2, base + 3], [0.3, 0.4, 0.3],
                     base + 2, "proportional", c=1.0)
    n = 10
    cap = spec.energy_cap * n
    brute = {(a, b, n - a - b) for a in range(n + 1) for b in range(n + 1 - a)
             if a * spec.energies[0] + b * spec.energies[1]
             + (n - a - b) * spec.energies[2] <= cap}
    states = enumerate_states(spec, n)
    assert len(brute) == len(states) == 36
    assert {tuple(row) for row in states.tolist()} == brute


def test_estimators_hold_no_support_sized_copy():
    # exact_mean once cast the (S, m) counts to float64 (40.8 MB at m=4,
    # N=250) and mgf built a row-major (S, m) float array per probe
    # (51.0 MB); each now holds at most two float columns at a time
    spec = make_spec(["1", "2", "3", "4"], [0.1, 0.2, 0.3, 0.4], "5/2",
                     "proportional", c=1.0)
    dist = build_distribution(spec, 250)
    column = dist.size * 8  # 1,337,532 states: 10.7 MB
    for estimator, args in ((exact_mean, ()), (mgf, ([0.5, 0.0, -0.5, 0.25],))):
        tracemalloc.start()
        estimator(dist, *args)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 2.5 * column, estimator.__name__


M4_SPEC = (["1", "2", "3", "4"], [0.25] * 4, 5, "proportional")


@pytest.mark.parametrize("budget, message", [
    (10**6, "1155317 weighed states of exact state count 1373701 exceed "
            "budget 1000000; use the sampler module"),
    (10**4, "state count (at least 20301 viable prefixes of 2 levels) "
            "exceeds budget 10000; use the sampler module"),
])
def test_budget_raised_before_any_block(monkeypatch, budget, message):
    def weigh(*args):
        raise AssertionError("a block was weighed")

    monkeypatch.setattr(ensemble, "table_log_multiplicity", weigh)
    acc = Accumulator(make_spec(*M4_SPEC, c=1.0), 200, layers=True)
    with pytest.raises(EnumerationBudgetError, match=re.escape(message)):
        accumulate_support(acc, budget)
    assert acc.block_totals == []


CUT_MAX_N = {1: 60, 2: 60, 3: 60, 4: 30, 5: 16, 6: 10}


@st.composite
def cut_specs(draw):
    """edge_specs, or random_spec's specs with m 2-6; the latter have the
    wider supports."""
    if draw(st.booleans(), label="edge"):
        return draw(edge_specs())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    regime = draw(st.sampled_from(["high_degeneracy", "proportional",
                                   "low_degeneracy"]), label="regime")
    return random_spec(rng, regime, draw(st.integers(2, 6), label="m"),
                       draw(st.booleans(), label="boundary"))


@settings(max_examples=400, deadline=None)
@given(spec=cut_specs(), data=st.data())
def test_cut_rows_hold_their_certificate(spec, data):
    # A streamed row weighs exactly the whole support's states at or above
    # its threshold, the cut widened by its probe's range.  The mass it
    # leaves out, summed over the whole support's pmf, is at most the bound
    # it reports, in Z and in the probe's sum; its mean, covariance, mgf and
    # layer masses differ from the whole support's by rounding (1e-12 of
    # each scale, as in test_blocks_match_one_block) plus what the bound
    # allows.  Every coordinate X_i - g_i lies in [-1, 1].  At N <= 60 the
    # cut at a share of 1e-16 seldom drops a state, so the share is also
    # drawn at 1e-8, 1e-3 and 0.5, which drop more.
    m = spec.m
    n = data.draw(st.integers(1, CUT_MAX_N[m]), label="n")
    try:
        degeneracies_for(spec, n)
    except SpecValidationError:  # G(N) < m at small N
        return
    xi = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=m,
                                     max_size=m), label="xi"))
    share = data.draw(st.sampled_from([ensemble.DROPPED_SHARE, 1e-8, 1e-3, 0.5]),
                      label="share")
    widen = float(xi.max() - xi.min())
    sums = dict(centre=spec.weights, basis=np.eye(m), covariance=True,
                probes=[xi], layers=True)
    got = Accumulator(spec, n, **sums)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ensemble, "DROPPED_SHARE", share)
        states, _, keep = reference_cut(spec, n, widen)
        rows = ensemble._support(spec, n, 10**6, widen)
        support = accumulate_support(got, 10**6)
    assert np.array_equal(
        ensemble._fill(spec, n, rows, 0, rows.report.weighed), states[keep])
    assert support == rows.report
    assert support[:2] == (len(states), int(keep.sum()))
    bound = support.dropped
    assert bound <= share and (bound == 0.0) == keep.all()

    dist = build_distribution(spec, n)
    whole = Accumulator(spec, n, **sums)
    whole.add(dist.counts, dist.pmf)
    tilt = np.exp(dist.counts / n @ xi - xi.max())
    assert math.fsum(dist.pmf[~keep]) <= bound
    assert math.fsum(dist.pmf[~keep] * tilt[~keep]) <= bound * math.fsum(
        dist.pmf * tilt)

    second = np.diag(whole.covariance()) + whole.mean() ** 2
    scale = np.sqrt(np.multiply.outer(second, second))
    assert np.all(np.abs(got.mean() - whole.mean())
                  <= 1e-12 * np.sqrt(second) + 2 * bound)
    assert np.all(np.abs(got.covariance() - whole.covariance())
                  <= 1e-12 * scale + 8 * bound)
    assert got.mgf(0) == pytest.approx(whole.mgf(0), rel=1e-12 + 2 * bound,
                                       abs=0)
    layers, want = got.layers(), whole.layers()
    mass = dict(zip(want.slacks, want.masses))
    assert set(layers.slacks) <= set(mass)
    for slack, value in zip(layers.slacks, layers.masses):
        assert abs(value - mass.pop(slack)) <= (1e-12 * value + 1e-300
                                                + 2 * bound)
    assert math.fsum(mass.values()) <= bound + 1e-300


@pytest.mark.parametrize("regime, weighed", [("high_degeneracy", 33493),
                                             ("proportional", 86083)])
def test_cut_weighs_a_sliver_of_a_boundary_row(regime, weighed):
    # m=3, cap 8/5, N = 2e4: 36,012,001 states, of which 0.093% and 0.24%
    # carry all but 1e-16 of Z
    spec = make_spec(["1", "2", "3"], [0.3, 0.4, 0.3], "8/5", regime,
                     **({"c": 1.0} if regime == "proportional" else {}))
    report = ensemble._support(spec, 20_000, 10**6, 0.0).report
    assert report[:2] == (36_012_001, weighed)
    assert report.dropped <= 1e-16


@pytest.mark.parametrize("regime", ["high_degeneracy", "proportional"])
def test_cut_row_at_n_1e5_matches_iid_draws(tmp_path, regime):
    # The m=3 boundary rows at N = 1e5 hold 9.0e8 states, 90 times the
    # default budget; 81,856 and 211,681 of them are weighed, so the row
    # is exact.  Its columns agree with 1e6 i.i.d. draws within 4 standard
    # errors of the draws' means of X_i and of exp(xi.X).
    from occens.cli import main

    energies, weights, n, xi = ["1", "2", "3"], [0.3, 0.4, 0.3], 100_000, [
        0.5, 0.0, -0.5]
    extra = {"c": 1.0} if regime == "proportional" else {}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "energies": energies, "weights": weights, "energy_cap": "8/5",
        "regime": regime, **extra, "N_list": [n], "xi_list": [xi]}))
    out = tmp_path / "row.csv"
    assert main(["lln-sweep", "--config", str(config), "--out", str(out)]) == 0
    row = [float(v) for v in out.read_text().splitlines()[-1].split(",")]
    spec = make_spec(energies, weights, "8/5", regime, **extra)
    x_star = np.array(solve(spec).x_star)
    x = iid_draws(spec, n, 10**6, 5) / n
    tilt = np.exp(x @ np.array(xi))
    se = np.sqrt(x.var(axis=0) / len(x))
    # |max_i |mu_i - x*_i| - max_i |mean_i - x*_i|| <= max_i |mu_i - mean_i|
    assert abs(row[1] - np.max(np.abs(x.mean(axis=0) - x_star))) <= 4 * se.max()
    target = math.exp(math.fsum(np.array(xi) * x_star))
    assert abs(row[2] - abs(tilt.mean() - target)) <= 4 * tilt.std() / 1e3


def test_cut_row_past_the_budget_builds_no_table(monkeypatch):
    # A row that fails the prefix check builds no log-weight table, as the
    # m=3 chain-fallback rows of the bench (high_degeneracy, cap 8/5,
    # N=2500, budget 1000) do.  m=2 has no prefix to check: a support past
    # the budget is cut only when its table of N + 1 columns fits too.
    def table(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(ensemble, "level_log_weights", table)
    spec = make_spec(["1", "2", "3"], [0.3, 0.4, 0.3], "8/5",
                     "high_degeneracy")
    message = ("state count (at least 1501 viable prefixes of 1 levels) "
               "exceeds budget 1000; use the sampler module")
    with pytest.raises(EnumerationBudgetError, match=re.escape(message)):
        accumulate_support(Accumulator(spec, 2500), 1000)
    spec = make_spec(["1", "2"], [0.5, 0.5], "3/2", "proportional", c=1.0)
    message = ("exact state count 500000001, and log-weight table of "
               "1000000001 columns, exceed budget 1000000; use the sampler "
               "module")
    with pytest.raises(EnumerationBudgetError, match=re.escape(message)):
        accumulate_support(Accumulator(spec, 10**9), 10**6)
