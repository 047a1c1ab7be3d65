import hashlib
import math
import random
import sys
import tracemalloc
from fractions import Fraction
from itertools import islice
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from occens import (
    ChainConfig,
    build_distribution,
    degeneracies_for,
    exact_sample,
    iid_draws,
    level_log_weights,
    make_spec,
    metropolis_chain,
)
from occens import sampler
from occens.core import SolverError, SpecValidationError

from helpers import (
    Occupancy,
    assert_feasible,
    chain_marginal,
    chi_square_p,
    edge_specs,
    entropy_exact,
    enumerated_kernel,
    random_spec,
    reference_metropolis_chain,
    reference_resolve,
    single_ball_moves,
    two_level_spec,
)


def sampler_spec(energy_cap="3/2"):
    return two_level_spec("proportional", energy_cap=energy_cap, c=1.0)


class TestChainConfig:
    def test_defaults_resolve_from_instance(self):
        steps, burn_in, thinning = ChainConfig(steps=1000, seed=1).resolve(6, 2)
        assert (steps, burn_in, thinning) == (1000, 120, 6)

    def test_default_steps_cover_default_burn_in(self):
        assert ChainConfig(steps=None, seed=1).resolve(6, 2) == (200_000, 120, 6)
        assert ChainConfig(steps=None, seed=1).resolve(7000, 3) == (
            420_000, 210_000, 7000)

    def test_validation(self):
        with pytest.raises(ValueError, match="steps > burn_in"):
            ChainConfig(steps=10, seed=1, burn_in=10).resolve(6, 2)
        with pytest.raises(ValueError, match="thinning"):
            ChainConfig(steps=10, seed=1, burn_in=0, thinning=0).resolve(6, 2)
        with pytest.raises(ValueError, match="steps must be <="):
            ChainConfig(steps=2**63, seed=1).resolve(6, 2)

    def test_missing_field_follows_given_one(self):
        # the default burn-in 10*N*m = 150000 reaches the given steps
        assert ChainConfig(steps=100_000, seed=1).resolve(5000, 3) == (
            100_000, 50_000, 5000)
        # the given burn-in reaches the default steps max(200000, 20*N*m)
        assert ChainConfig(steps=None, seed=1, burn_in=300_000).resolve(
            6, 2) == (600_000, 300_000, 6)
        # past sys.maxsize the default steps stop there
        huge = sys.maxsize // 20
        assert ChainConfig(steps=None, seed=1).resolve(huge, 3) == (
            sys.maxsize, sys.maxsize // 2, huge)

    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 10**6), st.integers(1, 10),
           st.fixed_dictionaries({}, optional={
               "steps": st.integers(1, 10**7),
               "burn_in": st.integers(0, 10**7),
               "thinning": st.integers(1, 10**7)}))
    def test_chain_rule(self, n, m, fields):
        cfg = ChainConfig(**{"steps": None, "seed": 0, **fields})
        if fields.get("burn_in", -1) >= fields.get("steps", math.inf):
            # the one conflict left, rejected by the config check
            with pytest.raises(ValueError, match="steps > burn_in"):
                cfg.resolve(n, m)
            return
        got = cfg.resolve(n, m)
        steps, burn_in, thinning = got
        assert steps > burn_in >= 0 and thinning >= 1
        assert all(got[k] == fields[key] for k, key in enumerate(
            ("steps", "burn_in", "thinning")) if key in fields)
        try:
            want = reference_resolve(cfg, n, m)
        except ValueError:
            return
        assert got == want


class TestExactSample:
    def test_single_state_support(self):
        spec = make_spec(["1"], [1.0], 2, "proportional", c=1.0)
        dist = build_distribution(spec, 5)
        draws = exact_sample(dist, 50, seed=3)
        assert np.all(draws == 5)

    def test_same_seed_reproducible(self):
        dist = build_distribution(sampler_spec(), 6)
        assert np.array_equal(exact_sample(dist, 1000, seed=7),
                              exact_sample(dist, 1000, seed=7))
        assert not np.array_equal(exact_sample(dist, 1000, seed=7),
                                  exact_sample(dist, 1000, seed=8))

    def test_uniform_frequencies_within_3_sigma(self):
        spec = make_spec(["1", "2"], [0.5, 0.5], 1.5, "proportional", c=0.5)
        dist = build_distribution(spec, 4)  # three equally likely states
        draws = exact_sample(dist, 100_000, seed=11)
        for row in dist.counts:
            freq = (draws == row).all(axis=1).mean()
            sigma = np.sqrt((1 / 3) * (2 / 3) / 100_000)
            assert abs(freq - 1 / 3) < 3 * sigma

    def test_rows_satisfy_invariants(self):
        spec = sampler_spec()
        dist = build_distribution(spec, 6)
        for row in exact_sample(dist, 200, seed=5):
            assert_feasible(spec, Occupancy(6, tuple(int(v) for v in row)))


class TestMetropolis:
    def test_states_satisfy_invariants(self):
        spec = sampler_spec()
        chain = metropolis_chain(spec, 6, ChainConfig(steps=5000, seed=2))
        assert chain.shape[1] == 2
        for row in chain:
            assert_feasible(spec, Occupancy(6, tuple(int(v) for v in row)))

    def test_same_seed_byte_identical(self):
        spec = sampler_spec()
        cfg = ChainConfig(steps=20_000, seed=99)
        assert np.array_equal(metropolis_chain(spec, 6, cfg),
                              metropolis_chain(spec, 6, cfg))

    def test_incremental_delta_matches_full_recomputation(self):
        spec = sampler_spec()
        n = 6
        dist = build_distribution(spec, n)
        deg = degeneracies_for(spec, n)
        g = deg.per_level
        for counts in dist.counts.tolist():
            for i, j, new in single_ball_moves(tuple(counts), 2):
                # the chain's two table reads for a move i -> j
                ni, nj = counts[i], counts[j]
                ratio = ni / (ni + g[i] - 1) * ((nj + g[j]) / (nj + 1))
                full = (entropy_exact(Occupancy(n, new), deg)
                        - entropy_exact(Occupancy(n, tuple(counts)), deg))
                assert math.log(ratio) == pytest.approx(full, abs=1e-10)

    def test_detailed_balance_on_enumerated_kernel(self):
        dist, _, kernel = enumerated_kernel(sampler_spec(), 6)
        flow = dist.pmf[:, None] * kernel
        assert np.max(np.abs(flow - flow.T)) < 1e-15
        assert np.allclose(kernel.sum(axis=1), 1.0, atol=1e-15)

    def test_stationarity_of_exact_pmf(self):
        dist, _, kernel = enumerated_kernel(sampler_spec(), 6)
        assert np.max(np.abs(dist.pmf @ kernel - dist.pmf)) < 1e-15

    def test_irreducible_on_support(self):
        spec = make_spec(["1", "2", "3"], [1 / 3, 1 / 3, 1 / 3], "8/5",
                         "proportional", c=1.0)
        n = 8
        dist = build_distribution(spec, n)
        states = {tuple(int(v) for v in row) for row in dist.counts}
        cap = spec.energy_cap_units(n)
        e = spec.energy_units
        start = next(iter(states))
        seen = {start}
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for _, _, new in single_ball_moves(current, 3):
                if new in seen or sum(u * v for u, v in zip(new, e)) > cap:
                    continue
                seen.add(new)
                frontier.append(new)
        assert seen == states

    def test_marginal_close_to_exact_pmf(self):
        spec = sampler_spec()
        dist, states, _ = enumerated_kernel(spec, 6)
        chain = metropolis_chain(spec, 6,
                                 ChainConfig(steps=200_000, seed=12345))
        emp = chain_marginal(chain, states)
        tv = 0.5 * np.abs(emp - dist.pmf).sum()
        assert tv < 0.05

    def test_matches_reference_at_huge_log_weights(self):
        # ln C(N+G_i-1, N) passes 1e7 here (G(N) = N^3 = 6.4e16), where a
        # log-domain step would be a difference of neighbouring entries
        # near 1e7; the chain reads quotients of ints near 1e16 instead
        spec = make_spec(["1", "2"], [0.5, 0.5], "7/5", "high_degeneracy",
                         p=3)
        n = 400_000
        logw = level_log_weights(degeneracies_for(spec, n).as_array, n)
        assert float(logw[:, n].max()) > 1e7
        cfg = ChainConfig(steps=20_000, seed=3, burn_in=0, thinning=7)
        assert np.array_equal(metropolis_chain(spec, n, cfg),
                              reference_metropolis_chain(spec, n, cfg))

    def test_single_level_chain(self):
        spec = make_spec(["1"], [1.0], 2, "proportional", c=1.0)
        chain = metropolis_chain(spec, 4, ChainConfig(steps=100, seed=0))
        assert np.all(chain == 4)

    def test_memory_is_linear_in_n(self):
        # G(N) = N^2 = 2.5e7 here; chain memory must grow with m*(N+1),
        # not with G(N).
        spec = make_spec(["1", "2", "3"], [0.3, 0.4, 0.3], "8/5",
                         "high_degeneracy")
        n = 5000
        assert degeneracies_for(spec, n).total >= 25_000_000
        cfg = ChainConfig(steps=1000, seed=1, burn_in=0, thinning=100)
        tracemalloc.start()
        try:
            metropolis_chain(spec, n, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    @pytest.mark.parametrize("m", [2, 3, 5, 17])
    def test_matches_reference_across_blocks(self, m):
        # the draws are made a block at a time; past two blocks the chain
        # must still make the reference's one-shot draws, of bytes and, at
        # m = 17, of 16-bit words
        spec = make_spec([str(k + 1) for k in range(m)], [1 / m] * m,
                         (m + 1) / 2, "proportional", c=1.0)
        cfg = ChainConfig(steps=2 * sampler._BLOCK + 4321, seed=11,
                          burn_in=5, thinning=97)
        assert np.array_equal(metropolis_chain(spec, 40, cfg),
                              reference_metropolis_chain(spec, 40, cfg))

    @pytest.mark.parametrize("m", [3, 17])
    def test_states_do_not_depend_on_block(self, monkeypatch, m):
        # blocks of any multiple of 4 bytes read the same stream
        spec = make_spec([str(k + 1) for k in range(m)], [1 / m] * m,
                         (m + 1) / 2, "proportional", c=1.0)
        cfg = ChainConfig(steps=3000, seed=23, burn_in=10, thinning=3)
        chains = []
        for block in (4, 12, 1 << 16):
            monkeypatch.setattr(sampler, "_BLOCK", block)
            chains.append(metropolis_chain(spec, 40, cfg))
        assert np.array_equal(chains[0], chains[1])
        assert np.array_equal(chains[0], chains[2])

    @pytest.mark.parametrize("m", [3, 17], ids=["bytes", "words"])
    def test_pair_draws_are_uniform(self, m):
        # the m*(m-1) ordered pairs by rejection from bytes (m <= 16) or
        # from 16-bit words: 200 draws a pair, a fixed seed, so a fixed p
        import mpmath

        size = m * (m - 1)
        draws = sampler._uniform_choices(random.Random("uniformity"),
                                         [(k,) for k in range(size)])
        seen = [0] * size
        for (k,) in islice(draws, 200 * size):
            seen[k] += 1
        stat = math.fsum((c - 200) ** 2 / 200 for c in seen)
        p = float(mpmath.gammainc((size - 1) / 2, stat / 2, mpmath.inf,
                                  regularized=True))
        assert p > 1e-3

    def test_more_than_256_levels_rejected(self):
        # 257 levels make 65,792 ordered pairs, more than a 16-bit word holds
        spec = make_spec(list(range(1, 258)), [1 / 257] * 257, 2,
                         "proportional", c=1.0)
        with pytest.raises(ValueError, match="at most 256 levels"):
            metropolis_chain(spec, 1000, ChainConfig(steps=10, seed=0))

    def test_kept_states_are_a_prefix_of_a_longer_run(self):
        # no step past the last kept state is drawn, and the pair draws and
        # uniforms have a stream each, so the steps add kept states to a
        # run and change none of those it had
        spec = make_spec(["1", "2", "3"], [0.3, 0.4, 0.3], "8/5",
                         "proportional", c=1.0)
        short, long = (
            metropolis_chain(spec, 30, ChainConfig(steps=steps, seed=17,
                                                   burn_in=500, thinning=7))
            for steps in (70_001, 150_000))
        assert len(short) == 9929 and len(long) == 21_358
        assert np.array_equal(long[:len(short)], short)

    def test_memory_does_not_grow_with_steps(self, monkeypatch):
        # The draws for all steps took 16 bytes a step (66.6 MB at 4e6
        # steps).  A small block shows the same at steps tracemalloc can
        # afford; no move fits under this cap, so the loop allocates little.
        monkeypatch.setattr(sampler, "_BLOCK", 1 << 10)
        spec = make_spec(["1", "2"], [0.5, 0.5], "1000001/1000000",
                         "proportional", c=1.0)
        # a first call allocates some 1 MB once; keep it out of the peaks
        metropolis_chain(spec, 100, ChainConfig(steps=10, seed=1, burn_in=0))
        peaks = []
        for steps in (25_000, 100_000):
            cfg = ChainConfig(steps=steps, seed=1, burn_in=0,
                              thinning=steps // 10)
            tracemalloc.start()
            try:
                metropolis_chain(spec, 100, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]


@st.composite
def chain_runs(draw):
    regime = draw(st.sampled_from(
        ["high_degeneracy", "proportional", "low_degeneracy"]))
    spec = random_spec(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                       regime, draw(st.integers(2, 4)), draw(st.booleans()))
    steps = draw(st.integers(1, 3000))
    cfg = ChainConfig(steps=steps, seed=draw(st.integers(0, 2**63 - 1)),
                      burn_in=draw(st.integers(0, steps - 1)),
                      thinning=draw(st.integers(1, steps)))
    n = draw(st.integers(1, 300))
    try:
        degeneracies_for(spec, n)
    except SpecValidationError:
        assume(False)  # G(N) too small to give every level a sub-box
    return spec, n, cfg


@settings(max_examples=50, deadline=None)
@given(chain_runs())
def test_chain_matches_reference_loop(run):
    spec, n, cfg = run
    assert np.array_equal(metropolis_chain(spec, n, cfg),
                          reference_metropolis_chain(spec, n, cfg))


@st.composite
def edge_chain_runs(draw):
    spec = draw(edge_specs())
    n = draw(st.integers(1, 60))
    try:
        degeneracies_for(spec, n)
    except SpecValidationError:
        assume(False)  # G(N) < m at small N
    steps = draw(st.integers(1, 3000))
    cfg = ChainConfig(steps=steps, seed=draw(st.integers(0, 2**63 - 1)),
                      burn_in=draw(st.integers(0, steps - 1)),
                      thinning=draw(st.integers(1, steps)))
    return spec, n, cfg


# m from 1 to 6, q up to 12 and caps within 1e-6 of eps_1 or the threshold
@settings(max_examples=50, deadline=None)
@given(edge_chain_runs())
def test_chain_matches_reference_loop_at_edge_specs(run):
    spec, n, cfg = run
    assert np.array_equal(metropolis_chain(spec, n, cfg),
                          reference_metropolis_chain(spec, n, cfg))


class TestIidDraws:
    def test_single_level(self):
        spec = make_spec(["1"], [1.0], 2, "proportional", c=1.0)
        assert np.array_equal(iid_draws(spec, 5, 7, seed=3),
                              np.full((7, 1), 5))

    def test_same_seed_byte_identical(self):
        spec = make_spec(["1", "2", "3"], [0.3, 0.4, 0.3], "8/5",
                         "high_degeneracy")
        draws = iid_draws(spec, 500, 2000, seed=7)
        assert draws.shape == (2000, 3) and draws.dtype == np.int64
        assert draws.tobytes() == iid_draws(spec, 500, 2000, seed=7).tobytes()
        assert not np.array_equal(draws, iid_draws(spec, 500, 2000, seed=8))
        # a row is seeded by (seed, N), not by the seed alone
        assert not np.array_equal(draws[:, 1:], iid_draws(
            spec, 501, 2000, seed=7)[:, 1:])

    @pytest.mark.parametrize("close, tilt", [
        *(pytest.param((level,), tilt, id=f"{level}-{tilt}")
          for level in range(3) for tilt in ("solved", "failed", "steeper")),
        *(pytest.param(pair, tilt, id=f"{pair[0]}{pair[1]}-{tilt}")
          for pair in ((0, 1), (0, 2), (1, 2))
          for tilt in ("solved", "steeper"))])
    def test_law_does_not_depend_on_closing_level(self, monkeypatch, close,
                                                  tilt):
        # Any closing levels and any tilt give exact draws; they only set
        # the acceptance rate.  The patched selection closes on `close`: one
        # level, or a pair closing count and height.  A failed tilt is the
        # flat one, lam = 0 and t_i = log(1 + G(N)/N), which only one level
        # can close; a steeper one doubles lam, and with it the geometric
        # slack's rate.  The seed is fixed, so each p-value is too.
        spec = make_spec(["1", "2", "3"], [0.3, 0.4, 0.3], "8/5",
                         "proportional", c=1.0)
        solved = sampler.finite_n_tilt

        def patched(spec, n, degs):
            lam, t, x = solved(spec, n, degs)
            if tilt == "failed":
                lam, t = 0.0, [math.log1p(sum(degs) / n)] * spec.m
            elif tilt == "steeper":
                t = [ti + lam * u / spec.q
                     for ti, u in zip(t, spec.energy_units)]
                lam *= 2
            return lam, t, x
        monkeypatch.setattr(sampler, "finite_n_tilt", patched)
        monkeypatch.setattr(sampler, "_closing_levels", lambda *args: close)
        draws = iid_draws(spec, 30, 20_000, seed=1)
        assert chi_square_p(build_distribution(spec, 30), draws) > 1e-3

    @pytest.mark.parametrize("cap, close, digest", [
        # the height spreads over some 11 decay lengths of the slack layers:
        # two levels accept about 0.59 of their proposals, one about 0.025
        ("8/5", (0, 1), None),
        # just below the threshold 2 the height spreads over 0.14 of one
        # (one level accepts about 0.23, two about 0.06), and an interior
        # cap has lam = 0: one level closes, and the digests pin its draws
        ("399/200", (1,), "e8174e26772ecdea62d202959228771c"
                          "54e8db80794e5071969f5097dccb4959"),
        ("5/2", (1,), "ae9f55d4fa268c1c862a274b5e2bdf5e"
                      "3d73bce386135f25f313ccaabdbbb0bb"),
    ], ids=["boundary", "near-threshold", "interior"])
    def test_closure_selection(self, cap, close, digest):
        spec = make_spec(["1", "2", "3"], [0.3, 0.4, 0.3], cap,
                         "proportional", c=1.0)
        degs = degeneracies_for(spec, 1000).per_level
        lam, _, x = sampler.finite_n_tilt(spec, 1000, degs)
        assert sampler._closing_levels(spec, 1000, degs, lam, x) == close
        if digest is not None:
            draws = iid_draws(spec, 1000, 2000, seed=5)
            assert hashlib.sha256(draws.tobytes()).hexdigest() == digest

    def test_boundary_draws_do_not_slow_with_n(self, monkeypatch):
        # A count of level draws, not a wall time: at N = 10**5 the two-level
        # closure makes 20,000 draws in about 8e4 level draws (acceptance
        # about 0.6), while one level closing, whose acceptance falls like
        # N**-1/2, would need about 1e7 and runs out of the cap.
        spec = make_spec(["1", "2", "3"], [0.3, 0.4, 0.3], "8/5",
                         "proportional", c=1.0)
        monkeypatch.setattr(sampler, "_MAX_LEVEL_DRAWS", 2 * 10**5)
        draws = iid_draws(spec, 10**5, 20_000, seed=1)
        assert draws.shape == (20_000, 3)
        assert np.all(draws @ np.array(spec.energy_units)
                      <= spec.energy_cap_units(10**5))
        monkeypatch.setattr(sampler, "_closing_levels", lambda *args: (0,))
        with pytest.raises(SolverError, match="within its cap"):
            iid_draws(spec, 10**5, 20_000, seed=1)


@st.composite
def iid_runs(draw):
    regime = draw(st.sampled_from(
        ["high_degeneracy", "proportional", "low_degeneracy"]))
    m = draw(st.integers(1, 6))
    boundary = m > 1 and draw(st.booleans())
    # rational heights, or the energies 0, 2, 4, ... of lattice step 2
    energies = draw(st.sampled_from([None, range(0, 2 * m, 2)]))
    spec = random_spec(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                       regime, m, boundary, energies)
    n = draw(st.integers(1, 40))
    try:
        degeneracies_for(spec, n)
    except SpecValidationError:
        assume(False)  # G(N) too small to give every level a sub-box
    return spec, n, draw(st.integers(0, 2**63 - 1))


# When the draws follow the pmf, an example fails with probability 1e-6
# (nominal: the pooled Pearson statistic's chi-square law), so a run of 60
# examples raises a false alarm with probability below 1e-4.
# Both tests below cap the sampler at 10**6 level draws, not 10**8: no
# passing example comes near it, and a tilt that stops accepting fails in
# seconds.
@settings(max_examples=60, deadline=None)
@given(iid_runs())
# six levels of G_i = 1 at N=10, where the two levels of largest x lie
# three lattice steps apart: closing them accepts about 0.02 of the
# proposals (too few for the cap), one level about 0.06
@example(run=(make_spec(["1/3", "4/3", "2", "7/3", "10/3", "4"], [
    0.11906193884604716, 0.18796380294137116, 0.17214154959919584,
    0.07317405981575316, 0.3219958829692257, 0.12566276582840694],
    Fraction(705841460903371, 562949953421312), "proportional",
    c=0.5150111024561123), 10, 0))
def test_iid_draws_follow_enumerated_pmf(run):
    spec, n, seed = run
    with patch.object(sampler, "_MAX_LEVEL_DRAWS", 10**6):
        draws = iid_draws(spec, n, 4000, seed)
    assert chi_square_p(build_distribution(spec, n), draws) > 1e-6


# Two caps 1e-12 above eps_1, where the top level's tilted mean N*x_5
# underflows: under lam = 0 the first accepts no proposal, and at the second
# t_5 = 711 lies past the float range of math.expm1.
_NEAR_EPS_1 = Fraction(1, 6) + Fraction(1, 10**12)


@settings(max_examples=100, deadline=None)
@given(spec=edge_specs(), n=st.integers(1, 40), seed=st.integers(0, 2**63 - 1))
@example(spec=make_spec(["1/6", "1/3", "1/2", "2/3", "5"],
                        [1 / 6, 1 / 3, 1 / 6, 1 / 6, 1 / 6], _NEAR_EPS_1,
                        "high_degeneracy"), n=9, seed=0)
@example(spec=make_spec(["1/6", "1/3", "1/2", "2/3", "29/6"], [0.2] * 5,
                        _NEAR_EPS_1, "high_degeneracy"), n=8, seed=0)
def test_iid_draws_stay_on_constraint_set(spec, n, seed):
    try:
        degeneracies_for(spec, n)
    except SpecValidationError:  # G(N) < m at small N
        return
    with patch.object(sampler, "_MAX_LEVEL_DRAWS", 10**6):
        draws = iid_draws(spec, n, 50, seed)
    assert draws.shape == (50, spec.m) and draws.dtype == np.int64
    assert draws.min() >= 0 and np.all(draws.sum(axis=1) == n)
    energy = draws @ np.array(spec.energy_units)
    assert np.all(energy <= spec.energy_cap_units(n))
