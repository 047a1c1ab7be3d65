import json
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from occens import (
    ChainConfig,
    MaximumKind,
    build_distribution,
    classify_maximum,
    empirical_fluctuations,
    exact_covariance,
    exact_mean,
    layer_decomposition,
    limit_entropy_hessian_diag,
    make_spec,
    metropolis_chain,
    mgf,
    predict_boundary,
    predict_interior,
    rotation_basis,
    scaling_factor,
    solve,
    threshold_energy,
)
from occens import fluctuations
from occens.cli import main

from helpers import (draws_distribution, lapack_predict_boundary,
                     lapack_predict_interior, limit_entropy_grad, predict,
                     random_spec, reduced_hessian, reference_sampled_estimates,
                     third_std_moments, two_level_spec)

EPS = sys.float_info.epsilon


class TestInteriorPrediction:
    def test_two_level_regime1_quarter(self):
        pred = predict_interior(two_level_spec("high_degeneracy", energy_cap=2))
        assert pred.covariance.shape == (1, 1)
        assert pred.covariance[0, 0] == pytest.approx(0.25, abs=1e-12)

    def test_two_level_regime3_quarter(self):
        pred = predict_interior(two_level_spec("low_degeneracy", energy_cap=2))
        assert pred.covariance[0, 0] == pytest.approx(0.25, abs=1e-12)

    def test_asymmetric_weights_value(self):
        # s1'' = -1/x at x = g = (0.3, 0.7): H_red = -(1/0.3 + 1/0.7)
        spec = two_level_spec("high_degeneracy", energy_cap=2,
                              weights=[0.3, 0.7])
        pred = predict_interior(spec)
        assert pred.covariance[0, 0] == pytest.approx(0.21, abs=1e-12)

    def test_random_covariances_positive_definite(self):
        rng = np.random.default_rng(7)
        for regime in ("high_degeneracy", "proportional", "low_degeneracy"):
            spec = random_spec(rng, regime, 3, boundary=False)
            pred = predict_interior(spec)
            assert np.allclose(pred.covariance, pred.covariance.T)
            assert np.min(np.linalg.eigvalsh(pred.covariance)) > 0

    def test_inverse_relation(self):
        spec = make_spec(["1", "2", "3"], [0.3, 0.4, 0.3], 3,
                         "proportional", c=1.0)
        pred = predict_interior(spec)
        h_red = reduced_hessian(spec, spec.weights)
        assert np.max(np.abs((-h_red) @ pred.covariance - np.eye(2))) < 1e-10

    def test_rejects_boundary_instance(self):
        with pytest.raises(ValueError, match="wrong kind"):
            predict_interior(two_level_spec("high_degeneracy"))


class TestRotationBasis:
    def test_two_level_sign_convention(self):
        basis = rotation_basis(two_level_spec("high_degeneracy"))
        assert basis.shape == (1, 1)
        assert abs(abs(basis[0, 0]) - 1.0) < 1e-15

    def test_three_level_normal(self):
        spec = make_spec(["1", "2", "3"], [1 / 3, 1 / 3, 1 / 3], 2,
                         "high_degeneracy")
        basis = rotation_basis(spec)
        expected = np.array([-2.0, -1.0]) / math.sqrt(5.0)
        assert np.allclose(basis[:, 0], expected, atol=1e-12)

    def test_orthonormal(self):
        rng = np.random.default_rng(2)
        for m in (2, 3, 4):
            spec = random_spec(rng, "high_degeneracy", m, boundary=False)
            basis = rotation_basis(spec)
            assert basis.shape == (m - 1, m - 1)
            assert np.max(np.abs(basis.T @ basis - np.eye(m - 1))) <= 1e-12


class TestBoundaryPrediction:
    def test_two_level_geometry(self):
        spec = two_level_spec("high_degeneracy")
        pred = predict_boundary(spec, 64)
        assert pred.kind is MaximumKind.BOUNDARY
        assert pred.covariance.shape == (0, 0)
        # lam = ln(3/2), lattice step 1, q = 1: ratio = 2/3
        assert pred.layer_log_ratio == pytest.approx(-math.log(1.5), abs=1e-10)
        assert pred.layer_log_ratio < 0

    def test_layer_masses_follow_geometric_law(self):
        spec = make_spec(["1", "2", "3"], [1 / 3, 1 / 3, 1 / 3], "17/10",
                         "high_degeneracy")
        pred = predict_boundary(spec, 120)
        dist = build_distribution(spec, 120)
        layers = layer_decomposition(dist)
        ratio = layers.masses[1] / layers.masses[0]
        assert ratio == pytest.approx(math.exp(pred.layer_log_ratio), rel=2e-3)

    def test_in_plane_block_matches_enumeration(self):
        spec = make_spec(["1", "2", "3"], [1 / 3, 1 / 3, 1 / 3], "17/10",
                         "high_degeneracy")
        sol = solve(spec)
        pred = predict_boundary(spec, 240)
        dist = build_distribution(spec, 240)
        acc = empirical_fluctuations(dist, sol, spec)
        assert acc.covariance().shape == (1, 1)
        assert acc.covariance()[0, 0] == pytest.approx(
            pred.covariance[0, 0], rel=0.02)

    def test_lattice_step_gcd(self):
        spec = make_spec(["1", "3", "5"], [1 / 3, 1 / 3, 1 / 3], 2,
                         "high_degeneracy")
        assert spec.lattice_step == 2
        dist = build_distribution(spec, 30)
        layers = layer_decomposition(dist)
        steps = np.diff(layers.slacks)
        assert np.all(steps == 2)

    def test_regime3_ratio_shrinks_with_n(self):
        # layer exponent carries G(N)/N for the low-degeneracy regime, so
        # the geometric law flattens as N grows; only the sign is asserted.
        spec = two_level_spec("low_degeneracy")
        r_small = predict_boundary(spec, 64).layer_log_ratio
        r_large = predict_boundary(spec, 1024).layer_log_ratio
        assert r_small < 0 and r_large < 0
        assert abs(r_large) < abs(r_small)

    def test_rejects_interior_instance(self):
        with pytest.raises(ValueError, match="wrong kind"):
            predict_boundary(two_level_spec("high_degeneracy", energy_cap=2), 8)

    def test_dispatch(self):
        assert predict(two_level_spec("high_degeneracy", energy_cap=2), 8).kind \
            is MaximumKind.INTERIOR
        assert predict(two_level_spec("high_degeneracy"), 8).kind \
            is MaximumKind.BOUNDARY


class TestStationarityGeometry:
    def test_in_plane_gradient_vanishes(self):
        rng = np.random.default_rng(19)
        for regime in ("high_degeneracy", "proportional", "low_degeneracy"):
            spec = random_spec(rng, regime, 3, boundary=True)
            sol = solve(spec)
            grad = np.array(limit_entropy_grad(spec, sol.x_star))
            reduced = grad[:-1] - grad[-1]
            in_plane = rotation_basis(spec)[:, 1:]
            assert np.max(np.abs(reduced @ in_plane)) < 1e-8

    def test_layers_match_normal_coordinate_grouping(self):
        spec = make_spec(["1", "2", "3"], [1 / 3, 1 / 3, 1 / 3], "17/10",
                         "high_degeneracy")
        dist = build_distribution(spec, 60)
        layers = layer_decomposition(dist)
        basis = rotation_basis(spec)
        v1 = (dist.counts / dist.n)[:, :2] @ basis[:, 0]
        # states share a layer iff they share the normal coordinate; energy
        # grows along the normal, so layer 0 (least slack) has the largest v1
        groups = {}
        for idx, value in enumerate(np.round(v1, 12)):
            groups.setdefault(value, []).append(idx)
        by_v1 = [math.fsum(dist.pmf[groups[v]])
                 for v in sorted(groups, reverse=True)]
        assert len(by_v1) == len(layers.slacks)
        assert layers.masses.tolist() == pytest.approx(by_v1, rel=1e-13)


class TestEmpiricalSummaries:
    def test_single_level_degenerate(self):
        spec = make_spec(["1"], [1.0], 2, "proportional", c=1.0)
        dist = build_distribution(spec, 6)
        acc = empirical_fluctuations(dist, solve(spec), spec)
        assert acc.covariance().shape == (0, 0)
        assert np.allclose(exact_covariance(dist), [[0.0]])

    def test_interior_variance_converges(self):
        spec = two_level_spec("proportional", energy_cap=2)
        sol = solve(spec)
        pred = predict_interior(spec)
        gaps = []
        for n in (64, 128, 256):
            acc = empirical_fluctuations(build_distribution(spec, n), sol, spec)
            gaps.append(abs(acc.covariance()[0, 0]
                            - pred.covariance[0, 0]))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_interior_third_moment_shrinks(self):
        spec = two_level_spec("high_degeneracy", energy_cap=2,
                              weights=[0.3, 0.7])
        sol = solve(spec)
        thirds = []
        for n in (64, 128, 256):
            dist = build_distribution(spec, n)
            thirds.append(abs(float(third_std_moments(dist, sol, spec)[0])))
        assert thirds[0] > thirds[1] > thirds[2]

    def test_interior_third_moment_matches_direct_sum(self):
        spec = make_spec(["1", "2", "3"], [0.2, 0.3, 0.5], 3, "high_degeneracy")
        sol = solve(spec)
        n = 40
        dist = build_distribution(spec, n)
        third = third_std_moments(dist, sol, spec)
        y = (math.sqrt(scaling_factor(spec, n))
             * (dist.counts[:, :2] / n - sol.x_star[:2]))
        for j in range(2):
            c = y[:, j] - math.fsum(dist.pmf * y[:, j])
            want = (math.fsum(dist.pmf * c**3)
                    / math.fsum(dist.pmf * c**2) ** 1.5)
            assert want > 0.1
            assert third[j] == pytest.approx(want, rel=1e-12)

    def test_boundary_summary_masses(self):
        spec = two_level_spec("high_degeneracy")
        sol = solve(spec)
        acc = empirical_fluctuations(build_distribution(spec, 64), sol, spec)
        assert acc.layers().masses.sum() == pytest.approx(1.0, abs=1e-12)
        assert acc.layers().slacks[0] == 0


# (energies, weights, boundary cap, interior cap) per number of levels
CHAIN_SPECS = {
    2: (["1", "2"], [0.5, 0.5], "7/5", "2"),
    3: (["1", "2", "3"], [0.3, 0.4, 0.3], "8/5", "5/2"),
    4: (["1", "2", "3", "4"], [0.25] * 4, "17/10", "3"),
}


def assert_close(got, want, rel=1e-12):
    """|got - want| <= rel * max|want|, elementwise over a block."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= rel * np.max(
        np.abs(want), initial=0.0)


@pytest.mark.parametrize("regime", ["high_degeneracy", "proportional",
                                    "low_degeneracy"])
@pytest.mark.parametrize("boundary", [False, True], ids=["interior", "boundary"])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_shared_estimators_on_chain_draws(m, boundary, regime):
    # The estimators of the exact path, applied to equally weighted chain
    # draws, give the sample averages the fallback rows were once built from.
    energies, weights, bcap, icap = CHAIN_SPECS[m]
    spec = make_spec(energies, weights, bcap if boundary else icap, regime,
                     c=1.0)
    n = 30
    sol = solve(spec)
    assert (sol.kind is MaximumKind.BOUNDARY) == boundary
    draws = metropolis_chain(spec, n, ChainConfig(steps=30_000, seed=m,
                                                  burn_in=3_000, thinning=7))
    probes = [np.full(m, 0.5), np.linspace(-1.0, 1.0, m)]
    mean, mgfs, cov, masses = reference_sampled_estimates(spec, sol, n, draws,
                                                          probes)
    dist = draws_distribution(spec, n, draws)
    assert dist.size == draws.shape[0]
    assert_close(exact_mean(dist), mean)
    for xi, want in zip(probes, mgfs):
        assert_close(mgf(dist, xi), want)
    acc = empirical_fluctuations(dist, sol, spec)
    if not boundary:
        assert_close(acc.covariance(), cov)
        return
    # the in-plane block is (m-2)x(m-2): empty at m = 2
    assert acc.covariance().shape == (m - 2, m - 2)
    assert_close(acc.covariance(), cov[: m - 2, : m - 2])
    assert masses.size > 2
    assert np.all(np.abs(acc.layers().masses - masses) <= 1e-12 * masses)


@st.composite
def prediction_specs(draw):
    """Specs at m = 2..6 in every regime, weights >= 1e-3, proportional c
    from 1e-3 to 1e3, and the cap above the interior threshold or a share
    t of the way from eps_1 to it, with t >= 1e-3."""
    m = draw(st.integers(2, 6))
    q = draw(st.sampled_from([1, 2, 3, 7, 12]))
    numerators = sorted(draw(st.lists(st.integers(1, 24), min_size=m,
                                      max_size=m, unique=True)))
    energies = [Fraction(v, q) for v in numerators]
    shares = draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m))
    total = math.fsum(shares)
    assume(total > 0.0)
    weights = [1e-3 + (1.0 - 1e-3 * m) * (v / total) for v in shares]
    regime = draw(st.sampled_from(["high_degeneracy", "proportional",
                                   "low_degeneracy"]))
    kwargs = ({"c": 10.0 ** draw(st.floats(-3.0, 3.0))}
              if regime == "proportional" else {})
    top = float(energies[-1]) + 1.0
    threshold = threshold_energy(make_spec(energies, weights, top, regime,
                                           **kwargs))
    low = float(energies[0]) if draw(st.booleans()) else threshold
    cap = low + draw(st.floats(1e-3, 0.999)) * (
        (threshold if low < threshold else top) - low)
    return make_spec(energies, weights, cap, regime, **kwargs)


@settings(max_examples=300, deadline=None)
@given(spec=prediction_specs(), n=st.integers(1, 10_000))
def test_gaussian_block_matches_lapack_reference(spec, n):
    # The plain-Python block is within 16 eps times the condition number of
    # the reduced precision of the LAPACK inverse (a perturbation of the
    # precision or of the in-plane axes moves the inverse by that factor);
    # the collapsed layer log-ratio is within 4 ulps of the unit-normal one.
    # Past a condition number of 1e9, x* has a coordinate near 1e-13 and
    # both paths lose digits, so those specs are left out.  The block's
    # pivot estimate is at most the condition number of its precision, and
    # that at most kappa, so a block refused as ill-conditioned has kappa
    # past CONDITION_LIMIT/eps.
    boundary = classify_maximum(spec) is MaximumKind.BOUNDARY
    x = solve(spec).x_star if boundary else spec.weights
    kappa = np.linalg.cond(-reduced_hessian(spec, x))
    assume(kappa < 1e9)
    if kappa * EPS > fluctuations.CONDITION_LIMIT:
        try:
            predict(spec, n)
        except ArithmeticError as err:
            assert "ill-conditioned" in str(err)
            return
    if boundary:
        pred = predict_boundary(spec, n)
        want, log_ratio = lapack_predict_boundary(spec, n)
        assert abs(pred.layer_log_ratio - log_ratio) <= 4 * EPS * abs(log_ratio)
    else:
        pred, want = predict_interior(spec), lapack_predict_interior(spec)
    assert np.array_equal(pred.covariance, pred.covariance.T)
    assert_close(pred.covariance, want, rel=16 * kappa * EPS)


class TestNotPositiveDefinite:
    """A curvature of the wrong sign makes the precision block negative
    definite: the Cholesky pivots refuse it as a numeric failure."""

    M3 = {"energies": ["1", "2", "3"], "weights": [0.3, 0.4, 0.3],
          "regime": "proportional", "c": 1.0}
    CAPS = pytest.mark.parametrize("cap", ["3", "8/5"],
                                   ids=["interior", "boundary"])

    @pytest.fixture(autouse=True)
    def convex(self, monkeypatch):
        monkeypatch.setattr(fluctuations, "limit_entropy_hessian_diag",
                            lambda spec, x: tuple(1.0 for _ in x))

    @CAPS
    def test_prediction_raises(self, cap):
        spec = make_spec(self.M3["energies"], self.M3["weights"], cap,
                         "proportional", c=1.0)
        with pytest.raises(ArithmeticError, match="not positive definite"):
            predict(spec, 10)

    @CAPS
    def test_fluct_check_exits_1(self, tmp_path, capsys, cap):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**self.M3, "energy_cap": cap,
                                      "N_list": [10, 20]}), encoding="utf-8")
        out = tmp_path / "out.csv"
        assert main(["fluct-check", "--config", str(config),
                     "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "numeric"
        assert "not positive definite" in err["detail"]
        assert not out.exists()


def test_ill_conditioned_block_is_refused(tmp_path, capsys):
    # m=4, high_degeneracy, the cap 1e-6 of the way from eps_1 to the
    # interior threshold: x* = (1 - 4.5e-6, 4.5e-6, 2.3e-20, 1.6e-75), so
    # the in-plane precision spans some 16 decades.  The Cholesky inverse
    # keeps no digit of the 60-digit mpmath inverse of the same precision;
    # its pivot condition estimate, 8.5e15, refuses it, and fluct-check
    # exits 1 with that estimate in the message.
    mpmath = pytest.importorskip("mpmath")
    energies = ["5", "6", "8", "17"]
    weights = [0.06864636832368265, 0.5993905757171789, 0.01143997853836582,
               0.32052307742077274]
    cap = "2814752289115281/562949953421312"
    spec = make_spec(energies, weights, cap, "high_degeneracy")
    x = solve(spec).x_star
    axes = rotation_basis(spec)[:, 1:].T.tolist()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fluctuations, "CONDITION_LIMIT", math.inf)
        block = fluctuations._gaussian_block(spec, x, axes)
    with mpmath.workdps(60):
        *a, b = (-mpmath.mpf(h) for h in limit_entropy_hessian_diag(spec, x))
        precision = mpmath.matrix([[b * mpmath.fsum(u) * mpmath.fsum(v)
                                    + mpmath.fsum(ai * ui * vi for ai, ui, vi
                                                  in zip(a, u, v))
                                    for v in axes] for u in axes])
        want = precision ** -1
        k = len(axes)
        scale = max(abs(want[i, j]) for i in range(k) for j in range(k))
        error = max(abs(block[i, j] - want[i, j]) for i in range(k)
                    for j in range(k)) / scale
    assert error > 0.5
    message = ("covariance block ill-conditioned: pivot condition estimate "
               "8.472e+15 times eps exceeds 1e-08")
    with pytest.raises(ArithmeticError, match=re.escape(message)):
        predict_boundary(spec, 60)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "energies": energies, "weights": weights, "energy_cap": cap,
        "regime": "high_degeneracy", "N_list": [60]}), encoding="utf-8")
    assert main(["fluct-check", "--config", str(config)]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "numeric",
                                                    "detail": message}
