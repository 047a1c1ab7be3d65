import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from occens import (
    MaximumKind,
    Regime,
    SolverError,
    classify_maximum,
    make_spec,
    solve,
    threshold_energy,
)
from occens.core import EnsembleSpec
from occens.entropy import limit_entropy
from occens.maxent import RESIDUAL_TOL

from helpers import (energies_float, kkt_stationarity_residual,
                     oracle_grid_maximize, random_spec, reference_solve,
                     two_level_spec)

REGIMES = [("high_degeneracy", {}), ("proportional", {"c": 1.0}),
           ("low_degeneracy", {})]


class TestClassify:
    def test_interior_above_threshold(self):
        assert classify_maximum(two_level_spec("high_degeneracy", energy_cap=2)) \
            is MaximumKind.INTERIOR

    def test_boundary_below_threshold(self):
        assert classify_maximum(two_level_spec("high_degeneracy")) \
            is MaximumKind.BOUNDARY

    def test_exact_threshold_is_interior(self):
        spec = two_level_spec("high_degeneracy", energy_cap="3/2")
        assert classify_maximum(spec) is MaximumKind.INTERIOR

    @pytest.mark.parametrize("scale", [Fraction(1, 10**13), 1, 10**13])
    def test_energy_unit_changes_nothing(self, scale):
        # heights 0, 1, 2 and cap height 3/5 below the threshold height 1,
        # in three units of energy: the tie tolerance is relative
        spec = make_spec([scale * k for k in (1, 2, 3)], [0.3, 0.4, 0.3],
                         scale * Fraction(8, 5), "proportional", c=1.0)
        assert classify_maximum(spec) is MaximumKind.BOUNDARY
        assert solve(spec).x_star == pytest.approx(
            (0.537199, 0.325602, 0.137199), abs=1e-6)

    def test_empty_domain_error(self):
        # bypass make_spec validation to reach the classifier's own check
        spec = EnsembleSpec(
            energies=(Fraction(1), Fraction(2)),
            weights=(0.5, 0.5),
            energy_cap=Fraction(1),
            regime=Regime.HIGH_DEGENERACY,
            p=2.0,
        )
        with pytest.raises(ValueError, match="empty domain"):
            classify_maximum(spec)


class TestClosedFormTwoLevel:
    """With m=2 the active cap pins x* = (0.6, 0.4) in every regime."""

    @pytest.mark.parametrize("regime,kwargs", REGIMES)
    def test_x_star(self, regime, kwargs):
        sol = solve(two_level_spec(regime, **kwargs))
        assert sol.kind is MaximumKind.BOUNDARY
        assert np.allclose(sol.x_star, [0.6, 0.4], atol=1e-10)

    def test_regime1_multipliers(self):
        sol = solve(two_level_spec("high_degeneracy"))
        lam, nu = sol.lam, sol.nu
        assert lam == pytest.approx(math.log(1.5), abs=1e-10)
        # nu = ln(g1 e^-lam + g2 e^-2lam) = ln(5/9)
        assert nu == pytest.approx(math.log(5.0 / 9.0), abs=1e-10)
        assert nu == pytest.approx(-0.587787, abs=1e-6)

    def test_regime2_multiplier_identity(self):
        spec = two_level_spec("proportional")
        sol = solve(spec)
        lam, nu = sol.lam, sol.nu
        # stationarity: 1 + g_i c / x_i = exp(lam*eps_i + nu)
        for eps, x, g in [(1.0, 0.6, 0.5), (2.0, 0.4, 0.5)]:
            assert 1.0 + g / x == pytest.approx(math.exp(lam * eps + nu), abs=1e-10)

    def test_regime3_multipliers_positive_denominators(self):
        spec = two_level_spec("low_degeneracy")
        sol = solve(spec)
        lam, nu = sol.lam, sol.nu
        assert lam > 0
        for eps in energies_float(spec):
            assert lam * eps + nu > 0
        x = [g / (lam * e + nu)
             for g, e in zip(spec.weights, energies_float(spec))]
        assert np.allclose(x, [0.6, 0.4], atol=1e-10)


class TestSolverContracts:
    @pytest.mark.parametrize("regime,kwargs", REGIMES)
    def test_interior_returns_weights(self, regime, kwargs):
        spec = two_level_spec(regime, energy_cap=4, **kwargs)
        sol = solve(spec)
        assert sol.kind is MaximumKind.INTERIOR
        assert np.array_equal(sol.x_star, spec.weights)
        assert sol.lam == 0.0

    def test_interior_nu_by_regime(self):
        assert solve(two_level_spec("high_degeneracy", energy_cap=4)).nu == 0.0
        assert solve(two_level_spec("proportional", energy_cap=4, c=1.0)).nu \
            == pytest.approx(math.log(2), abs=1e-15)
        assert solve(two_level_spec("proportional", energy_cap=4, c=3.0)).nu \
            == pytest.approx(math.log(4), abs=1e-15)
        assert solve(two_level_spec("low_degeneracy", energy_cap=4)).nu == 1.0

    @pytest.mark.parametrize("regime,kwargs", REGIMES)
    def test_boundary_residuals_and_positivity(self, regime, kwargs):
        rng = np.random.default_rng(17)
        for m in (2, 3):
            for _ in range(5):
                spec = random_spec(rng, regime, m, boundary=True)
                sol = solve(spec)
                assert sol.kind is MaximumKind.BOUNDARY
                assert sol.lam > 0
                assert sol.residual_norm < 1e-10
                assert sol.residual_energy < 1e-10
                assert np.all(np.array(sol.x_star) > 0)

    @pytest.mark.parametrize("regime,kwargs", REGIMES)
    def test_kkt_stationarity(self, regime, kwargs):
        rng = np.random.default_rng(23)
        for m in (2, 3):
            spec = random_spec(rng, regime, m, boundary=True)
            sol = solve(spec)
            assert kkt_stationarity_residual(spec, sol) < 1e-8

    def test_solver_equation_satisfied_at_returned_lambda(self):
        spec = two_level_spec("high_degeneracy")
        sol = solve(spec)
        x = [g * math.exp(-(sol.lam * e + sol.nu))
             for g, e in zip(spec.weights, energies_float(spec))]
        assert float(np.dot(energies_float(spec), x)) == pytest.approx(
            float(spec.energy_cap), abs=1e-10)


class TestMultiplierBehaviour:
    def test_lambda_vanishes_at_threshold(self):
        lam_near = solve(
            two_level_spec("high_degeneracy", energy_cap="1499/1000")).lam
        assert 0 < lam_near < 5e-3

    @pytest.mark.parametrize("regime", ["high_degeneracy", "low_degeneracy"])
    def test_lambda_decreasing_in_cap(self, regime):
        caps = [Fraction(num, 100) for num in range(105, 150, 5)]
        lams = [solve(two_level_spec(regime, energy_cap=cap)).lam
                for cap in caps]
        assert all(b < a for a, b in zip(lams, lams[1:]))

    def test_regime3_lambda_grows_near_floor(self):
        lam_far = solve(two_level_spec("low_degeneracy", energy_cap="14/10")).lam
        lam_near = solve(two_level_spec("low_degeneracy",
                                        energy_cap="101/100")).lam
        assert lam_near > lam_far

    def test_regime2_approaches_regime1_for_large_c(self):
        energies, weights, cap = ["1", "2", "3"], [0.2, 0.5, 0.3], "8/5"
        target = solve(make_spec(energies, weights, cap, "high_degeneracy")).x_star
        gaps = []
        for c in (1.0, 10.0, 100.0):
            x = solve(make_spec(energies, weights, cap, "proportional", c=c)).x_star
            gaps.append(float(np.max(np.abs(np.subtract(x, target)))))
        assert gaps[0] > gaps[1] > gaps[2]


class TestGridOracle:
    def test_interior_recovers_weights(self):
        spec = two_level_spec("high_degeneracy", energy_cap=2)
        best = oracle_grid_maximize(spec, resolution=1000)
        assert np.max(np.abs(best - np.array(spec.weights))) <= 2.0 / 1000.0

    def test_boundary_two_level(self):
        best = oracle_grid_maximize(two_level_spec("high_degeneracy"),
                                    resolution=1000)
        assert np.max(np.abs(best - [0.6, 0.4])) <= 2e-3

    def test_three_level_boundary_at_refined_resolution(self):
        spec = make_spec(["1", "2", "3"], [1 / 3, 1 / 3, 1 / 3], "17/10",
                         "low_degeneracy")
        best = oracle_grid_maximize(spec, resolution=1000)
        assert np.max(np.abs(best - solve(spec).x_star)) <= 1e-4

    def test_oracle_never_beats_solver(self):
        for regime, kwargs in REGIMES:
            spec = two_level_spec(regime, **kwargs)
            best = oracle_grid_maximize(spec, resolution=500)
            assert float(limit_entropy(spec, best)) \
                <= float(limit_entropy(spec, solve(spec).x_star)) + 1e-6

    def test_matches_solver_on_random_specs(self):
        rng = np.random.default_rng(123)
        for regime, kwargs in REGIMES:
            for m, boundary in [(2, True), (3, False), (3, True)]:
                spec = random_spec(rng, regime, m, boundary)
                best = oracle_grid_maximize(spec, resolution=1000)
                sol = solve(spec)
                assert np.max(np.abs(best - sol.x_star)) <= 3.0 / 1000.0

    def test_single_level(self):
        spec = make_spec(["1"], [1.0], 2, "high_degeneracy")
        assert oracle_grid_maximize(spec, 100).tolist() == [1.0]

    def test_preconditions(self):
        spec = two_level_spec("high_degeneracy")
        with pytest.raises(ValueError):
            oracle_grid_maximize(spec, resolution=4000)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       regime=st.sampled_from([r for r, _ in REGIMES]),
       m=st.integers(2, 6), boundary=st.booleans())
# the reference's bisection, stopped at 1e-13 of |alpha| ~ 11, was 2.0e-12
# off here; run to adjacent floats it is 5e-14 off
@example(seed=265252, regime="low_degeneracy", m=2, boundary=True)
def test_solve_matches_numpy_reference(seed, regime, m, boundary):
    # The NumPy solver ran per-regime bisection and Newton paths; the one
    # nested solve agrees with it to the reference's own error.
    spec = random_spec(np.random.default_rng(seed), regime, m, boundary)
    got, want = solve(spec), reference_solve(spec)
    assert got.kind is want.kind
    assert np.max(np.abs(np.subtract(got.x_star, want.x_star))) <= 1e-12
    assert got.lam == pytest.approx(want.lam, rel=1e-10)
    assert got.nu == pytest.approx(want.nu, rel=1e-10)


def extreme_spec(rng, regime, m, near, log10_c):
    """A valid spec at the edge of the admitted inputs: up to 10 levels with
    denominators up to 12, weights down to 1e-3, c from 1e-6 to 1e6, and a
    cap 1e-6 above eps_1 (near="floor") or below the interior threshold."""
    q = int(rng.integers(1, 13))
    numerators = np.sort(rng.choice(np.arange(1, 25), size=m, replace=False))
    energies = [Fraction(int(v), q) for v in numerators]
    weights = 1e-3 + (1.0 - 1e-3 * m) * rng.dirichlet(np.full(m, 0.3))
    kwargs = {"c": 10.0 ** log10_c} if regime == "proportional" else {}
    probe = make_spec(energies, weights, float(energies[-1]) + 1.0, regime,
                      **kwargs)
    cap = (float(energies[0]) + 1e-6 if near == "floor"
           else threshold_energy(probe) - 1e-6)
    return make_spec(energies, weights, cap, regime, **kwargs)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       regime=st.sampled_from([r for r, _ in REGIMES]),
       m=st.integers(2, 10), near=st.sampled_from(["floor", "threshold"]),
       log10_c=st.floats(-6.0, 6.0))
def test_extreme_specs_solve_or_underflow(seed, regime, m, near, log10_c):
    spec = extreme_spec(np.random.default_rng(seed), regime, m, near, log10_c)
    assert classify_maximum(spec) is MaximumKind.BOUNDARY
    try:
        sol = solve(spec)
    except SolverError as exc:
        # x_i = g_i*phi(t_i) > 0 in exact arithmetic: only underflow to 0.0
        # can leave the positive simplex
        assert "positive simplex" in str(exc)
        return
    assert sol.residual_norm <= RESIDUAL_TOL
    assert sol.residual_energy <= RESIDUAL_TOL
    assert kkt_stationarity_residual(spec, sol) < 1e-8


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       regime=st.sampled_from([r for r, _ in REGIMES]),
       m=st.integers(2, 6))
def test_boundary_x_star_matches_50_digit_solve(seed, regime, m):
    mpmath = pytest.importorskip("mpmath")
    spec = random_spec(np.random.default_rng(seed), regime, m, boundary=True)
    sol = solve(spec)
    with mpmath.workdps(50):
        eps = [mpmath.mpf(e.numerator) / e.denominator for e in spec.energies]
        cap = mpmath.mpf(spec.energy_cap.numerator) / spec.energy_cap.denominator
        phi = {"high_degeneracy": lambda t: mpmath.exp(-t),
               "proportional": lambda t: spec.c / mpmath.expm1(t),
               "low_degeneracy": lambda t: 1 / t}[regime]

        def x_of(lam, nu):
            return [g * phi(lam * e + nu) for g, e in zip(spec.weights, eps)]

        # Newton in 50 digits from the returned multipliers; the maximum is
        # unique, so the root it reaches is the exact one
        lam, nu = mpmath.findroot(
            lambda lam, nu: [sum(x_of(lam, nu)) - 1,
                             mpmath.fdot(eps, x_of(lam, nu)) - cap],
            (mpmath.mpf(sol.lam), mpmath.mpf(sol.nu)))
        exact = x_of(lam, nu)
    assert max(abs(float(w - v)) for w, v in zip(exact, sol.x_star)) <= 1e-14


@pytest.mark.parametrize("energies, weights, cap, regime, c", [
    (["1", "2", "3"], [0.3, 0.4, 0.3], "1000001/1000000", "low_degeneracy",
     None),
    (["5/8", "1", "13/8", "53/8"], [0.000998, 0.0565, 0.941504, 0.000998],
     "625001/1000000", "proportional", 1.58e-5),
], ids=["low-cap-near-eps1", "proportional-small-c-tiny-weights"])
def test_cap_near_eps1_solves(energies, weights, cap, regime, c):
    # both left residuals above 1e-10 under the per-regime solvers
    spec = make_spec(energies, weights, cap, regime, c=c)
    sol = solve(spec)
    assert sol.residual_norm <= RESIDUAL_TOL
    assert sol.residual_energy <= RESIDUAL_TOL
    assert kkt_stationarity_residual(spec, sol) < 1e-8


@pytest.mark.parametrize("c", [1e308, 1.7e308, sys.float_info.max])
def test_proportional_c_near_float_max_solves(c):
    # e^t - 1 overflows for t > 709.78, where phi = c/(e^t - 1) was taken as
    # 0.0 although c*e^-t is not small: these raised SolverError
    energies, weights, cap = ["1", "2", "3"], [0.3, 0.4, 0.3], "8/5"
    sol = solve(make_spec(energies, weights, cap, "proportional", c=c))
    assert sol.residual_norm <= RESIDUAL_TOL
    assert sol.residual_energy <= RESIDUAL_TOL
    # c -> infinity is the high-degeneracy law
    limit = solve(make_spec(energies, weights, cap, "high_degeneracy")).x_star
    assert np.max(np.abs(np.subtract(sol.x_star, limit))) <= 1e-12
