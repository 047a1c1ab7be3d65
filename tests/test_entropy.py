import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occens import (
    DegeneracyAssignment,
    approximation_error,
    degeneracies_for,
    level_log_weights,
    limit_entropy,
    limit_entropy_hessian_diag,
    scaling_factor,
)
from occens.entropy import log_multiplicity
from occens.core import Regime

from helpers import (Occupancy, _rows_limit_entropy, central_diff,
                     entropy_exact, entropy_spec, limit_entropy_grad,
                     limit_entropy_rows, random_spec,
                     reference_log_multiplicity, stirling_log_gamma,
                     two_level_spec)

EPS = np.finfo(float).eps


class TestLevelLogWeights:
    def test_exact_against_comb(self):
        degs = np.arange(1, 51)
        table = level_log_weights(degs, 50)
        assert table.shape == (50, 51)
        for i, g in enumerate(degs.tolist()):
            for k in range(51):
                exact = math.log(math.comb(k + g - 1, k))
                assert table[i, k] == pytest.approx(exact, rel=1e-14, abs=1e-14)

    def test_against_mpmath_loggamma(self):
        mpmath = pytest.importorskip("mpmath")
        gs = [1, 30_000, 2_500_000, 25_000_000, 100_000_000]
        ks = [1, 2, 10, 1000, 5000]
        table = level_log_weights(gs, max(ks))
        with mpmath.workdps(40):
            for i, g in enumerate(gs):
                for k in ks:
                    exact = (mpmath.loggamma(k + g) - mpmath.loggamma(k + 1)
                             - mpmath.loggamma(g))
                    # G = 1 makes exact zero, so the table must be 0 too
                    assert abs(table[i, k] - exact) <= 1e-13 * abs(exact), (g, k)

    def test_single_box_level_is_zero(self):
        table = level_log_weights([1, 1], 1000)
        assert not table.any()

    def test_zero_column_and_shape(self):
        table = level_log_weights([3, 7, 2], 0)
        assert table.shape == (3, 1)
        assert not table.any()

    def test_rejects_invalid_arguments(self):
        with pytest.raises(ValueError):
            level_log_weights([2, 3], -1)
        with pytest.raises(ValueError):
            level_log_weights([0, 3], 5)
        with pytest.raises(ValueError):
            log_multiplicity([-1, 2], [3, 3])
        with pytest.raises(ValueError, match="2 levels"):
            log_multiplicity([[1, 2, 3]], [3, 3])


class TestStirling:
    def test_matches_exact_at_ten(self):
        # truncation residue at lam=10 is ~2.7e-6 (next series term
        # -139/51840/lam^3); exact value ln 9! = ln 362880
        approx = stirling_log_gamma(10.0, 2)
        exact = math.log(362_880)
        assert exact == pytest.approx(12.80182748, abs=1e-8)
        assert abs(approx - exact) < 3e-6

    def test_order_zero_at_one(self):
        assert abs(stirling_log_gamma(1.0, 0) - 0.0) < 0.09

    def test_series_term_bound(self):
        diff = abs(stirling_log_gamma(100.0, 1) - stirling_log_gamma(100.0, 2))
        assert diff < 2.0 / (288.0 * 100.0**2)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            stirling_log_gamma(0.0, 2)
        with pytest.raises(ValueError):
            stirling_log_gamma(-3.0, 1)
        with pytest.raises(ValueError):
            stirling_log_gamma(5.0, 3)

    def test_agreement_with_table_over_log_sample(self):
        # order-2 series vs ln n! = lgamma(n+1), n log-sampled over [10, 1e6];
        # the truncation residue ~0.00268/(n+1)^3 dominates below n ~ 20, so
        # the smallest point sits near 1.3e-7 relative and the rest are < 1e-8.
        ns = np.unique(np.round(np.logspace(1, 6, 11)).astype(int))
        rel = np.array([
            abs(stirling_log_gamma(float(n + 1), 2) - math.lgamma(n + 1))
            / math.lgamma(n + 1)
            for n in ns
        ])
        assert np.all(rel[ns >= 32] < 1e-8)
        assert rel[0] == pytest.approx(1.33e-7, rel=0.2)


class TestEntropyExact:
    def test_two_level_count(self):
        # C(4,2)*C(2,1) = 6*2 = 12 arrangements
        value = entropy_exact(Occupancy(3, (2, 1)),
                              DegeneracyAssignment(5, (3, 2)))
        assert value == pytest.approx(math.log(12), abs=1e-12)

    def test_empty_counts_vector(self):
        assert log_multiplicity([0, 0, 0], [4, 5, 6]) == 0.0

    def test_single_box_level(self):
        value = entropy_exact(Occupancy(5, (5,)), DegeneracyAssignment(1, (1,)))
        assert value == 0.0

    def test_level_count_mismatch(self):
        with pytest.raises(ValueError):
            entropy_exact(Occupancy(2, (1, 1)), DegeneracyAssignment(3, (3,)))

    def test_permutation_symmetry(self):
        # the terms are added in level order, so reordering the levels
        # moves the sum of m nonnegative terms by 2(m - 1) eps at most
        a = log_multiplicity([4, 2, 4], [3, 5, 3])
        b = log_multiplicity([4, 4, 2], [3, 3, 5])
        assert abs(a - b) <= 2 * 2 * EPS * a

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_matches_level_order_sum(self, m, seed):
        rng = np.random.default_rng(seed)
        degs = rng.integers(1, 10 ** int(rng.integers(1, 9)), size=m)
        counts = rng.integers(0, int(rng.integers(1, 5000)), size=(64, m))
        assert np.array_equal(log_multiplicity(counts, degs),
                              reference_log_multiplicity(counts, degs))

    def test_permutation_symmetry_at_m10(self):
        rng = np.random.default_rng(10)
        degs = rng.integers(1, 10**6, size=10)
        counts = rng.integers(0, 2000, size=(500, 10))
        base = log_multiplicity(counts, degs)
        assert np.array_equal(base, reference_log_multiplicity(counts, degs))
        for _ in range(5):
            perm = rng.permutation(10)
            permuted = log_multiplicity(counts[:, perm], degs[perm])
            assert np.all(np.abs(permuted - base) <= 2 * 9 * EPS * base)

    def test_discrete_concavity_along_each_coordinate(self):
        spec = two_level_spec("proportional", energy_cap=2)
        n = 12
        degs = degeneracies_for(spec, n).as_array  # (6, 6), all >= 2
        for n1 in range(1, n):
            counts = np.array([n1, n - n1])
            for i in range(2):
                up = counts.copy()
                up[i] += 1
                down = counts.copy()
                down[i] -= 1
                second = (log_multiplicity(up, degs)
                          - 2.0 * log_multiplicity(counts, degs)
                          + log_multiplicity(down, degs))
                assert second < 0.0


class TestLimitEntropy:
    def test_single_level_regime1(self):
        spec = entropy_spec(Regime.HIGH_DEGENERACY, (1.0,))
        assert limit_entropy(spec, [1.0]) == pytest.approx(1.0, abs=1e-15)

    def test_zero_component_contributes_nothing(self):
        spec = entropy_spec(Regime.LOW_DEGENERACY, (0.5, 0.5))
        # only the occupied level contributes: 0.5*ln(1) + 0.5
        assert limit_entropy(spec, [1.0, 0.0]) == pytest.approx(0.5, abs=1e-15)

    def test_proportional_zero_component_is_its_limit(self):
        # (x + g c) ln(x + g c) - x ln x tends to g c ln(g c) as x -> 0
        spec = entropy_spec(Regime.PROPORTIONAL, (0.3, 0.4, 0.3), c=1.0)
        at_zero = limit_entropy(spec, [0.4, 0.6, 0.0])
        assert at_zero == pytest.approx(
            limit_entropy(spec, [0.4, 0.6 - 1e-12, 1e-12]), abs=1e-9)
        assert at_zero == pytest.approx(_rows_limit_entropy(
            spec, np.array([[0.4, 0.6, 0.0]]))[0], abs=1e-15)

    def test_proportional_at_weights(self):
        spec = entropy_spec(Regime.PROPORTIONAL, (0.5, 0.5), c=1.0)
        assert limit_entropy(spec, [0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-12)

    def test_vectorized_rows(self):
        spec = entropy_spec(Regime.HIGH_DEGENERACY, (0.5, 0.5))
        rows = np.array([[0.5, 0.5], [0.25, 0.75]])
        vals = limit_entropy_rows(spec, rows)
        assert vals.shape == (2,)
        assert vals[0] == pytest.approx(1.0, abs=1e-12)  # x = g: sum x_i
        assert vals[0] > vals[1]  # maximum at x = g


class TestDerivatives:
    def test_regime1_grad_zero_at_weights(self):
        spec = entropy_spec(Regime.HIGH_DEGENERACY, (0.3, 0.7))
        assert np.allclose(limit_entropy_grad(spec, [0.3, 0.7]), 0.0, atol=1e-15)

    def test_regime1_hessian_value(self):
        spec = entropy_spec(Regime.HIGH_DEGENERACY, (0.5, 0.5))
        assert np.allclose(limit_entropy_hessian_diag(spec, [0.5, 0.5]),
                           [-2.0, -2.0], atol=1e-12)

    def test_regime3_grad_ones_at_weights(self):
        spec = entropy_spec(Regime.LOW_DEGENERACY, (0.2, 0.8))
        assert np.allclose(limit_entropy_grad(spec, [0.2, 0.8]), 1.0, atol=1e-15)

    def test_domain_error_at_zero(self):
        spec = entropy_spec(Regime.HIGH_DEGENERACY, (0.5, 0.5))
        with pytest.raises(ValueError):
            limit_entropy_grad(spec, [1.0, 0.0])
        with pytest.raises(ValueError):
            limit_entropy_hessian_diag(spec, [1.0, 0.0])

    @pytest.mark.parametrize("regime,kwargs", [
        (Regime.HIGH_DEGENERACY, {}),
        (Regime.PROPORTIONAL, {"c": 1.7}),
        (Regime.LOW_DEGENERACY, {}),
    ])
    def test_finite_difference_agreement(self, regime, kwargs):
        rng = np.random.default_rng(42)
        m = 3
        g = np.array([0.2, 0.5, 0.3])
        spec = entropy_spec(regime, tuple(g), **kwargs)
        for _ in range(100):
            x = rng.dirichlet(np.ones(m))
            x = np.clip(x, 0.05, None)
            x = x / x.sum()
            grad = limit_entropy_grad(spec, x)
            hess = limit_entropy_hessian_diag(spec, x)
            assert np.all(np.array(hess) < 0.0)
            for i in range(m):
                fd_grad = central_diff(lambda p: float(limit_entropy(spec, p)),
                                       x, i, 1e-6)
                assert fd_grad == pytest.approx(grad[i], rel=1e-6, abs=1e-9)
                fd_hess = central_diff(
                    lambda p: float(limit_entropy_grad(spec, p)[i]), x, i, 1e-5)
                assert fd_hess == pytest.approx(hess[i], rel=1e-5, abs=1e-8)


class TestScalingFactor:
    def test_regime_prefactors(self):
        assert scaling_factor(two_level_spec("proportional"), 100) == 100.0
        assert scaling_factor(two_level_spec("low_degeneracy"), 100) == 10.0
        assert scaling_factor(two_level_spec("high_degeneracy"), 7) == 7.0


class TestApproximationError:
    def test_zero_at_reference_point(self):
        spec = two_level_spec("proportional")
        assert approximation_error(spec, 100, [0.5, 0.5]) == 0.0

    def test_rejects_non_representable(self):
        spec = two_level_spec("proportional")
        with pytest.raises(ValueError, match="not representable"):
            approximation_error(spec, 10, [0.55, 0.45])

    def test_decay_regime1(self):
        spec = two_level_spec("high_degeneracy")
        errs = [approximation_error(spec, n, [0.6, 0.4]) for n in (50, 100, 200)]
        assert errs[0] > errs[1] > errs[2] > 0.0

    def test_decay_regime2_quadruple(self):
        spec = two_level_spec("proportional")
        assert (approximation_error(spec, 200, [0.6, 0.4])
                < approximation_error(spec, 50, [0.6, 0.4]))

    def test_decay_proportional_zero_coordinate(self):
        # with the zero summand taken as 0 the error settled at
        # -0.3 ln 0.3 = 0.3612 instead of decaying
        spec = entropy_spec(Regime.PROPORTIONAL, (0.3, 0.4, 0.3), c=1.0)
        errs = [approximation_error(spec, n, [0.4, 0.6, 0.0])
                for n in (100, 10**4, 10**6)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-5

    def test_decay_regime3(self):
        spec = two_level_spec("low_degeneracy")
        errs = [approximation_error(spec, n, [0.6, 0.4])
                for n in (25, 100, 400, 1600)]
        assert all(b < a for a, b in zip(errs, errs[1:]))


class TestModelFactory:
    def test_random_interior_hessians_negative(self):
        rng = np.random.default_rng(3)
        for regime in ("high_degeneracy", "proportional", "low_degeneracy"):
            spec = random_spec(rng, regime, 3, boundary=False)
            x = rng.dirichlet(np.ones(3))
            x = np.clip(x, 0.05, None)
            x = x / x.sum()
            assert np.all(np.array(limit_entropy_hessian_diag(spec, x)) < 0.0)
