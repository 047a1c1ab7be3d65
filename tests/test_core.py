import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from occens import (
    EnsembleSpec,
    Regime,
    SpecValidationError,
    degeneracies_for,
    make_spec,
    threshold_energy,
    validate_spec,
)
from helpers import (Occupancy, assert_feasible, fraction_vector, random_spec,
                     reference_degeneracies_for, two_level_spec)


class TestValidation:
    def test_accepts_canonical_instance(self):
        spec = make_spec(["1", "2"], [0.5, 0.5], "7/5", "proportional", c=1.0)
        assert validate_spec(spec) is spec

    def test_rejects_nonmonotone_energies(self):
        with pytest.raises(SpecValidationError, match="strictly increasing"):
            make_spec(["2", "1"], [0.5, 0.5], 3, "proportional", c=1.0)

    def test_rejects_empty_domain(self):
        with pytest.raises(SpecValidationError, match="empty domain"):
            make_spec(["1", "2"], [0.5, 0.5], 0.9, "proportional", c=1.0)

    def test_rejects_weight_sum_mismatch(self):
        with pytest.raises(SpecValidationError, match="weight sum"):
            make_spec(["1", "2"], [0.5, 0.6], 1.4, "proportional", c=1.0)

    def test_rejects_regime_schedule_mismatch(self):
        with pytest.raises(SpecValidationError,
                           match=r"low_degeneracy regime requires p in \(0, 1\)"):
            make_spec(["1", "2"], [0.5, 0.5], 1.4, "low_degeneracy", p=2.0)

    def test_requires_c_for_proportional(self):
        with pytest.raises(SpecValidationError, match="requires c"):
            make_spec(["1", "2"], [0.5, 0.5], 1.4, "proportional")

    def test_reports_every_violation(self):
        spec = EnsembleSpec(
            energies=(Fraction(2), Fraction(1)),
            weights=(0.5, 0.6),
            energy_cap=Fraction(0),
            regime=Regime.HIGH_DEGENERACY,
            p=2.0,
        )
        with pytest.raises(SpecValidationError) as err:
            validate_spec(spec)
        text = str(err.value)
        assert "strictly increasing" in text
        assert "weight sum" in text
        assert "empty domain" in text

    def test_energies_reduced_to_common_denominator(self):
        # q is the common denominator of the heights, here 0 and 1
        spec = make_spec(["2/4", "6/4"], [0.5, 0.5], 2, "proportional", c=1.0)
        assert spec.q == 1
        assert spec.energy_units == (0, 1)  # heights above eps_1

    def test_exact_cap_units(self):
        spec = make_spec(["1", "2"], [0.5, 0.5], "7/5", "proportional", c=1.0)
        # floor(q*(E - eps_1)*N) with q=1, E - eps_1 = 2/5: N=4 -> 1
        assert spec.energy_cap_units(4) == 1
        assert spec.energy_cap_units(5) == 2

    def test_record_is_immutable_and_replace_derives_afresh(self):
        # the derived values are cached on the instance: no attribute may be
        # set over them, and _replace builds a record that derives its own
        spec = make_spec(["1", "2"], [0.5, 0.5], "7/5", "proportional", c=1.0)
        assert (spec.q, spec.energy_units, spec.cap_height) == (
            1, (0, 1), Fraction(2, 5))
        for name, value in [("q", 2), ("energy_cap", 2), ("note", "x")]:
            with pytest.raises(AttributeError):
                setattr(spec, name, value)
        moved = validate_spec(spec._replace(
            energies=(Fraction(1), Fraction(3, 2)), energy_cap=Fraction(5, 4)))
        assert isinstance(moved, EnsembleSpec)
        assert (moved.q, moved.energy_units, moved.cap_height) == (
            2, (0, 1), Fraction(1, 4))
        assert (spec.q, spec.energy_units) == (1, (0, 1))
        assert spec._asdict()["energy_cap"] == Fraction(7, 5)


def _schedule_spec(regime, **kwargs):
    return make_spec(["1", "2"], [0.5, 0.5], 1.4, regime, **kwargs)


class TestSchedules:
    def test_builtin_defaults(self):
        assert _schedule_spec("high_degeneracy").schedule(10) == 100
        assert _schedule_spec("low_degeneracy").schedule(100) == 10
        assert _schedule_spec("proportional", c=1.5).schedule(10) == 15

    def test_rejects_bad_parameters(self):
        with pytest.raises(SpecValidationError):
            _schedule_spec("low_degeneracy", p=-1.0)
        with pytest.raises(SpecValidationError):
            _schedule_spec("proportional")
        with pytest.raises(ValueError):
            _schedule_spec("weird")


class TestRegimeExponent:
    """Each regime is checked by its defining exponent: G(N)/N -> infinity
    for ceil(N**p) iff p > 1, -> 0 iff p < 1, and -> c for ceil(c*N)."""

    @pytest.mark.parametrize("regime, p", [
        ("high_degeneracy", 1.000001), ("high_degeneracy", 1 + 1e-12),
        ("high_degeneracy", 3), ("low_degeneracy", 0.999999),
        ("low_degeneracy", 1 - 1e-12), ("low_degeneracy", 1e-6),
    ])
    def test_exponents_near_one_accepted(self, regime, p):
        spec = _schedule_spec(regime, p=p)
        assert spec.p == p
        assert spec.schedule(7) == math.ceil(7**p)

    @pytest.mark.parametrize("regime, p", [
        ("high_degeneracy", 1), ("high_degeneracy", 1.0),
        ("low_degeneracy", 1), ("low_degeneracy", 1.0),
        ("high_degeneracy", 0.5), ("high_degeneracy", math.inf),
        ("high_degeneracy", math.nan), ("low_degeneracy", 0),
        ("low_degeneracy", -0.5), ("low_degeneracy", 2.0),
    ])
    def test_exponents_outside_regime_rejected(self, regime, p):
        with pytest.raises(SpecValidationError, match=f"{regime} regime requires"):
            _schedule_spec(regime, p=p)

    @pytest.mark.parametrize("c", [0, -1.0, math.inf, math.nan])
    def test_nonpositive_or_infinite_c_rejected(self, c):
        with pytest.raises(SpecValidationError, match="requires c in"):
            _schedule_spec("proportional", c=c)

    def test_integer_exponent_kept_exact(self):
        spec = _schedule_spec("high_degeneracy", p=3)
        assert spec.p == 3 and isinstance(spec.p, int)
        n = 10**6 + 1
        # an exact integer, past 2**53 where the float power rounds
        assert spec.schedule(n) == n**3 != math.ceil(float(n)**3)

    def test_overflowing_exponent_solves_but_cannot_sweep(self, tmp_path,
                                                          capsys):
        from occens.cli import main

        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "energies": ["1", "2", "3"], "weights": [0.25, 0.45, 0.3],
            "energy_cap": "17/10", "regime": "high_degeneracy", "p": 1000,
            "N_list": [10]}))
        assert main(["solve", "--config", str(path)]) == 0
        capsys.readouterr()
        # G(10) = 10**1000 has no float, so no degeneracy split exists
        assert main(["lln-sweep", "--config", str(path)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "numeric"

    def test_huge_integer_exponent_fails_before_the_power(self, tmp_path,
                                                          capsys):
        from occens.cli import main

        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "energies": ["1", "2", "3"], "weights": [0.25, 0.45, 0.3],
            "energy_cap": "17/10", "regime": "high_degeneracy", "p": 10**7,
            "N_list": [10]}))
        start = time.perf_counter()
        # 10**(10**7) would take some 33 Mbit and seconds to build
        assert main(["lln-sweep", "--config", str(path)]) == 1
        assert time.perf_counter() - start < 1.0
        assert json.loads(capsys.readouterr().err)["error"] == "numeric"
        with pytest.raises(OverflowError, match="float range"):
            _schedule_spec("high_degeneracy", p=10**7).schedule(10)


class TestDegeneracies:
    def test_exact_split(self):
        spec = make_spec(["1", "2"], [0.5, 0.5], 1.4, "proportional", c=2.5)
        deg = degeneracies_for(spec, 4)  # G = 10
        assert deg.total == 10
        assert deg.per_level == (5, 5)

    def test_largest_remainder(self):
        spec = make_spec(["1", "2"], [1 / 3, 2 / 3], 1.9, "proportional", c=1.0)
        deg = degeneracies_for(spec, 10)  # G = 10, targets (3.33, 6.67)
        assert deg.per_level == (3, 7)

    def test_too_few_boxes(self):
        spec = make_spec(["1", "2"], [0.5, 0.5], 1.4, "low_degeneracy")
        with pytest.raises(SpecValidationError, match="G\\(N\\)=1 < m=2"):
            degeneracies_for(spec, 1)

    @pytest.mark.parametrize("regime,kwargs", [
        ("high_degeneracy", {}),
        ("proportional", {"c": 1.0}),
        ("low_degeneracy", {}),
    ])
    def test_sum_preserved_and_deterministic(self, regime, kwargs):
        spec = two_level_spec(regime, **kwargs)
        for n in range(1, 10_001):
            total = spec.schedule(n)
            if total < spec.m:
                with pytest.raises(SpecValidationError):
                    degeneracies_for(spec, n)
                continue
            deg = degeneracies_for(spec, n)
            assert deg.total == total
            assert sum(deg.per_level) == total
            assert min(deg.per_level) >= 1
            assert degeneracies_for(spec, n).per_level == deg.per_level

    def test_rounding_bound(self):
        # With tiny G and skewed weights the >=1 floor can push a level more
        # than 1 from its target; that corner must raise rather than return
        # an assignment violating the bound.  Whenever an assignment IS
        # returned the bound holds, and large G never raises.
        rng = np.random.default_rng(5)
        for _ in range(20):
            spec = random_spec(rng, "proportional", 3, boundary=True)
            for n in (7, 33, 101):
                try:
                    deg = degeneracies_for(spec, n)
                except SpecValidationError:
                    assert spec.schedule(n) < 1 / min(spec.weights)
                    continue
                target = np.array(spec.weights) * deg.total
                assert np.max(np.abs(deg.as_array - target)) <= 1.0 + 1e-9
            assert degeneracies_for(spec, 500) is not None


class TestThresholdEnergy:
    def test_hand_values(self):
        assert threshold_energy(two_level_spec("high_degeneracy")) == pytest.approx(1.5, abs=1e-15)
        single = make_spec(["3"], [1.0], 4, "high_degeneracy")
        assert threshold_energy(single) == pytest.approx(3.0, abs=1e-15)
        three = make_spec(["1", "2", "3"], [1 / 3, 1 / 3, 1 / 3], 4, "high_degeneracy")
        assert threshold_energy(three) == pytest.approx(2.0, abs=1e-14)

    def test_strictly_inside_energy_range(self):
        rng = np.random.default_rng(11)
        for m in (2, 3, 4):
            spec = random_spec(rng, "high_degeneracy", m, boundary=False)
            thr = threshold_energy(spec)
            assert float(spec.energies[0]) < thr < float(spec.energies[-1])


class TestOccupancy:
    def test_invariants_on_construction(self):
        occ = Occupancy(4, (3, 1))
        assert occ.total == 4
        with pytest.raises(ValueError, match="sum"):
            Occupancy(4, (3, 2))
        with pytest.raises(ValueError, match="negative"):
            Occupancy(2, (3, -1))
        with pytest.raises(ValueError, match="positive"):
            Occupancy(0, (0, 0))

    def test_energy_feasibility_check(self):
        spec = two_level_spec("proportional")
        assert_feasible(spec, Occupancy(4, (3, 1)))  # energy 5 <= cap 5
        with pytest.raises(ValueError, match="energy cap"):
            assert_feasible(spec, Occupancy(4, (2, 2)))  # energy 6 > cap 5


class TestFractionVector:
    def test_valid_point(self):
        spec = two_level_spec("proportional")
        x = fraction_vector(spec, [0.75, 0.25])
        assert x.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_off_simplex_and_over_cap(self):
        spec = two_level_spec("proportional")
        with pytest.raises(ValueError, match="sum"):
            fraction_vector(spec, [0.7, 0.2])
        with pytest.raises(ValueError, match="exceeds cap"):
            fraction_vector(spec, [0.1, 0.9])  # mean energy 1.9 > 1.4


@st.composite
def weighted_specs(draw):
    """Specs with m <= 6 and weights k_i / sum(k), so remainders can tie."""
    m = draw(st.integers(1, 6))
    ks = draw(st.lists(st.integers(1, 40), min_size=m, max_size=m))
    regime = draw(st.sampled_from(["high_degeneracy", "proportional",
                                   "low_degeneracy"]))
    kwargs = {"c": draw(st.sampled_from([0.5, 1.0, 1.3, 3.0]))} \
        if regime == "proportional" else {}
    weights = [k / sum(ks) for k in ks]
    return make_spec([str(i + 1) for i in range(m)], weights, m + 1, regime,
                     **kwargs)


@settings(max_examples=300, deadline=None)
@given(weighted_specs(), st.integers(1, 3000))
def test_degeneracies_match_numpy_reference(spec, n):
    try:
        want = reference_degeneracies_for(spec, n)
    except SpecValidationError as exc:
        with pytest.raises(SpecValidationError) as err:
            degeneracies_for(spec, n)
        assert str(err.value) == str(exc)
        return
    assert degeneracies_for(spec, n).per_level == want


@settings(max_examples=200, deadline=None)
@given(weighted_specs(), st.floats(1.5, 40.0), st.integers(2, 10**6))
def test_degeneracies_past_float_precision(spec, p, n):
    # Past G(N) = 2**40 the float targets w*G(N) can lose the integer sum,
    # which raised a ValueError from DegeneracyAssignment.  It is a config
    # error now; any split returned sums to G(N) with every G_i >= 1, and is
    # the reference's.
    spec = make_spec(spec.energies, spec.weights, spec.energy_cap,
                     "high_degeneracy", p=p)
    assume(40 * math.log(2) < p * math.log(n) < 700)
    try:
        got = degeneracies_for(spec, n)
    except SpecValidationError:
        return
    assert got.per_level == reference_degeneracies_for(spec, n)
