"""Problem-instance definition, validation, and shared lattice primitives.

An instance is a fixed set of m energy levels with strictly increasing
rational energies, level weights g_i summing to 1, a per-particle energy
cap E, and a total degeneracy G(N) whose growth regime selects which
limiting statistics apply.  Energies are exact rationals, read everywhere
but in solve's nu and threshold_energy as integer heights above eps_1.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Sequence

WEIGHT_SUM_TOL = 1e-12
DEFAULT_STATE_BUDGET = 10_000_000
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


class Regime(str, Enum):
    """Asymptotic behaviour of G(N)/N."""

    HIGH_DEGENERACY = "high_degeneracy"  # G(N)/N -> infinity
    PROPORTIONAL = "proportional"        # G(N)/N -> c > 0
    LOW_DEGENERACY = "low_degeneracy"    # G(N)/N -> 0


class SpecValidationError(ValueError):
    """An ensemble spec violates one or more invariants (all reported)."""

    def __init__(self, violations: Sequence[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class EnumerationBudgetError(RuntimeError):
    """State space too large to enumerate; use the sampler module."""


class SolverError(RuntimeError):
    """A numeric solver failed to converge within its iteration cap."""


class _SpecFields(NamedTuple):
    energies: tuple[Fraction, ...]
    weights: tuple[float, ...]
    energy_cap: Fraction
    regime: Regime
    c: float | None = None
    p: float | None = None


class EnsembleSpec(_SpecFields):
    """A bounded-energy occupancy ensemble instance.

    energies are exact Fractions (strictly increasing), weights are reals in
    (0, 1] summing to 1, energy_cap is the per-particle cap E as a Fraction.
    The total degeneracy is G(N) = ceil(c*N) in the proportional regime and
    G(N) = ceil(N**p) in the other two.  The fields are a NamedTuple's;
    this subclass keeps an instance dict, where the derived values below
    are cached on first read.
    """

    def __setattr__(self, name, value):
        # cached_property writes the instance dict directly; a set attribute
        # could only shadow a cached value, so none is allowed
        raise AttributeError(f"EnsembleSpec is immutable, cannot set {name!r}; "
                             f"build another with _replace")

    @property
    def m(self) -> int:
        return len(self.energies)

    @cached_property
    def q(self) -> int:
        """Least common denominator of the heights eps_i - eps_1."""
        q = 1
        for e in self.energies:
            d = (e - self.energies[0]).denominator
            q = q * d // math.gcd(q, d)
        return q

    @cached_property
    def energy_units(self) -> tuple[int, ...]:
        """Heights eps_i - eps_1 in 1/q units; a height u is the float u/q."""
        return tuple(int((e - self.energies[0]) * self.q) for e in self.energies)

    @cached_property
    def cap_height(self) -> Fraction:
        """The cap's height E - eps_1 above the lowest level."""
        return self.energy_cap - self.energies[0]

    @cached_property
    def threshold_height(self) -> float:
        """Mean height sum g_i*(eps_i - eps_1) at x = g, where a cap height
        turns from boundary to interior maxima."""
        return sum(g * (u / self.q) for g, u in zip(self.weights,
                                                    self.energy_units))

    @cached_property
    def lattice_step(self) -> int:
        """Spacing d of the total heights realized at fixed N, in 1/q units:
        moving a particle between levels changes the total by a difference
        of heights, a multiple of their gcd; 1 when m = 1."""
        return math.gcd(*self.energy_units[1:]) or 1

    def energy_cap_units(self, n: int) -> int:
        """Integer cap height floor(q*(E - eps_1)*N); ties are included."""
        return math.floor(self.q * self.cap_height * n)

    def energy_bound_units(self, n: int) -> int:
        """The bound at N that int64 arithmetic over states uses:
        energy_cap_units(n), clamped to the top height q*(eps_m - eps_1)*N,
        which bounds every int64 value of the walk, the slack keys and the
        i.i.d. draws; OverflowError when it passes int64."""
        top = self.energy_units[-1] * n
        if top >= 2**63:
            raise OverflowError(f"N*q*(eps_m - eps_1) = {top} overflows int64")
        return min(self.energy_cap_units(n), top)

    def schedule(self, n: int) -> int:
        """Total degeneracy G(N); OverflowError if it has no float."""
        if n < 1:
            raise ValueError(f"N must be >= 1, got {n}")
        if self.regime is Regime.PROPORTIONAL:
            return math.ceil(self.c * n)
        # checked first: an integer p builds the exact power, p*log2(N) bits
        if self.p * math.log(n) > _LOG_FLOAT_MAX:
            raise OverflowError(f"G(N) = ceil(N**p) exceeds the float range "
                                f"at N={n}, p={self.p}")
        return math.ceil(n**self.p)


def has_finite_float(value) -> bool:
    """True iff float(value) is finite; an int or Fraction past the float
    range has none."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def make_spec(energies, weights, energy_cap, regime, c=None,
              p=None) -> EnsembleSpec:
    """Build and validate an EnsembleSpec from loosely-typed inputs.

    p defaults to 2 (high_degeneracy) or 1/2 (low_degeneracy) and is kept as
    given, so an integer p gives exact integer powers.
    """
    regime = Regime(regime)
    if p is None:
        p = {Regime.HIGH_DEGENERACY: 2.0, Regime.LOW_DEGENERACY: 0.5}.get(regime)
    # Strings ("3/2", "1.4") are parsed exactly; floats keep their binary value.
    energies = tuple(Fraction(e) for e in energies)
    weights = tuple(float(w) for w in weights)
    spec = EnsembleSpec(
        energies=energies,
        weights=weights,
        energy_cap=Fraction(energy_cap),
        regime=regime,
        c=float(c) if c is not None else None,
        p=p,
    )
    return validate_spec(spec)


def validate_spec(spec: EnsembleSpec) -> EnsembleSpec:
    """Return the spec iff every invariant holds, else report all violations."""
    violations = []
    m = spec.m
    if m < 1:
        raise SpecValidationError(["m must be >= 1"])
    if len(spec.weights) != m:
        violations.append(
            f"weights length {len(spec.weights)} != energies length {m}")
    for a, b in zip(spec.energies, spec.energies[1:]):
        if not a < b:
            violations.append("energies not strictly increasing")
            break
    if any(not (0.0 < w <= 1.0) for w in spec.weights):
        violations.append("weights must lie in (0, 1]")
    elif abs(math.fsum(spec.weights) - 1.0) > WEIGHT_SUM_TOL:
        violations.append(
            f"weight sum {math.fsum(spec.weights)!r} differs from 1 "
            f"by more than {WEIGHT_SUM_TOL}")
    if not all(map(has_finite_float, (*spec.energies, spec.energy_cap))):
        violations.append("energies and energy_cap must be finite as floats")
    if not spec.energy_cap > spec.energies[0]:
        violations.append("empty domain: E <= eps_1")
    # The regime is the limit of G(N)/N: c for ceil(c*N); for ceil(N**p),
    # infinity when p > 1 and 0 when p < 1.
    name, low, high = {Regime.HIGH_DEGENERACY: ("p", 1, math.inf),
                       Regime.PROPORTIONAL: ("c", 0, math.inf),
                       Regime.LOW_DEGENERACY: ("p", 0, 1)}[spec.regime]
    value = getattr(spec, name)
    if value is None or not low < value < high:
        violations.append(f"{spec.regime.value} regime requires {name} in "
                          f"({low}, {high}), got {value!r}")
    elif name == "c" and value < sys.float_info.min:
        # a subnormal c underflows phi(t) = c/(e^t - 1) in the solver
        violations.append(f"c must be at least {sys.float_info.min!r}, the "
                          f"least normal float, got {value!r}")
    if violations:
        raise SpecValidationError(violations)
    return spec


class DegeneracyAssignment(NamedTuple):
    """Per-level degeneracies G_1..G_m summing to G(N)."""

    total: int
    per_level: tuple[int, ...]

    @property
    def as_array(self):
        """per_level as an int64 NumPy array, for the array side."""
        import numpy as np
        return np.array(self.per_level, dtype=np.int64)


def degeneracies_for(spec: EnsembleSpec, n: int) -> DegeneracyAssignment:
    """Split G(N) over levels as G_i ~ g_i*G(N) by largest-remainder rounding.

    Every G_i is floored at 1 and the exact sum G(N) is preserved.
    """
    total = spec.schedule(n)
    m = spec.m
    if total < m:
        raise SpecValidationError(
            [f"schedule yields G(N)={total} < m={m} at N={n}"])
    target = [w * total for w in spec.weights]
    base = [math.floor(t) for t in target]
    short = total - sum(base)
    if not 0 <= short <= m:
        # the targets w*G(N) are floats: past 2**53, or sooner when the
        # weights sum to 1 only within WEIGHT_SUM_TOL, their floors can
        # miss G(N) by more than the m units the rounding hands out
        raise SpecValidationError(
            [f"degeneracy split of G(N)={total} at N={n} lost its sum to "
             f"float rounding (the floors of w*G(N) sum to {sum(base)}); "
             f"G(N) is too large for the weights"])
    # Stable sort on descending remainder keeps rounding deterministic.
    order = sorted(range(m), key=lambda i: base[i] - target[i])
    for i in order[:short]:
        base[i] += 1
    while 0 in base:
        base[base.index(max(base))] -= 1
        base[base.index(min(base))] += 1
    assignment = DegeneracyAssignment(total=total, per_level=tuple(base))
    drift = max(abs(b - t) for b, t in zip(base, target))
    if drift > 1.0 + 1e-9:
        raise SpecValidationError(
            [f"degeneracy rounding drift {drift:.3f} exceeds 1 at N={n}; "
             f"weights too small for G(N)={total}"])
    return assignment


def threshold_energy(spec: EnsembleSpec) -> float:
    """Energy eps_1 + threshold_height separating interior from boundary.

    At or above this value the limiting distribution sits at x* = g strictly
    inside the energy cap; below it the cap is active.
    """
    return float(spec.energies[0]) + spec.threshold_height
