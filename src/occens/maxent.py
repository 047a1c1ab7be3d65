"""Limiting constrained entropy maximization.

Classifies the maximum as interior (x* = g, cap slack) or boundary (cap
active), and solves for the multipliers (lam, nu) of the stationarity
system in each regime:

    high_degeneracy:  x_i = g_i * exp(-(lam*eps_i + nu))
    proportional:     x_i = g_i * c / (exp(lam*eps_i + nu) - 1)
    low_degeneracy:   x_i = g_i / (lam*eps_i + nu)

subject to sum x_i = 1 and sum eps_i x_i = E.  Everything here is
arithmetic on m numbers, in plain Python.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .core import EnsembleSpec, Regime, SolverError, threshold_energy

RESIDUAL_TOL = 1e-10
_BISECT_MAX_ITER = 300
_BRACKET_GROWTH_CAP = 200


class MaximumKind(str, Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class MaxEntSolution:
    """Limiting distribution x* with multipliers and maximum-type tag."""

    x_star: tuple[float, ...]
    kind: MaximumKind
    lam: float
    nu: float
    regime: Regime
    residual_norm: float
    residual_energy: float | None  # None for interior maxima


def classify_maximum(spec: EnsembleSpec) -> MaximumKind:
    """Interior iff E >= sum(g_i*eps_i); boundary iff eps_1 < E below that."""
    if not spec.energy_cap > spec.energies[0]:
        raise ValueError("empty domain: E <= eps_1")
    threshold = threshold_energy(spec)
    if float(spec.energy_cap) >= threshold - 1e-12 * max(1.0, abs(threshold)):
        return MaximumKind.INTERIOR
    return MaximumKind.BOUNDARY


def _bisect_monotone(f, target, lo, hi, increasing, xtol=1e-13):
    """Solve f(x) = target for monotone f on a valid bracket [lo, hi]."""
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = f(mid)
        if fm == target:
            return mid
        if (fm > target) == increasing:
            hi = mid
        else:
            lo = mid
        if hi - lo < xtol * max(1.0, abs(lo), abs(hi)):
            break
    return 0.5 * (lo + hi)


def _require_boundary(spec: EnsembleSpec) -> None:
    if classify_maximum(spec) is not MaximumKind.BOUNDARY:
        raise ValueError("not a boundary instance: E >= sum(g_i*eps_i)")


def _dot(a, b) -> float:
    return sum(u * v for u, v in zip(a, b))


def _mb_mean_energy(spec: EnsembleSpec, lam: float) -> float:
    # E(lam) = sum g*eps*exp(-lam*eps) / sum g*exp(-lam*eps), computed with
    # a max shift so large lam (or negative energies) cannot overflow.
    eps = spec.energies_float
    shift = max(-lam * e for e in eps)
    w = [g * math.exp(-lam * e - shift) for g, e in zip(spec.weights, eps)]
    return _dot(eps, w) / sum(w)


def solve_regime1_multipliers(spec: EnsembleSpec) -> tuple[float, float]:
    """Multipliers for the high-degeneracy boundary case.

    E(lam) is strictly decreasing, so lam comes from bisection on a bracket
    grown geometrically from [0, 1]; nu then has the closed form
    ln sum g_i exp(-lam*eps_i).
    """
    _require_boundary(spec)
    target = float(spec.energy_cap)
    hi = 1.0
    for _ in range(_BRACKET_GROWTH_CAP):
        if _mb_mean_energy(spec, hi) < target:
            break
        hi *= 2.0
    else:
        raise SolverError(f"no bracket for lam: E({hi}) still above {target}")
    lam = _bisect_monotone(lambda t: _mb_mean_energy(spec, t), target,
                           0.0, hi, increasing=False)
    shift = max(-lam * e for e in spec.energies_float)
    nu = shift + math.log(sum(g * math.exp(-lam * e - shift)
                              for g, e in zip(spec.weights, spec.energies_float)))
    return lam, nu


def _zm_mean_energy(spec: EnsembleSpec, alpha: float) -> float:
    # E(alpha) = sum g*eps/(eps+alpha) / sum g/(eps+alpha); strictly
    # increasing on alpha > -eps_1, from eps_1 up to sum g*eps.
    w = [g / (e + alpha) for g, e in zip(spec.weights, spec.energies_float)]
    return _dot(spec.energies_float, w) / sum(w)


def solve_regime3_multipliers(spec: EnsembleSpec) -> tuple[float, float]:
    """Multipliers for the low-degeneracy boundary case via nu = lam*alpha.

    The substitution reduces the system to one monotone equation E(alpha)
    on (-eps_1, inf); lam = sum g_i/(eps_i+alpha) then makes sum x_i = 1
    exact by construction, and lam*eps_i + nu = lam*(eps_i+alpha) > 0.
    """
    _require_boundary(spec)
    target = float(spec.energy_cap)
    eps1 = float(spec.energies[0])
    scale = max(1.0, abs(eps1))
    delta = scale
    for _ in range(_BRACKET_GROWTH_CAP):
        if _zm_mean_energy(spec, -eps1 + delta) < target:
            break
        delta *= 0.25
    else:
        raise SolverError("no lower bracket for alpha near -eps_1")
    lo = -eps1 + delta
    hi = max(lo, scale)
    for _ in range(_BRACKET_GROWTH_CAP):
        if _zm_mean_energy(spec, hi) > target:
            break
        hi = hi * 4.0 + scale
    else:
        raise SolverError(f"no upper bracket for alpha: E({hi}) below {target}")
    alpha = _bisect_monotone(lambda a: _zm_mean_energy(spec, a), target,
                             lo, hi, increasing=True)
    lam = sum(g / (e + alpha) for g, e in zip(spec.weights, spec.energies_float))
    nu = lam * alpha
    return lam, nu


def _be_fractions(spec: EnsembleSpec, lam: float, nu: float) -> list[float]:
    # bracket growth may probe the exponent floor t -> 0+, where the
    # fraction legitimately diverges; comparisons handle the inf
    return [_be_fraction(g * spec.c, lam * e + nu)
            for g, e in zip(spec.weights, spec.energies_float)]


def _be_fraction(gc: float, t: float) -> float:
    try:
        d = math.expm1(t)
    except OverflowError:
        return 0.0
    return gc / d if d else math.inf


def _be_residual(spec: EnsembleSpec, lam: float, nu: float) -> tuple[float, float]:
    x = _be_fractions(spec, lam, nu)
    return sum(x) - 1.0, _dot(spec.energies_float, x) - float(spec.energy_cap)


def _be_nu_for_lam(spec: EnsembleSpec, lam: float) -> float:
    # Inner solve of sum x_i = 1 in nu; the sum is strictly decreasing on
    # nu > -lam*eps_1 and covers (0, inf), so the bracket always closes.
    nu_floor = -lam * float(spec.energies[0])

    def total(nu):
        return sum(_be_fractions(spec, lam, nu))

    delta = 1.0
    for _ in range(_BRACKET_GROWTH_CAP):
        if total(nu_floor + delta) > 1.0:
            break
        delta *= 0.25
    else:
        raise SolverError("inner nu bracket failed near nu -> -lam*eps_1")
    lo = nu_floor + delta
    hi = lo + 1.0
    for _ in range(_BRACKET_GROWTH_CAP):
        if total(hi) < 1.0:
            break
        hi = 2.0 * hi - nu_floor
    else:
        raise SolverError("inner nu bracket failed for large nu")
    return _bisect_monotone(total, 1.0, lo, hi, increasing=False)


def _be_newton(spec: EnsembleSpec, lam: float, nu: float):
    eps = spec.energies_float
    gcs = [g * spec.c for g in spec.weights]
    for _ in range(100):
        r_norm, r_energy = _be_residual(spec, lam, nu)
        err = max(abs(r_norm), abs(r_energy))
        if err < 1e-13:
            return lam, nu
        x = _be_fractions(spec, lam, nu)
        dx_dnu = [-v * (1.0 + v / gc) for v, gc in zip(x, gcs)]
        # Jacobian [[a, b], [c, d]] of the residual in (lam, nu); the 2x2
        # Newton step solves it by Cramer's rule.
        b = sum(dx_dnu)
        a = d = _dot(eps, dx_dnu)
        c = _dot(eps, [e * v for e, v in zip(eps, dx_dnu)])
        det = a * d - b * c
        if det == 0.0:
            return None
        step = ((b * r_energy - d * r_norm) / det,
                (c * r_norm - a * r_energy) / det)
        size = 1.0
        for _ in range(60):
            cand = (lam + size * step[0], nu + size * step[1])
            # stay where every exponent lam*eps_i + nu is positive
            if min(cand[0] * e + cand[1] for e in eps) > 0:
                cand_err = max(map(abs, _be_residual(spec, *cand)))
                if cand_err < err:
                    lam, nu = cand
                    break
            size *= 0.5
        else:
            return None
    return None


def solve_regime2_multipliers(spec: EnsembleSpec,
                              initial: tuple[float, float] | None = None
                              ) -> tuple[float, float]:
    """Multipliers for the proportional boundary case.

    The two multipliers cannot be factorized, so the 2-D root of
    (sum x - 1, sum eps*x - E) is found by damped Newton with the analytic
    Jacobian; if Newton stalls, a nested bisection (outer lam, inner nu
    from the monotone normalization equation) recovers the unique root.
    """
    _require_boundary(spec)
    if initial is None:
        lam0, _ = solve_regime1_multipliers(spec)
        initial = (lam0, _be_nu_for_lam(spec, lam0))
    result = _be_newton(spec, *initial)
    if result is not None:
        return result

    target = float(spec.energy_cap)

    def mean_energy(lam):
        return _dot(spec.energies_float,
                    _be_fractions(spec, lam, _be_nu_for_lam(spec, lam)))

    lo = 1e-12
    hi = 1.0
    for _ in range(_BRACKET_GROWTH_CAP):
        if mean_energy(hi) < target:
            break
        hi *= 2.0
    else:
        raise SolverError(
            f"regime-2 fallback found no bracket; residual at lam={hi}: "
            f"{_be_residual(spec, hi, _be_nu_for_lam(spec, hi))}")
    lam = _bisect_monotone(mean_energy, target, lo, hi, increasing=False)
    nu = _be_nu_for_lam(spec, lam)
    # Polish the bisection estimate; keep it if Newton declines to improve.
    polished = _be_newton(spec, lam, nu)
    return polished if polished is not None else (lam, nu)


def x_star_from_multipliers(spec: EnsembleSpec, lam: float,
                            nu: float) -> tuple[float, ...]:
    """Stationarity solution for the spec's regime at given multipliers."""
    pairs = zip(spec.weights, spec.energies_float)
    if spec.regime is Regime.HIGH_DEGENERACY:
        return tuple(g * math.exp(-(lam * e + nu)) for g, e in pairs)
    if spec.regime is Regime.PROPORTIONAL:
        return tuple(_be_fractions(spec, lam, nu))
    return tuple(g / (lam * e + nu) for g, e in pairs)


_INTERIOR_SOLVERS = {
    Regime.HIGH_DEGENERACY: lambda spec: 0.0,
    Regime.PROPORTIONAL: lambda spec: math.log1p(spec.c),
    Regime.LOW_DEGENERACY: lambda spec: 1.0,
}

_BOUNDARY_SOLVERS = {
    Regime.HIGH_DEGENERACY: solve_regime1_multipliers,
    Regime.PROPORTIONAL: solve_regime2_multipliers,
    Regime.LOW_DEGENERACY: solve_regime3_multipliers,
}


def solve(spec: EnsembleSpec) -> MaxEntSolution:
    """Limiting distribution x* and multipliers for a validated spec."""
    kind = classify_maximum(spec)
    if kind is MaximumKind.INTERIOR:
        x = spec.weights
        lam, nu = 0.0, _INTERIOR_SOLVERS[spec.regime](spec)
        residual_norm = abs(sum(x) - 1.0)
        residual_energy = None
    else:
        lam, nu = _BOUNDARY_SOLVERS[spec.regime](spec)
        x = x_star_from_multipliers(spec, lam, nu)
        residual_norm = abs(sum(x) - 1.0)
        residual_energy = abs(_dot(spec.energies_float, x)
                              - float(spec.energy_cap))
        if residual_norm > RESIDUAL_TOL or residual_energy > RESIDUAL_TOL:
            raise SolverError(
                f"multiplier solve left residuals (|sum x - 1|, |sum eps*x - E|)"
                f" = ({residual_norm:.3e}, {residual_energy:.3e})")
    if min(x) <= 0.0:
        raise SolverError(f"solution left the positive simplex: {x}")
    return MaxEntSolution(x_star=x, kind=kind, lam=lam, nu=nu,
                          regime=spec.regime, residual_norm=residual_norm,
                          residual_energy=residual_energy)
