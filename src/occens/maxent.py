"""Limiting constrained entropy maximization.

Classifies the maximum as interior (x* = g, cap slack) or boundary (cap
active), and solves for the multipliers (lam, nu).  Stationarity has the
same form in every regime,

    x_i = g_i * phi(t_i),   t_i = lam*eps_i + nu,

with phi strictly decreasing:

    high_degeneracy:  phi(t) = exp(-t)
    proportional:     phi(t) = c / (exp(t) - 1)
    low_degeneracy:   phi(t) = 1 / t

subject to sum x_i = 1 and sum eps_i x_i = E.  One nested solve serves all
three regimes.  For fixed lam >= 0, sum x_i = 1 fixes t_1 inside the
closed-form bracket [phi^-1(1/g_1), phi^-1(1)]: x_1 alone is 1 at the lower
end and every x_i <= g_i at the upper end.  The mean energy then falls from
the interior threshold at lam = 0 towards eps_1, which fixes lam.  The
classification, x (from t_i = t_1 + lam*(eps_i - eps_1)) and the residuals
read heights above eps_1, so only nu moves with a common energy shift.
One unchecked root gives (kind, lam, t_1, x): `solve` adds nu and the
checks, and `finite_n_tilt` is the i.i.d. sampler's tilt at N, whose N*x_i
are its level means.  Everything here is arithmetic on m numbers, in plain
Python.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .core import EnsembleSpec, Regime, SolverError, make_spec

RESIDUAL_TOL = 1e-10
_ROOT_MAX_ITER = 300
_BRACKET_GROWTH_CAP = 200


class MaximumKind(str, Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"


class MaxEntSolution(NamedTuple):
    """Limiting distribution x* with multipliers and maximum-type tag."""

    x_star: tuple[float, ...]
    kind: MaximumKind
    lam: float
    nu: float
    regime: Regime
    residual_norm: float
    residual_energy: float | None  # None for interior maxima


def classify_maximum(spec: EnsembleSpec) -> MaximumKind:
    """Interior iff E - eps_1 >= spec.threshold_height within a relative
    1e-12, whatever the energy unit; boundary iff eps_1 < E below that."""
    if not spec.cap_height > 0:
        raise ValueError("empty domain: E <= eps_1")
    if float(spec.cap_height) >= (1.0 - 1e-12) * spec.threshold_height:
        return MaximumKind.INTERIOR
    return MaximumKind.BOUNDARY


def _falling_root(f, lo, hi, f_lo, f_hi):
    """Root of a decreasing f on [lo, hi], given f_lo = f(lo), f_hi = f(hi).

    Bracketed false position with the Illinois modification (Dowell &
    Jarratt, BIT 11, 1971): an end kept twice in a row has its value halved,
    so both ends close in superlinearly.  Returns the evaluated point of
    least |f|, once f is 0 or the bracket is a few ulps wide.
    """
    best = min((abs(f_lo), lo), (abs(f_hi), hi))
    if f_lo <= 0.0 or f_hi >= 0.0:
        return best[1]
    side = 0
    for _ in range(_ROOT_MAX_ITER):
        x = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        if not lo < x < hi or hi - lo <= 4e-16 * max(abs(lo), abs(hi)):
            break
        fx = f(x)
        best = min(best, (abs(fx), x))
        if fx > 0.0:
            lo, f_lo = x, fx
            if side > 0:
                f_hi *= 0.5
            side = 1
        elif fx < 0.0:
            hi, f_hi = x, fx
            if side < 0:
                f_lo *= 0.5
            side = -1
        else:
            break
    return best[1]


def _stationarity(spec: EnsembleSpec):
    """phi for the spec's regime and the bracket [phi^-1(1/g_1), phi^-1(1)]."""
    g1 = spec.weights[0]
    if spec.regime is Regime.HIGH_DEGENERACY:
        return (lambda t: math.exp(-t)), math.log(g1), 0.0
    if spec.regime is Regime.PROPORTIONAL:
        c = spec.c

        def phi(t):
            try:
                return c / math.expm1(t)
            except OverflowError:  # c/(e^t - 1) = c*e^-t/(1 - e^-t)
                return c * math.exp(-t) / -math.expm1(-t)
        return phi, math.log1p(g1 * c), math.log1p(c)
    return (lambda t: 1.0 / t), g1, 1.0


def _maximum(spec: EnsembleSpec):
    """(kind, lam, t_1, x) of the spec's maximum, with x_i = g_i*phi(t_i)
    and t_i = t_1 + lam*h_i, h_i = eps_i - eps_1: the classification, then
    at a boundary maximum the nested solve.  Nothing here checks x."""
    kind = classify_maximum(spec)
    phi, t_lo, t_hi = _stationarity(spec)
    if kind is MaximumKind.INTERIOR:
        # lam = 0 puts t_1 at the bracket's upper end, phi(t_i) = 1
        return kind, 0.0, t_hi, spec.weights
    weights = spec.weights
    gaps = [u / spec.q for u in spec.energy_units]

    def fractions(lam):
        def excess(t1):
            return sum(g * phi(t1 + lam * d) for g, d in zip(weights, gaps)) - 1.0

        t1 = _falling_root(excess, t_lo, t_hi, excess(t_lo), excess(t_hi))
        return t1, tuple(g * phi(t1 + lam * d) for g, d in zip(weights, gaps))

    # E(lam) - E, written as sum (eps_i - eps_1) x_i - (E - eps_1) given
    # sum x_i = 1, so nothing cancels when E is close to eps_1
    target = float(spec.cap_height)

    def surplus(lam):
        return sum(d * v for d, v in zip(gaps, fractions(lam)[1])) - target

    lo, f_lo = 0.0, surplus(0.0)
    hi = 1.0
    for _ in range(_BRACKET_GROWTH_CAP):
        f_hi = surplus(hi)
        if f_hi < 0.0:
            break
        lo, f_lo, hi = hi, f_hi, 2.0 * hi
    else:
        raise SolverError(f"no bracket for lam: E({hi}) - eps_1 still above "
                          f"{target}")
    lam = _falling_root(surplus, lo, hi, f_lo, f_hi)
    return (kind, lam, *fractions(lam))


def solve(spec: EnsembleSpec) -> MaxEntSolution:
    """Limiting distribution x* and multipliers for a validated spec."""
    kind, lam, t1, x = _maximum(spec)
    residual_norm = abs(sum(x) - 1.0)
    residual_energy = None  # None for interior maxima
    if kind is MaximumKind.BOUNDARY:
        residual_energy = abs(sum(u / spec.q * v for u, v in zip(
            spec.energy_units, x)) - float(spec.cap_height))
        if residual_norm > RESIDUAL_TOL or residual_energy > RESIDUAL_TOL:
            raise SolverError(
                f"multiplier solve left residuals (|sum x - 1|, |sum eps*x - E|)"
                f" = ({residual_norm:.3e}, {residual_energy:.3e})")
    if min(x) <= 0.0:
        raise SolverError(f"solution left the positive simplex: {x}")
    return MaxEntSolution(x_star=x, kind=kind, lam=lam,
                          nu=t1 - lam * float(spec.energies[0]),
                          regime=spec.regime, residual_norm=residual_norm,
                          residual_energy=residual_energy)


def finite_n_tilt(spec: EnsembleSpec, n: int, degs):
    """(lam, t, x) of the tilt at N: t_i = lam*h_i + t_1 and x from the root
    of the proportional problem with weights G_i/G(N) and c = G(N)/N."""
    total = sum(degs)
    _, lam, t1, x = _maximum(make_spec(
        spec.energies, [g / total for g in degs], spec.energy_cap,
        Regime.PROPORTIONAL, c=total / n))
    return lam, [lam * (u / spec.q) + t1 for u in spec.energy_units], x
