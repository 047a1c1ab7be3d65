"""Limiting constrained entropy maximization.

Classifies the maximum as interior (x* = g, cap slack) or boundary (cap
active), and solves for the multipliers (lam, nu) of the stationarity
system in each regime:

    high_degeneracy:  x_i = g_i * exp(-(lam*eps_i + nu))
    proportional:     x_i = g_i * c / (exp(lam*eps_i + nu) - 1)
    low_degeneracy:   x_i = g_i / (lam*eps_i + nu)

subject to sum x_i = 1 and sum eps_i x_i = E.  A brute-force simplex grid
search over the limit entropy provides an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import EnsembleSpec, Regime, SolverError, threshold_energy
from .ensemble import enumerate_states
from .entropy import (
    EntropyModel,
    entropy_model_for,
    limit_entropy,
    limit_entropy_grad,
)

RESIDUAL_TOL = 1e-10
_BISECT_MAX_ITER = 300
_BRACKET_GROWTH_CAP = 200


class MaximumKind(str, Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class MaxEntSolution:
    """Limiting distribution x* with multipliers and maximum-type tag."""

    x_star: np.ndarray
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


def _mb_mean_energy(spec: EnsembleSpec, lam: float) -> float:
    # E(lam) = sum g*eps*exp(-lam*eps) / sum g*exp(-lam*eps), computed with
    # a max shift so large lam (or negative energies) cannot overflow.
    a = -lam * spec.energies_float
    w = spec.weights_array * np.exp(a - a.max())
    return float((spec.energies_float @ w) / w.sum())


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
    a = -lam * spec.energies_float
    shift = float(a.max())
    nu = shift + math.log(float((spec.weights_array * np.exp(a - shift)).sum()))
    return lam, nu


def _zm_mean_energy(spec: EnsembleSpec, alpha: float) -> float:
    # E(alpha) = sum g*eps/(eps+alpha) / sum g/(eps+alpha); strictly
    # increasing on alpha > -eps_1, from eps_1 up to sum g*eps.
    denom = spec.energies_float + alpha
    w = spec.weights_array / denom
    return float((spec.energies_float @ w) / w.sum())


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
    lam = float((spec.weights_array / (spec.energies_float + alpha)).sum())
    nu = lam * alpha
    return lam, nu


def _be_fractions(spec: EnsembleSpec, lam: float, nu: float) -> np.ndarray:
    t = lam * spec.energies_float + nu
    # bracket growth may probe the exponent floor t -> 0+, where the
    # fraction legitimately diverges; comparisons handle the inf
    with np.errstate(divide="ignore", over="ignore"):
        return spec.weights_array * spec.c / np.expm1(t)


def _be_residual(spec: EnsembleSpec, lam: float, nu: float) -> np.ndarray:
    x = _be_fractions(spec, lam, nu)
    return np.array([x.sum() - 1.0,
                     float(spec.energies_float @ x) - float(spec.energy_cap)])


def _be_nu_for_lam(spec: EnsembleSpec, lam: float) -> float:
    # Inner solve of sum x_i = 1 in nu; the sum is strictly decreasing on
    # nu > -lam*eps_1 and covers (0, inf), so the bracket always closes.
    nu_floor = -lam * float(spec.energies[0])

    def total(nu):
        return float(_be_fractions(spec, lam, nu).sum())

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
    gc = spec.weights_array * spec.c
    best = None
    for _ in range(100):
        resid = _be_residual(spec, lam, nu)
        err = float(np.max(np.abs(resid)))
        if best is None or err < best[0]:
            best = (err, lam, nu)
        if err < 1e-13:
            return lam, nu
        x = _be_fractions(spec, lam, nu)
        dx_dnu = -x * (1.0 + x / gc)
        dx_dlam = eps * dx_dnu
        jac = np.array([[dx_dlam.sum(), dx_dnu.sum()],
                        [eps @ dx_dlam, eps @ dx_dnu]])
        try:
            step = np.linalg.solve(jac, -resid)
        except np.linalg.LinAlgError:
            return None
        size = 1.0
        for _ in range(60):
            cand = (lam + size * step[0], nu + size * step[1])
            # stay where every exponent lam*eps_i + nu is positive
            if float(np.min(cand[0] * eps + cand[1])) > 0:
                cand_err = float(np.max(np.abs(_be_residual(spec, *cand))))
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
        x = _be_fractions(spec, lam, _be_nu_for_lam(spec, lam))
        return float(spec.energies_float @ x)

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


def x_star_from_multipliers(spec: EnsembleSpec, lam: float, nu: float) -> np.ndarray:
    """Stationarity solution for the spec's regime at given multipliers."""
    eps = spec.energies_float
    g = spec.weights_array
    if spec.regime is Regime.HIGH_DEGENERACY:
        return g * np.exp(-(lam * eps + nu))
    if spec.regime is Regime.PROPORTIONAL:
        return _be_fractions(spec, lam, nu)
    return g / (lam * eps + nu)


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
        x = spec.weights_array.copy()
        lam, nu = 0.0, _INTERIOR_SOLVERS[spec.regime](spec)
        residual_norm = abs(float(x.sum()) - 1.0)
        residual_energy = None
    else:
        lam, nu = _BOUNDARY_SOLVERS[spec.regime](spec)
        x = x_star_from_multipliers(spec, lam, nu)
        residual_norm = abs(float(x.sum()) - 1.0)
        residual_energy = abs(float(spec.energies_float @ x)
                              - float(spec.energy_cap))
        if residual_norm > RESIDUAL_TOL or residual_energy > RESIDUAL_TOL:
            raise SolverError(
                f"multiplier solve left residuals (|sum x - 1|, |sum eps*x - E|)"
                f" = ({residual_norm:.3e}, {residual_energy:.3e})")
    if np.any(x <= 0.0):
        raise SolverError(f"solution left the positive simplex: {x}")
    x.setflags(write=False)
    return MaxEntSolution(x_star=x, kind=kind, lam=lam, nu=nu,
                          regime=spec.regime, residual_norm=residual_norm,
                          residual_energy=residual_energy)


def kkt_stationarity_residual(spec: EnsembleSpec,
                              sol: MaxEntSolution) -> float:
    """Max-norm of grad s_l(x*) - (lam*eps + nu); ~0 at a valid solution."""
    model = entropy_model_for(spec)
    grad = limit_entropy_grad(model, sol.x_star)
    return float(np.max(np.abs(grad - (sol.lam * spec.energies_float + sol.nu))))


def oracle_grid_maximize(spec: EnsembleSpec, resolution: int = 1000) -> np.ndarray:
    """Brute-force maximizer of s_l over the capped simplex grid.

    Evaluates every feasible grid point {k/resolution} with all k_i >= 1
    (the optimization domain keeps x_i > 0), picks the best, and refines
    once on a 10x finer local subgrid.  Independent of the multiplier
    solvers; intended for verification at m <= 4.
    """
    if spec.m > 4:
        raise ValueError("grid oracle supports m <= 4")
    if resolution > 2000:
        raise ValueError("grid oracle supports resolution <= 2000")
    if math.comb(resolution + spec.m - 1, spec.m - 1) > 50_000_000:
        raise ValueError("grid too large; lower the resolution")
    model = entropy_model_for(spec)
    if spec.m == 1:
        return np.array([1.0])
    states = enumerate_states(spec, resolution, budget=50_000_000)
    states = states[(states >= 1).all(axis=1)]
    if states.shape[0] == 0:
        raise SolverError("no strictly positive feasible grid point; "
                          "resolution too coarse for this spec")
    x = states / resolution
    best = x[int(np.argmax(limit_entropy(model, x)))]
    return _refine_once(spec, model, best, resolution)


def _refine_once(spec: EnsembleSpec, model: EntropyModel, x0: np.ndarray,
                 resolution: int) -> np.ndarray:
    m = spec.m
    sub = 1.0 / (10.0 * resolution)
    offsets = np.stack(np.meshgrid(*([np.arange(-10, 11)] * (m - 1)),
                                   indexing="ij"), axis=-1).reshape(-1, m - 1)
    cand = np.empty((offsets.shape[0], m))
    cand[:, : m - 1] = x0[: m - 1] + offsets * sub
    cand[:, m - 1] = 1.0 - cand[:, : m - 1].sum(axis=1)
    feasible = ((cand > 0.0).all(axis=1)
                & (cand @ spec.energies_float
                   <= float(spec.energy_cap) + 1e-12))
    cand = cand[feasible]
    if cand.shape[0] == 0:
        return x0
    return cand[int(np.argmax(limit_entropy(model, cand)))]
