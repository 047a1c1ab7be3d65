"""Limiting fluctuation laws around the maximum-entropy point.

Interior maxima give a Gaussian law for sqrt(h(N))*(X_N - x*) in the m-1
reduced coordinates (the last fraction is eliminated through the simplex
constraint); its covariance is the inverse negative reduced Hessian of the
limit entropy.  Boundary maxima mix a geometric law across exact
energy-slack layers along the cap normal with a Gaussian in the in-plane
rotated coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EnsembleSpec
from .ensemble import Accumulator, Distribution
from .entropy import limit_entropy_hessian_diag, scaling_factor
from .maxent import MaximumKind, MaxEntSolution, classify_maximum, solve

_ORTHONORMAL_TOL = 1e-12


@dataclass(frozen=True)
class FluctuationPrediction:
    """Predicted limit law: Gaussian block and/or boundary layer ratio."""

    kind: MaximumKind
    covariance: np.ndarray           # (m-1)x(m-1) interior, (m-2)x(m-2) boundary
    layer_log_ratio: float | None = None    # boundary only; negative


def reduced_hessian(spec: EnsembleSpec, x) -> np.ndarray:
    """Hessian of s_l in the m-1 free coordinates after x_m = 1 - sum x_i.

    The full Hessian is diagonal, so eliminating the last coordinate adds
    its (negative) curvature to every entry of the reduced block.
    """
    diag = limit_entropy_hessian_diag(spec, x)
    return np.diag(diag[:-1]) + diag[-1]


def predict_interior(spec: EnsembleSpec) -> FluctuationPrediction:
    """Gaussian covariance (-H_reduced)^-1 at the interior maximum x* = g."""
    if classify_maximum(spec) is not MaximumKind.INTERIOR:
        raise ValueError("wrong kind: boundary instance; use predict_boundary")
    cov = _gaussian_covariance(-reduced_hessian(spec, spec.weights))
    return FluctuationPrediction(kind=MaximumKind.INTERIOR, covariance=cov)


def _gaussian_covariance(precision: np.ndarray) -> np.ndarray:
    """Symmetrized inverse of a precision block, checked positive definite.

    A singular or indefinite block is a numeric failure (ArithmeticError).
    """
    try:
        cov = np.linalg.inv(precision)
        cov = 0.5 * (cov + cov.T)
        definite = not cov.size or np.min(np.linalg.eigvalsh(cov)) > 0.0
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(f"covariance block: {exc}") from exc
    if not definite:
        raise ArithmeticError(f"covariance block not positive definite:\n{cov}")
    cov.setflags(write=False)
    return cov


def rotation_basis(spec: EnsembleSpec) -> np.ndarray:
    """Orthonormal basis of the reduced space, first axis normal to the cap.

    In reduced coordinates the energy hyperplane is
    sum (eps_i - eps_m) x_i = E - eps_m, so the first basis vector is the
    normalized (eps_i - eps_m) direction; the rest come from Gram-Schmidt
    over canonical directions.
    """
    m = spec.m
    w = np.subtract(spec.energies_float[:-1], spec.energies_float[-1])
    norm = float(np.linalg.norm(w))
    if norm < 1e-12:
        raise ValueError("degenerate normal: energies do not separate levels")
    cols = [w / norm]
    for k in range(m - 1):
        if len(cols) == m - 1:
            break
        v = np.zeros(m - 1)
        v[k] = 1.0
        for _ in range(2):  # second pass keeps orthonormality at 1e-12
            for u in cols:
                v = v - (u @ v) * u
        nv = float(np.linalg.norm(v))
        if nv > 1e-8:
            cols.append(v / nv)
    basis = np.column_stack(cols)
    gram_err = float(np.max(np.abs(basis.T @ basis - np.eye(m - 1))))
    if gram_err > _ORTHONORMAL_TOL:
        raise ArithmeticError(f"rotation basis lost orthonormality: {gram_err:.2e}")
    basis.setflags(write=False)
    return basis


def predict_boundary(spec: EnsembleSpec, n: int) -> FluctuationPrediction:
    """Boundary mixture: geometric layer law plus in-plane Gaussian block.

    The log-ratio between adjacent layer masses is the inter-layer step
    along the cap normal times the directional derivative of the scaled
    entropy there; through the stationarity conditions this collapses to
    -lam * d/q * h(N)/N with d = spec.lattice_step.
    """
    if classify_maximum(spec) is not MaximumKind.BOUNDARY:
        raise ValueError("wrong kind: interior instance; use predict_interior")
    sol = solve(spec)
    w = np.subtract(spec.energies_float[:-1], spec.energies_float[-1])
    w_norm = float(np.linalg.norm(w))
    # derivative of s_l along the inward normal; grad s_l(x*) = lam*eps + nu
    s_prime = -sol.lam * w_norm
    step_v1 = spec.lattice_step / (spec.q * n * w_norm)
    layer_log_ratio = scaling_factor(spec, n) * s_prime * step_v1
    if not layer_log_ratio < 0.0:
        raise ArithmeticError(
            f"layer log-ratio {layer_log_ratio} not negative; lam={sol.lam}")
    in_plane = rotation_basis(spec)[:, 1:]  # (1, 0) at m = 2: an empty block
    h_red = reduced_hessian(spec, sol.x_star)
    block = _gaussian_covariance(-(in_plane.T @ h_red @ in_plane))
    return FluctuationPrediction(kind=MaximumKind.BOUNDARY, covariance=block,
                                 layer_log_ratio=layer_log_ratio)


@dataclass(frozen=True)
class FluctuationSummary:
    """Empirical scaled moments of a distribution, exact or sampled.

    Interior: covariance of sqrt(h(N))*(X - x*) in reduced coordinates.
    Boundary: layer masses by ascending slack plus the covariance of the
    sqrt(h(N))-scaled in-plane rotated coordinates.
    """

    kind: MaximumKind
    scaled_covariance: np.ndarray
    layer_slacks: tuple[int, ...] | None = None
    layer_masses: np.ndarray | None = None


def fluctuation_accumulator(spec: EnsembleSpec, n: int,
                            sol: MaxEntSolution) -> Accumulator:
    """Sums for the scaled moments at N, centred at x*: the k = m-1 reduced
    coordinates sqrt(h(N))*(X - x*) at an interior maximum; at a boundary
    maximum the m-2 in-plane rotated ones, and the slack layers."""
    k = spec.m - 1
    boundary = sol.kind is MaximumKind.BOUNDARY
    block = rotation_basis(spec)[:, 1:] if boundary else np.eye(k)
    basis = np.zeros((spec.m, block.shape[1]))  # no row for x_m: reduced
    basis[:k] = math.sqrt(scaling_factor(spec, n)) * block
    return Accumulator(spec, n, centre=sol.x_star, basis=basis,
                       covariance=True, layers=boundary)


def fluctuation_summary(acc: Accumulator,
                        sol: MaxEntSolution) -> FluctuationSummary:
    """The scaled moments held by a fluctuation_accumulator."""
    cov = acc.covariance()
    if sol.kind is MaximumKind.INTERIOR:
        return FluctuationSummary(kind=sol.kind, scaled_covariance=cov)
    layers = acc.layers()
    return FluctuationSummary(kind=sol.kind, scaled_covariance=cov,
                              layer_slacks=layers.slacks,
                              layer_masses=layers.masses)


def empirical_fluctuations(dist: Distribution, sol: MaxEntSolution,
                           spec: EnsembleSpec) -> FluctuationSummary:
    """Scaled empirical moments matching the prediction conventions."""
    acc = fluctuation_accumulator(spec, dist.n, sol)
    acc.add(dist.counts, dist.pmf)
    return fluctuation_summary(acc, sol)
