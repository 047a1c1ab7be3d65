"""Limiting fluctuation laws around the maximum-entropy point.

Interior maxima give a Gaussian law for sqrt(h(N))*(X_N - x*) in the m-1
reduced coordinates (the last fraction is eliminated through the simplex
constraint); its covariance is the inverse negative reduced Hessian of the
limit entropy.  Boundary maxima mix a geometric law across exact
energy-slack layers along the cap normal with a Gaussian in the in-plane
rotated coordinates.  Both Gaussian blocks are computed in plain Python.
The empirical side is read straight off an Accumulator over the same
scaled coordinates (and the slack layers at a boundary maximum).
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .core import EnsembleSpec
from .ensemble import Accumulator, Distribution
from .entropy import limit_entropy_hessian_diag, scaling_factor
from .maxent import MaximumKind, MaxEntSolution, classify_maximum, solve

_ORTHONORMAL_TOL = 1e-12
_EPS = sys.float_info.epsilon
# The largest relative error, estimated as condition estimate times eps,
# that a predicted covariance block may carry.
CONDITION_LIMIT = 1e-8


class FluctuationPrediction(NamedTuple):
    """Predicted limit law: Gaussian block and/or boundary layer ratio."""

    kind: MaximumKind
    covariance: np.ndarray           # (m-1)x(m-1) interior, (m-2)x(m-2) boundary
    layer_log_ratio: float | None = None    # boundary only; negative


def _gaussian_block(spec: EnsembleSpec, x, axes) -> np.ndarray:
    """Covariance (B^T P B)^-1 over the reduced directions B = `axes`, each
    a list of m-1 numbers.  P = diag(a) + b*11^T is minus the reduced
    Hessian of s_l at x: a_i = -s''_i for i < m and b = -s''_m.  A Cholesky
    pivot that is not positive raises ArithmeticError, and so does a block
    whose condition estimate, the squared ratio of its largest to its
    smallest pivot (at most its condition number), passes
    CONDITION_LIMIT/eps: its inverse is not held to 1e-8."""
    *a, b = (-h for h in limit_entropy_hessian_diag(spec, x))
    sums = [math.fsum(u) for u in axes]
    low = []  # the Cholesky factor of B^T P B, row by row
    for i, (u, su) in enumerate(zip(axes, sums)):
        low.append([])
        for j, (v, sv) in enumerate(zip(axes[:i + 1], sums)):
            r = math.fsum([b * su * sv,
                           *(ai * ui * vi for ai, ui, vi in zip(a, u, v)),
                           *(-p * q for p, q in zip(low[i], low[j]))])
            if j < i:
                low[i].append(r / low[j][j])
            elif r > 0.0:
                low[i].append(math.sqrt(r))
            else:
                raise ArithmeticError(
                    f"covariance block not positive definite: pivot {r}")
    pivots = [row[i] for i, row in enumerate(low)]
    if pivots and (kappa := (max(pivots) / min(pivots)) ** 2) * _EPS > \
            CONDITION_LIMIT:
        raise ArithmeticError(
            f"covariance block ill-conditioned: pivot condition estimate "
            f"{kappa:.3e} times eps exceeds {CONDITION_LIMIT}")
    inv = []  # the inverse of the factor, row by row
    for i, row in enumerate(low):
        inv.append([(float(i == j) - math.fsum(
            row[t] * inv[t][j] for t in range(j, i))) / row[i]
            for j in range(i + 1)])
    k = len(axes)
    cov = np.array([[math.fsum(r[i] * r[j] for r in inv[max(i, j):])
                     for j in range(k)] for i in range(k)]).reshape(k, k)
    cov.setflags(write=False)
    return cov


def predict_interior(spec: EnsembleSpec) -> FluctuationPrediction:
    """Gaussian covariance (-H_reduced)^-1 at the interior maximum x* = g."""
    if classify_maximum(spec) is not MaximumKind.INTERIOR:
        raise ValueError("wrong kind: boundary instance; use predict_boundary")
    block = _gaussian_block(spec, spec.weights, np.eye(spec.m - 1).tolist())
    return FluctuationPrediction(kind=MaximumKind.INTERIOR, covariance=block)


def _dot(u, v) -> float:
    return math.fsum(a * b for a, b in zip(u, v))


def rotation_basis(spec: EnsembleSpec) -> np.ndarray:
    """Orthonormal basis of the reduced space, first axis normal to the cap.

    In reduced coordinates the energy hyperplane is
    sum (eps_i - eps_m) x_i = E - eps_m, so the first basis vector is the
    normalized (eps_i - eps_m) direction, read off the integer heights; the
    rest come from Gram-Schmidt over canonical directions.
    """
    m, e = spec.m, spec.energy_units
    w = [(u - e[-1]) / spec.q for u in e[:-1]]
    norm = math.sqrt(_dot(w, w))
    if norm < 1e-12:
        raise ValueError("degenerate normal: energies do not separate levels")
    cols = [[v / norm for v in w]]
    for k in range(m - 1):
        if len(cols) == m - 1:
            break
        v = [float(i == k) for i in range(m - 1)]
        for _ in range(2):  # second pass keeps orthonormality at 1e-12
            for u in cols:
                c = _dot(u, v)
                v = [vi - c * ui for vi, ui in zip(v, u)]
        nv = math.sqrt(_dot(v, v))
        if nv > 1e-8:
            cols.append([vi / nv for vi in v])
    gram_err = max(abs(_dot(u, v) - (i == j)) for i, u in enumerate(cols)
                   for j, v in enumerate(cols))
    if gram_err > _ORTHONORMAL_TOL:
        raise ArithmeticError(f"rotation basis lost orthonormality: {gram_err:.2e}")
    basis = np.column_stack(cols)
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
    layer_log_ratio = (-sol.lam * (spec.lattice_step / spec.q)
                       * scaling_factor(spec, n) / n)
    if not layer_log_ratio < 0.0:
        raise ArithmeticError(
            f"layer log-ratio {layer_log_ratio} not negative; lam={sol.lam}")
    in_plane = rotation_basis(spec)[:, 1:]  # (1, 0) at m = 2: an empty block
    block = _gaussian_block(spec, sol.x_star, in_plane.T.tolist())
    return FluctuationPrediction(kind=MaximumKind.BOUNDARY, covariance=block,
                                 layer_log_ratio=layer_log_ratio)


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


def empirical_fluctuations(dist: Distribution, sol: MaxEntSolution,
                           spec: EnsembleSpec) -> Accumulator:
    """The fluctuation_accumulator at dist's N, filled from dist in one
    block: its covariance() and, at a boundary maximum, its layers() are
    the scaled empirical moments in the prediction conventions."""
    acc = fluctuation_accumulator(spec, dist.n, sol)
    acc.add(dist.counts, dist.pmf)
    return acc
