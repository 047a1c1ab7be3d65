"""Exact and limiting entropy of occupancy arrangements.

The exact entropy of a count vector is the log of the number of unordered
arrangements over degenerate sub-boxes,

    S(counts, degs) = sum_i ln[ (N_i + G_i - 1)! / (N_i! (G_i - 1)!) ],

read from one per-level table of ln C(k + G_i - 1, k), k = 0..N, built as a
running sum of log1p((G_i - 1)/j).  The three limit entropies (one per
degeneracy regime) back the approximation-error measurement, and their
curvature the fluctuation predictions.

The limit side works at a point, on m numbers, in plain Python; only the
table functions, which read whole arrays of states, import NumPy.
"""

from __future__ import annotations

import math
import sys

from .core import EnsembleSpec, Regime, degeneracies_for


def level_log_weights(degs, n: int):
    """Per-level log-weights ln C(k + G_i - 1, k) for k = 0..n; shape (m, n+1).

    Entry [i, k] is the running sum of log1p((G_i - 1)/j) over j = 1..k, so
    each factor (j + G_i - 1)/j of the binomial costs one rounding and no
    large log-factorials cancel; column 0 is zero, and a level with G_i = 1
    is zero throughout.
    """
    import numpy as np

    degs = np.asarray(degs, dtype=np.int64)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if np.any(degs < 1):
        raise ValueError(f"degeneracies must be >= 1, got {degs}")
    if degs.size * (n + 1) * 8 > sys.maxsize:  # more than one array holds
        raise MemoryError(f"no array holds {degs.size} x {n + 1} log-weights")
    j = np.arange(1, n + 1, dtype=np.float64)
    table = np.zeros((degs.size, n + 1))
    np.cumsum(np.log1p((degs[:, None] - 1) / j), axis=1, out=table[:, 1:])
    return table


def log_multiplicity(counts, degs):
    """Exact entropy of count vectors; vectorized over leading axes.

    counts may be (..., m) and degs (m,).  Each level's term is read from
    level_log_weights and the m terms are added in level order, so a
    permutation of the levels changes the sum only by rounding: at most
    2(m - 1) eps relative, the terms being nonnegative.
    """
    import numpy as np

    counts = np.asarray(counts, dtype=np.int64)
    degs = np.asarray(degs, dtype=np.int64)
    if counts.shape[-1:] != degs.shape or counts.min(initial=0) < 0:
        raise ValueError(f"counts must be nonnegative with {degs.size} levels")
    table = level_log_weights(degs, int(counts.max(initial=0)))
    total = table_log_multiplicity(table, counts.reshape(-1, degs.size))
    return total.reshape(counts.shape[:-1])[()]  # a scalar for one vector


def table_log_multiplicity(table, rows):
    """log_multiplicity of an (S, m) array of counts, each at most the
    table's last column, read from a level_log_weights table built once."""
    import numpy as np

    # rows may be an (S, m) array held column-major: each gather then reads
    # one contiguous column.
    total = np.take(table[0], rows[:, 0])
    term = np.empty_like(total)
    for i in range(1, len(table)):
        total += np.take(table[i], rows[:, i], out=term)
    return total


def limit_entropy(spec: EnsembleSpec, x):
    """Limit entropy s_l(x) of the spec's regime at a point, g its weights:

    high_degeneracy: s(x) = sum x_i ln(g_i/x_i) + x_i
    proportional:    s(x) = sum (x_i + g_i c) ln(x_i + g_i c) - x_i ln x_i
    low_degeneracy:  s(x) = sum g_i ln x_i + g_i

    A summand at x_i = 0 is its limit there, g_i c ln(g_i c) or 0, save the
    divergent low_degeneracy one, taken as 0.  The Hessian is diagonal in
    full coordinates and strictly negative on the open simplex.
    """
    g = spec.weights
    if spec.regime is Regime.HIGH_DEGENERACY:
        terms = (v * math.log(gi / v) + v if v > 0.0 else 0.0
                 for v, gi in zip(x, g))
    elif spec.regime is Regime.PROPORTIONAL:
        gc = [gi * spec.c for gi in g]
        terms = ((v + a) * math.log(v + a) - v * math.log(v) if v > 0.0
                 else a * math.log(a) for v, a in zip(x, gc))
    else:
        terms = (gi * math.log(v) + gi if v > 0.0 else 0.0
                 for v, gi in zip(x, g))
    return sum(terms)


def _require_interior(x) -> tuple[float, ...]:
    x = tuple(float(v) for v in x)
    if min(x) <= 0.0:
        raise ValueError("limit-entropy derivatives need x_i > 0 for all i")
    return x


def limit_entropy_hessian_diag(spec: EnsembleSpec, x) -> tuple[float, ...]:
    """Diagonal of the (diagonal) second derivative of s_l; requires x > 0."""
    pairs = zip(_require_interior(x), spec.weights)
    if spec.regime is Regime.HIGH_DEGENERACY:
        return tuple(-1.0 / v for v, _ in pairs)
    if spec.regime is Regime.PROPORTIONAL:
        return tuple(-(g * spec.c) / (v * (v + g * spec.c)) for v, g in pairs)
    return tuple(-g / (v * v) for v, g in pairs)


def scaling_factor(spec: EnsembleSpec, n: int) -> float:
    """Entropy growth prefactor h(N): N for regimes 1-2, G(N) for regime 3."""
    if n < 1:
        raise ValueError(f"N must be >= 1, got {n}")
    if spec.regime is Regime.LOW_DEGENERACY:
        return float(spec.schedule(n))
    return float(n)


def _entropy_lgamma(spec: EnsembleSpec, n: int, x) -> float:
    # Continuous extension of the exact entropy; needed because the
    # reference point g*N is generally not an integer vector.
    degs = degeneracies_for(spec, n).per_level
    return sum(math.lgamma(v * n + g) - math.lgamma(v * n + 1.0) - math.lgamma(g)
               for v, g in zip(x, degs))


def approximation_error(spec: EnsembleSpec, n: int, x) -> float:
    """Deviation of S(x,N)/h(N) from s_l(x) after removing the N-offset.

    The x-independent offset is eliminated by differencing against the
    reference point x_ref = g, so the result measures the empirical decay
    rate of the limit-entropy approximation.
    """
    x = tuple(float(v) for v in x)
    if max(abs(v * n - round(v * n)) for v in x) > 1e-9:
        raise ValueError(f"x={list(x)} is not representable at N={n} "
                         f"(x_i*N not integer)")
    h = scaling_factor(spec, n)

    def scaled_gap(point):
        return _entropy_lgamma(spec, n, point) / h - limit_entropy(spec, point)

    return abs(scaled_gap(x) - scaled_gap(spec.weights))
