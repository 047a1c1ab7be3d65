"""Finite-N distributions over the occupancy lattice.

Enumerates every count vector satisfying the particle-number and energy
constraints, weights each state by exp(S) and normalizes through a
max-shifted log-sum-exp.  The same record holds equally weighted chain
draws past the enumeration budget, and one set of estimators serves both:
moments, the moment generating function, and the decomposition of the
support into exact energy-slack layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_STATE_BUDGET,
    EnsembleSpec,
    EnumerationBudgetError,
    degeneracies_for,
)
from .entropy import log_multiplicity

PMF_SUM_TOL = 1e-12


def enumerate_states(spec: EnsembleSpec, n: int,
                     budget: int = DEFAULT_STATE_BUDGET) -> np.ndarray:
    """All compositions of N over m levels obeying the integer energy cap.

    Returns an (S, m) int64 array in lexicographic row order, laid out
    column-major: it is the transpose of an (m, S) buffer, so each level's
    counts are one contiguous column.  Levels are filled left to right for
    all viable prefixes at once; since energies increase with the level
    index, a prefix is viable iff routing every remaining particle to the
    cheapest remaining level stays under the cap, a closed-form lower bound
    on the next coordinate.  Every viable prefix has a completion, so the
    budget is checked against the prefix count at each level and against
    the exact S before the (m, S) allocation.
    """
    if n < 1:
        raise ValueError(f"N must be >= 1, got {n}")
    m = spec.m
    if m == 1:
        return np.array([[n]], dtype=np.int64)
    cap = spec.energy_cap_units(n)
    e = spec.energy_units
    if e[-1] * n >= 2**63:
        raise OverflowError(f"N*q*eps_m = {e[-1] * n} overflows int64")
    prefix: list[np.ndarray] = []  # one column per filled level
    remaining = np.array([n], dtype=np.int64)
    used = np.zeros(1, dtype=np.int64)
    for level in range(m - 1):
        # counts[level] = k stays viable iff the rest fits at level + 1:
        # k >= (used + e[level+1]*remaining - cap) / (e[level+1] - e[level])
        num = used + e[level + 1] * remaining - cap
        k_min = np.maximum(-((-num) // (e[level + 1] - e[level])), 0)
        width = np.maximum(remaining - k_min + 1, 0)
        total = int(width.sum())
        if total > budget:
            found = (f"exact state count {total}" if level == m - 2 else
                     f"state count (at least {total} viable prefixes "
                     f"of {level + 1} levels)")
            raise EnumerationBudgetError(
                f"{found} exceeds budget {budget}; use the sampler module")
        # within each prefix, the particles left after this level run from
        # remaining - k_min down to 0
        rest = np.repeat(np.cumsum(width) - 1, width)
        rest -= np.arange(total, dtype=np.int64)
        if level < m - 2:
            k = np.repeat(remaining, width) - rest
            prefix = [np.repeat(col, width) for col in prefix] + [k]
            used = np.repeat(used, width) + e[level] * k
            remaining = rest
    # the last two levels in closed form: k at level m-2, the rest at m-1
    out = np.empty((m, total), dtype=np.int64)
    for j, col in enumerate(prefix):
        out[j] = np.repeat(col, width)
    np.subtract(np.repeat(remaining, width), rest, out=out[m - 2])
    out[m - 1] = rest
    return out.T


@dataclass(frozen=True)
class Distribution:
    """A pmf over occupancy rows: the enumerated support or chain draws.

    Every estimator below reads only counts and pmf, so exact enumeration
    and equally weighted chain draws share one set of them.
    """

    spec: EnsembleSpec
    n: int
    counts: np.ndarray  # (S, m) int64, column-major: one contiguous column
    #                     per level; lexicographic rows when enumerated
    pmf: np.ndarray     # (S,)

    @property
    def size(self) -> int:
        return self.counts.shape[0]

    def fractions(self) -> np.ndarray:
        return self.counts / self.n


def build_distribution(spec: EnsembleSpec, n: int,
                       budget: int = DEFAULT_STATE_BUDGET) -> Distribution:
    """Enumerate the support and normalize exp(S) into a pmf."""
    counts = enumerate_states(spec, n, budget=budget)
    deg = degeneracies_for(spec, n)
    # log-weights, then weights, then the pmf, in one buffer
    pmf = log_multiplicity(counts, deg.as_array)
    # One exp pass: dividing by the sum normalizes to rounding, where
    # exp(lw - log Z) would inherit half an ulp of a large log Z.
    np.subtract(pmf, pmf.max(), out=pmf)
    np.exp(pmf, out=pmf)
    np.divide(pmf, pmf.sum(), out=pmf)
    total = float(pmf.sum())
    if abs(total - 1.0) > PMF_SUM_TOL:
        raise ArithmeticError(f"pmf sums to {total!r}; log-sum-exp unstable")
    for arr in (counts, pmf):
        arr.setflags(write=False)
    return Distribution(spec=spec, n=n, counts=counts, pmf=pmf)


def draws_distribution(spec: EnsembleSpec, n: int,
                       draws: np.ndarray) -> Distribution:
    """K chain draws as a distribution, each row weighted 1/K; the draws
    are copied into the column-major layout of an enumerated support."""
    counts = np.asfortranarray(draws, dtype=np.int64)
    pmf = np.full(counts.shape[0], 1.0 / counts.shape[0])
    for arr in (counts, pmf):
        arr.setflags(write=False)
    return Distribution(spec=spec, n=n, counts=counts, pmf=pmf)


def exact_mean(dist: Distribution) -> np.ndarray:
    """Mean of the fraction vector X_N = counts/N under the pmf."""
    return (dist.pmf @ dist.counts) / dist.n


def weighted_covariance(y: np.ndarray, pmf: np.ndarray) -> np.ndarray:
    """Symmetrized covariance under pmf of k variables, given as the k rows
    of a (k, S) array y (one value per state in each row)."""
    centered = y - (y @ pmf)[:, None]
    cov = np.empty((len(y), len(y)))
    for i, row in enumerate(centered):  # one weighted row at a time
        cov[i] = centered @ (row * pmf)
    return 0.5 * (cov + cov.T)


def exact_covariance(dist: Distribution) -> np.ndarray:
    """Covariance matrix of X_N; symmetric positive semidefinite."""
    return weighted_covariance(dist.fractions().T, dist.pmf)


def mgf(dist: Distribution, xi) -> float:
    """Moment generating function E[exp(xi . X_N)], max-shifted for stability."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (dist.spec.m,):
        raise ValueError(f"xi must have shape ({dist.spec.m},), got {xi.shape}")
    # row-major fractions: on a column-major operand BLAS adds each row's m
    # products in another order, and the mgf would move by rounding
    a = np.divide(dist.counts, dist.n, order="C") @ xi
    shift = float(a.max())
    return float(math.exp(shift) * (dist.pmf * np.exp(a - shift)).sum())


@dataclass(frozen=True)
class LayerDecomposition:
    """Support partitioned by exact energy slack, indexed from the boundary.

    Layer k holds the states whose integer slack (cap minus used energy, in
    1/q units per particle pair qE*N - sum q*eps_i*N_i) is the (k+1)-smallest
    realized value; layer 0 carries the maximal-energy states.
    """

    slacks: tuple[int, ...]          # realized slack per layer, ascending
    masses: np.ndarray               # (L,) total probability per layer


def layer_decomposition(dist: Distribution) -> LayerDecomposition:
    """Group states by exact integer energy slack."""
    slack = np.full(dist.size, dist.spec.energy_cap_units(dist.n),
                    dtype=np.int64)
    for e, col in zip(dist.spec.energy_units, dist.counts.T):
        slack -= e * col
    # A stable sort keeps each layer's states in row order.  It sorts the
    # offset from the smallest slack in its narrowest unsigned type, which
    # NumPy radix-sorts at 8 and 16 bits; the permutation is the same.
    key = slack - slack.min()
    key = key.astype(np.min_scalar_type(key.max()))
    order = np.argsort(key, kind="stable")
    starts = np.flatnonzero(np.diff(key[order])) + 1
    masses = np.array([float(p.sum())
                       for p in np.split(dist.pmf[order], starts)])
    masses.setflags(write=False)
    return LayerDecomposition(
        slacks=tuple(slack[order[np.r_[0, starts]]].tolist()), masses=masses)

