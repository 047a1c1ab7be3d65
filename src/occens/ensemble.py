"""Exact finite-N distribution over the occupancy lattice.

Enumerates every count vector satisfying the particle-number and energy
constraints, weights each state by exp(S), normalizes through a max-shifted
log-sum-exp, and exposes moments, the moment generating function, and the
decomposition of the support into exact energy-slack layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DegeneracyAssignment, EnsembleSpec, EnumerationBudgetError, degeneracies_for
from .entropy import log_multiplicity

DEFAULT_STATE_BUDGET = 10_000_000

PMF_SUM_TOL = 1e-12


def enumerate_states(spec: EnsembleSpec, n: int,
                     budget: int = DEFAULT_STATE_BUDGET) -> np.ndarray:
    """All compositions of N over m levels obeying the integer energy cap.

    Returns an (S, m) int64 array in lexicographic row order.  Levels are
    filled left to right; since energies increase with the level index, a
    prefix is viable iff routing every remaining particle to the cheapest
    remaining level stays under the cap, which yields a closed-form lower
    bound for each coordinate instead of a scan.
    """
    if n < 1:
        raise ValueError(f"N must be >= 1, got {n}")
    m = spec.m
    if m * (n + 1) ** (m - 1) > budget:
        raise EnumerationBudgetError(
            f"state space bound m*(N+1)^(m-1) = {m * (n + 1) ** (m - 1)} "
            f"exceeds budget {budget}; use the sampler module")
    cap = spec.energy_cap_units(n)
    e = spec.energy_units
    if m == 1:
        return np.array([[n]], dtype=np.int64)

    blocks: list[np.ndarray] = []
    prefix = np.zeros(m, dtype=np.int64)

    def emit(level: int, remaining: int, used: int) -> None:
        if level == m - 2:
            # counts[m-2] = k, counts[m-1] = remaining - k; feasibility gives
            # k >= (used + e[m-1]*remaining - cap) / (e[m-1] - e[m-2]).
            num = used + e[m - 1] * remaining - cap
            den = e[m - 1] - e[m - 2]
            k_min = max(0, -((-num) // den))
            if k_min > remaining:
                return
            ks = np.arange(k_min, remaining + 1, dtype=np.int64)
            block = np.empty((ks.size, m), dtype=np.int64)
            block[:, : m - 2] = prefix[: m - 2]
            block[:, m - 2] = ks
            block[:, m - 1] = remaining - ks
            blocks.append(block)
            return
        num = used + e[level + 1] * remaining - cap
        den = e[level + 1] - e[level]
        k_min = max(0, -((-num) // den))
        for k in range(k_min, remaining + 1):
            prefix[level] = k
            emit(level + 1, remaining - k, used + e[level] * k)
        prefix[level] = 0

    emit(0, n, 0)
    if not blocks:
        return np.empty((0, m), dtype=np.int64)
    return np.concatenate(blocks, axis=0)


@dataclass(frozen=True)
class ExactDistribution:
    """Enumerated support with log-weights, log-partition-function and pmf."""

    spec: EnsembleSpec
    n: int
    degeneracy: DegeneracyAssignment
    counts: np.ndarray      # (S, m) int64, lexicographic
    log_weights: np.ndarray  # (S,) exact entropies S(x, N)
    log_z: float
    pmf: np.ndarray          # (S,)

    @property
    def size(self) -> int:
        return self.counts.shape[0]

    def fractions(self) -> np.ndarray:
        return self.counts / self.n


def build_distribution(spec: EnsembleSpec, n: int,
                       budget: int = DEFAULT_STATE_BUDGET) -> ExactDistribution:
    """Enumerate the support and normalize exp(S) into a pmf."""
    counts = enumerate_states(spec, n, budget=budget)
    if counts.shape[0] == 0:
        raise ValueError(f"empty support at N={n}; spec admits no states")
    deg = degeneracies_for(spec, n)
    log_weights = np.asarray(log_multiplicity(counts, deg.as_array), dtype=float)
    shift = float(log_weights.max())
    # One exp pass: dividing by the sum normalizes to rounding, where
    # exp(lw - log_z) would inherit half an ulp of a large log Z.
    weights = np.exp(log_weights - shift)
    total_weight = float(weights.sum())
    log_z = shift + math.log(total_weight)
    pmf = weights / total_weight
    total = float(pmf.sum())
    if abs(total - 1.0) > PMF_SUM_TOL:
        raise ArithmeticError(f"pmf sums to {total!r}; log-sum-exp unstable")
    for arr in (counts, log_weights, pmf):
        arr.setflags(write=False)
    return ExactDistribution(spec=spec, n=n, degeneracy=deg, counts=counts,
                             log_weights=log_weights, log_z=log_z, pmf=pmf)


def exact_mean(dist: ExactDistribution) -> np.ndarray:
    """Mean of the fraction vector X_N = counts/N under the pmf."""
    return (dist.pmf @ dist.counts) / dist.n


def weighted_covariance(y: np.ndarray, pmf: np.ndarray) -> np.ndarray:
    """Covariance of the rows of y under pmf, symmetrized."""
    centered = y - pmf @ y
    cov = (centered * pmf[:, None]).T @ centered
    return 0.5 * (cov + cov.T)


def exact_covariance(dist: ExactDistribution) -> np.ndarray:
    """Covariance matrix of X_N; symmetric positive semidefinite."""
    return weighted_covariance(dist.fractions(), dist.pmf)


def mgf(dist: ExactDistribution, xi) -> float:
    """Moment generating function E[exp(xi . X_N)], max-shifted for stability."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (dist.spec.m,):
        raise ValueError(f"xi must have shape ({dist.spec.m},), got {xi.shape}")
    a = dist.fractions() @ xi
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
    members: tuple[np.ndarray, ...]  # state indices per layer

    @property
    def layers(self) -> int:
        return len(self.slacks)


def layer_decomposition(dist: ExactDistribution) -> LayerDecomposition:
    """Group states by exact integer energy slack."""
    e = np.array(dist.spec.energy_units, dtype=np.int64)
    cap = dist.spec.energy_cap_units(dist.n)
    slack = cap - dist.counts @ e
    # a stable sort keeps each layer's state indices ascending
    order = np.argsort(slack, kind="stable")
    values, starts = np.unique(slack[order], return_index=True)
    members = tuple(np.split(order, starts[1:]))
    masses = np.array([float(dist.pmf[idx].sum()) for idx in members])
    masses.setflags(write=False)
    return LayerDecomposition(slacks=tuple(int(v) for v in values),
                              masses=masses, members=members)


def dump_distribution(dist: ExactDistribution) -> str:
    """Text dump, one line per state: `N1,...,Nm,logW,pmf` (golden tests)."""
    lines = []
    for row, lw, p in zip(dist.counts, dist.log_weights, dist.pmf):
        cells = [str(int(v)) for v in row] + [repr(float(lw)), repr(float(p))]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
