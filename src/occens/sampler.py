"""Sampling from occupancy ensembles beyond the enumeration budget.

Exact inverse-CDF sampling works from an enumerated distribution; for large
N a Metropolis chain targets pmf proportional to exp(S) using single-ball
moves between levels.  The proposal picks an ordered level pair uniformly
over all m*(m-1) pairs and rejects moves from empty levels, which keeps the
base kernel symmetric so min(1, exp(dS)) acceptance is exact for the target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EnsembleSpec, degeneracies_for
from .ensemble import ExactDistribution
from .entropy import level_log_weights


@dataclass(frozen=True)
class ChainConfig:
    """Metropolis run parameters; burn_in/thinning default from (N, m)."""

    steps: int
    seed: int
    burn_in: int | None = None
    thinning: int | None = None

    def resolve(self, n: int, m: int) -> tuple[int, int, int]:
        # Moves displace one ball, so decorrelation scales with N.
        burn_in = 10 * n * m if self.burn_in is None else self.burn_in
        thinning = n if self.thinning is None else self.thinning
        if not 0 <= burn_in < self.steps:
            raise ValueError(
                f"need steps > burn_in >= 0, got steps={self.steps}, "
                f"burn_in={burn_in}")
        if thinning < 1:
            raise ValueError(f"thinning must be >= 1, got {thinning}")
        return self.steps, burn_in, thinning


def exact_sample(dist: ExactDistribution, count: int, seed: int) -> np.ndarray:
    """i.i.d. draws by inverse CDF over the enumerated pmf.

    Returns a (count, m) int64 array of occupancy rows; deterministic for a
    fixed seed.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(dist.pmf)
    cdf[-1] = 1.0  # close the tiny rounding gap at the top
    idx = np.searchsorted(cdf, rng.random(count), side="right")
    return dist.counts[idx].copy()


def metropolis_chain(spec: EnsembleSpec, n: int, cfg: ChainConfig) -> np.ndarray:
    """Post-burn-in, thinned states of a single-ball Metropolis chain.

    The chain starts from the always-feasible state with every particle on
    the lowest level; each step proposes moving one ball between a uniformly
    chosen ordered level pair and accepts with min(1, exp(dS)), where dS
    reads the per-level log-weight table at the two touched levels only.
    """
    steps, burn_in, thinning = cfg.resolve(n, spec.m)
    m = spec.m
    e = np.array(spec.energy_units, dtype=np.int64)
    cap = spec.energy_cap_units(n)
    if n * e[0] > cap:
        raise ValueError(f"no feasible initial state at N={n}")
    level_logw = level_log_weights(degeneracies_for(spec, n).as_array, n)

    state = np.zeros(m, dtype=np.int64)
    state[0] = n
    energy = int(n * e[0])
    rng = np.random.default_rng(cfg.seed)

    if m == 1:
        kept = range(burn_in, steps, thinning)
        return np.full((len(kept), 1), n, dtype=np.int64)

    pair_draws = rng.integers(0, m * (m - 1), size=steps)
    accept_draws = rng.random(steps)
    kept = []
    for step in range(steps):
        pair = int(pair_draws[step])
        i = pair // (m - 1)
        j = pair % (m - 1)
        if j >= i:
            j += 1
        if state[i] > 0:
            new_energy = energy + int(e[j] - e[i])
            if new_energy <= cap:
                ni, nj = int(state[i]), int(state[j])
                delta = (level_logw[i, ni - 1] - level_logw[i, ni]
                         + level_logw[j, nj + 1] - level_logw[j, nj])
                if delta >= 0.0 or accept_draws[step] < np.exp(delta):
                    state[i] -= 1
                    state[j] += 1
                    energy = new_energy
        if step >= burn_in and (step - burn_in) % thinning == 0:
            kept.append(state.copy())
    return np.array(kept, dtype=np.int64)
