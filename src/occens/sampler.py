"""Sampling from occupancy ensembles beyond the enumeration budget.

Exact inverse-CDF sampling works from an enumerated distribution; for large
N a Metropolis chain targets pmf proportional to exp(S) using single-ball
moves between levels.  The proposal picks an ordered level pair uniformly
over all m*(m-1) pairs and rejects moves from empty levels, which keeps the
base kernel symmetric so min(1, exp(dS)) acceptance is exact for the target.

The chain's step loop is plain Python over Python scalars: the state is a
list, the log-weight table is one list per level, and the NumPy draws are
turned into Python numbers a block at a time.  Its draws and decisions are
those of the same loop written over NumPy scalars with np.exp acceptance
(kept in the tests as the reference), so a seed gives the same bytes.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .core import EnsembleSpec, degeneracies_for
from .ensemble import Distribution
from .entropy import level_log_weights

# Draws are made and turned into Python scalars this many steps at a time,
# so the chain's memory is one block of draws plus the states it keeps.
_BLOCK = 1 << 16
# The chain accepts when u < np.exp(dS).  It tests log(u) < dS instead,
# which rounds differently only within a few ulps of log(u) (|log u| <= 37
# for u >= 2**-53, so some 1e-14); inside this much wider band it falls back
# to the np.exp test, so every decision is the np.exp one.  exp(dS) > 0
# always, as dS >= -ln(G_i + N), so a draw of 0.0 (log -inf) accepts in both.
_LOG_TIE = 1e-9


@dataclass(frozen=True)
class ChainConfig:
    """Metropolis run parameters; None fields default from (N, m)."""

    steps: int | None
    seed: int
    burn_in: int | None = None
    thinning: int | None = None

    def resolve(self, n: int, m: int) -> tuple[int, int, int]:
        # Moves displace one ball, so decorrelation scales with N.  A missing
        # field never contradicts a given one, and default steps stop at
        # sys.maxsize, the most a chain indexes.
        steps, burn_in = self.steps, self.burn_in
        if steps is None:
            steps = max(200_000, 20 * n * m)
            if burn_in is not None and burn_in >= steps:
                steps = 2 * burn_in
            steps = min(steps, sys.maxsize)
        if burn_in is None:
            burn_in = 10 * n * m if 10 * n * m < steps else steps // 2
        thinning = n if self.thinning is None else self.thinning
        if not 0 <= burn_in < steps:
            raise ValueError(
                f"need steps > burn_in >= 0, got steps={steps}, "
                f"burn_in={burn_in}")
        if thinning < 1:
            raise ValueError(f"thinning must be >= 1, got {thinning}")
        if steps > sys.maxsize:  # more steps than a chain can index
            raise ValueError(f"steps must be <= {sys.maxsize}, got {steps}")
        return steps, burn_in, thinning


def exact_sample(dist: Distribution, count: int, seed: int) -> np.ndarray:
    """i.i.d. draws by inverse CDF over the enumerated pmf.

    Returns a (count, m) int64 array of occupancy rows; deterministic for a
    fixed seed.
    """
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
    Returns a (kept, m) int64 array; a fixed seed gives the same bytes.
    """
    steps, burn_in, thinning = cfg.resolve(n, spec.m)
    m = spec.m
    e = spec.energy_units
    cap = spec.energy_cap_units(n)
    if n * e[0] > cap:
        raise ValueError(f"no feasible initial state at N={n}")
    if m == 1:
        kept = range(burn_in, steps, thinning)
        return np.full((len(kept), 1), n, dtype=np.int64)
    logw = level_log_weights(degeneracies_for(spec, n).as_array, n).tolist()
    # moves[pair] decodes a pair draw into the ordered levels (i, j), j != i.
    moves = []
    for pair in range(m * (m - 1)):
        i, j = divmod(pair, m - 1)
        if j >= i:
            j += 1
        moves.append((logw[i], logw[j], i, j, e[j] - e[i]))

    # The seed's stream holds every pair draw, then every accept uniform.
    # Both are drawn a block at a time: a discarded pass over the pair draws
    # moves `uniforms` to where the uniforms start, and `pairs` replays them.
    uniforms = np.random.default_rng(cfg.seed)
    for start in range(0, steps, _BLOCK):
        uniforms.integers(0, m * (m - 1), size=min(_BLOCK, steps - start))
    pairs = np.random.default_rng(cfg.seed)
    state = [n] + [0] * (m - 1)
    energy = n * e[0]
    kept = []
    next_keep = burn_in
    tie = _LOG_TIE
    for start in range(0, steps, _BLOCK):
        size = min(_BLOCK, steps - start)
        accept_draws = uniforms.random(size)
        with np.errstate(divide="ignore"):  # a draw of 0.0 gives -inf
            log_u = np.log(accept_draws)
        block = zip(range(start, start + size),
                    pairs.integers(0, m * (m - 1), size=size).tolist(),
                    log_u.tolist())
        for step, pair, lu in block:
            wi, wj, i, j, de = moves[pair]
            ni = state[i]
            if ni > 0 and energy + de <= cap:
                nj = state[j]
                delta = wi[ni - 1] - wi[ni] + wj[nj + 1] - wj[nj]
                if lu < delta - tie:
                    accept = True
                elif lu > delta + tie:
                    accept = False
                else:  # too close to call in log space
                    accept = (delta >= 0.0
                              or accept_draws[step - start] < np.exp(delta))
                if accept:
                    state[i] = ni - 1
                    state[j] = nj + 1
                    energy += de
            if step == next_keep:
                kept.extend(state)
                next_keep += thinning
    return np.array(kept, dtype=np.int64).reshape(-1, m)
