"""Sampling from occupancy ensembles beyond the enumeration budget.

Exact inverse-CDF sampling works from an enumerated distribution.  Past the
budget, `iid_draws` makes exact i.i.d. draws of the pmf proportional to
exp(S) on the constraint set: every level but one is an independent
negative binomial under the finite-N maximum-entropy tilt (`solve`'s root,
read by `maxent.finite_n_tilt`), the level of largest tilted mean closes
the particle count, and a rejection step corrects the law exactly
(probabilistic divide-and-conquer, Arratia & DeSalvo, Combin. Probab.
Comput. 25, 2016).  The sweeps' fallback rows read these draws.

A Metropolis chain targets the same pmf with single-ball moves between
levels.  The proposal picks an ordered level pair uniformly over all
m*(m-1) pairs and rejects moves from empty levels, which keeps the base
kernel symmetric so min(1, exp(dS)) acceptance is exact for the target.
Its step loop is plain Python over Python scalars: dS is one read from a
per-level removal table and one from an insertion table, and the NumPy
draws are turned into Python numbers a block at a time.  Its draws and
decisions are those of the same loop written over NumPy scalars with
np.exp acceptance (kept in the tests as the reference), so a seed gives
the same bytes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import islice
from operator import length_hint
from typing import TYPE_CHECKING

import numpy as np

from .core import EnsembleSpec, SolverError, degeneracies_for
from .entropy import level_log_weights
from .maxent import finite_n_tilt

if TYPE_CHECKING:
    from .ensemble import Distribution

# Draws are made and turned into Python scalars this many steps at a time,
# so the chain's memory is one block of draws plus the states it keeps;
# iid_draws proposes at most this many rows at a time.
_BLOCK = 1 << 16
# The chain accepts when u < np.exp(dS).  It tests log(u) < dS instead,
# which rounds differently only within a few ulps of log(u) (|log u| <= 37
# for u >= 2**-53, so some 1e-14).  Its dS, a sum of two table entries,
# differs from the reference's four-read sum by a few ulps of the largest
# log-weight.  With tie = max(_LOG_TIE, 64 ulps of that log-weight), it
# accepts when dS > log(u) + tie and rejects when dS < log(u) - tie; in the
# band between, it takes the reference's own dS and np.exp test, so every
# decision is the reference's.  exp(dS) > 0 always, as dS >= -ln(G_i + N), so a
# draw of 0.0 (log -inf) accepts in both.
_LOG_TIE = 1e-9
# Level draws one call of iid_draws may make before it gives up.
_MAX_LEVEL_DRAWS = 10**8


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


def iid_draws(spec: EnsembleSpec, n: int, count: int,
              seed: int) -> np.ndarray:
    """`count` i.i.d. draws of the pmf proportional to exp(S) at N.

    With the tilt t_i = lam*h_i + t_1 (lam >= 0) and z_i = e^-t_i, every
    level i but the closing one l (the level of largest mean N*x_l) is drawn
    as a negative binomial with pmf C(k+G_i-1, k) z_i^k (1-z_i)^G_i, and
    n_l = N - sum of the others.  The proposal is accepted, when n_l >= 0
    and the height U (in 1/q units) is within the cap C, with probability

        f_l(n_l) / max_k f_l(k) * exp(lam*(U - C)/q),

    where f_l(k) = C(k+G_l-1, k) z_l^k.  Since sum_i t_i*n_i = t_1*N +
    lam*U/q, the accepted rows are exact draws for any tilt; the tilt only
    sets the acceptance rate.  Rows are seeded by (seed, N), so a row does
    not depend on which other rows run or where.  Returns a (count, m)
    int64 array.  SolverError when the tilt's root finds no bracket, or
    when _MAX_LEVEL_DRAWS level draws have not made `count` rows.
    """
    m, e, q = spec.m, spec.energy_units, spec.q
    if m == 1:  # the one state
        return np.full((count, 1), n, dtype=np.int64)
    cap = spec.energy_bound_units(n)
    degs = degeneracies_for(spec, n).per_level
    lam, t, x = finite_n_tilt(spec, n, degs)
    close = x.index(max(x))
    drawn = [i for i in range(m) if i != close]
    log_f = level_log_weights([degs[close]], n)[0]
    log_f -= t[close] * np.arange(n + 1)
    log_f -= log_f.max()
    rng = np.random.default_rng([seed, n])
    rows, made, proposed = [], 0, 0
    while made < count:
        left = _MAX_LEVEL_DRAWS // (m - 1) - proposed
        if left <= 0:
            raise SolverError(
                f"i.i.d. sampler made {made} of {count} draws at N={n} "
                f"within its cap of {_MAX_LEVEL_DRAWS} level draws "
                f"({proposed} proposals, acceptance {made / proposed:.3g})")
        # enough proposals for the rows still needed at the rate so far
        need = count - made
        size = min(_BLOCK, left, -(-5 * need * proposed // (4 * max(made, 1)))
                   if proposed else need)
        proposed += size
        cols = np.empty((m, size), dtype=np.int64)
        for i in drawn:
            cols[i] = rng.negative_binomial(degs[i], -math.expm1(-t[i]), size)
        cols[close] = n - cols[drawn].sum(axis=0)
        cols = cols[:, cols[close] >= 0]
        used = sum(u * col for u, col in zip(e, cols))
        cols, used = cols[:, used <= cap], used[used <= cap]
        with np.errstate(divide="ignore"):  # a draw of 0.0 gives -inf
            log_u = np.log(rng.random(used.size))
        keep = log_u < log_f[cols[close]] + (lam / q) * (used - cap)
        rows.append(cols[:, keep][:, :need])
        made += rows[-1].shape[1]
    return np.concatenate(rows, axis=1).T


def _tie_accept(logw, i: int, j: int, ni: int, nj: int, u: float) -> bool:
    """The reference decision for a move i -> j at counts (ni, nj) and
    accept uniform u: its dS from four reads of the log-weight table, then
    u < np.exp(dS)."""
    delta = logw[i, ni - 1] - logw[i, ni] + logw[j, nj + 1] - logw[j, nj]
    return bool(delta >= 0.0 or u < np.exp(delta))


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
    room = spec.energy_cap_units(n)  # height left under the cap
    if room < 0:
        raise ValueError(f"no feasible initial state at N={n}")
    if m == 1:
        kept = range(burn_in, steps, thinning)
        return np.full((len(kept), 1), n, dtype=np.int64)
    logw = level_log_weights(degeneracies_for(spec, n).as_array, n)
    # A move i -> j at counts (ni, nj) changes S by out[i][ni] + into[j][nj]:
    # into[j][k] = w_j[k+1] - w_j[k] and out[i][k] = -into[i][k-1].
    into = np.diff(logw, axis=1)
    out = np.empty_like(logw)
    out[:, 0] = math.nan  # never read: an empty level gives no ball
    np.negative(into, out=out[:, 1:])
    into, out = into.tolist(), out.tolist()
    # moves[pair] decodes a pair draw into the ordered levels (i, j), j != i.
    moves = []
    for pair in range(m * (m - 1)):
        i, j = divmod(pair, m - 1)
        if j >= i:
            j += 1
        moves.append((out[i], into[j], i, j, e[j] - e[i]))
    # the table is nonnegative and increasing in k
    tie = max(_LOG_TIE, 64 * math.ulp(float(logw[:, n].max())))
    band = -2 * tie

    # The seed's stream holds every pair draw, then every accept uniform.
    # Both are drawn a block at a time: a discarded pass over the pair draws
    # moves `uniforms` to where the uniforms start, and `pairs` replays them.
    uniforms = np.random.default_rng(cfg.seed)
    for start in range(0, steps, _BLOCK):
        uniforms.integers(0, m * (m - 1), size=min(_BLOCK, steps - start))
    pairs = np.random.default_rng(cfg.seed)
    state = [n] + [0] * (m - 1)
    kept = []
    # The state is kept after steps burn_in, burn_in + thinning, ...; no
    # step after the last of these is run, as no kept state reads it.
    next_keep = burn_in
    last = burn_in + (steps - 1 - burn_in) // thinning * thinning
    for start in range(0, last + 1, _BLOCK):
        size = min(_BLOCK, steps - start)
        accept_draws = uniforms.random(size)
        with np.errstate(divide="ignore"):  # a draw of 0.0 gives -inf
            lows = np.log(accept_draws)
        # a move is accepted at once when dS > log(u) + tie
        lows = iter((lows + tie).tolist())
        block = zip(map(moves.__getitem__,
                        pairs.integers(0, m * (m - 1), size=size).tolist()),
                    lows)
        end = min(start + size, last + 1)
        while start < end:  # the steps up to the next kept state
            stop = min(next_keep + 1, end)
            for (ri, aj, i, j, de), low in islice(block, stop - start):
                ni = state[i]
                if ni and de <= room:
                    nj = state[j]
                    ds = ri[ni] + aj[nj]
                    # within 2*tie below `low`, the reference decides; the
                    # step's uniform is the one `lows` has just passed
                    if ds > low or (ds - low >= band and _tie_accept(
                            logw, i, j, ni, nj,
                            accept_draws[size - length_hint(lows) - 1])):
                        state[i] = ni - 1
                        state[j] = nj + 1
                        room -= de
            if stop == next_keep + 1:
                kept.extend(state)
                next_keep += thinning
            start = stop
    return np.array(kept, dtype=np.int64).reshape(-1, m)
