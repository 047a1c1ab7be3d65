"""Sampling from occupancy ensembles without enumerating them.

`iid_draws` makes exact i.i.d. draws of the pmf proportional to exp(S) on
the constraint set at any N, by probabilistic divide-and-conquer (Arratia &
DeSalvo, Combin. Probab. Comput. 25, 2016) under the finite-N
maximum-entropy tilt (`solve`'s root, read by `maxent.finite_n_tilt`);
`sample --method exact` and the sweeps' fallback rows read it.
`exact_sample`, inverse-CDF draws over an enumerated pmf, is the reference
that the tests and the benchmark's layer trace read.

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
    """i.i.d. draws by inverse CDF over the enumerated pmf: the whole-support
    reference for `iid_draws`, kept for the tests and the benchmark's layer
    trace; no command calls it.

    Returns a (count, m) int64 array of occupancy rows; deterministic for a
    fixed seed.
    """
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(dist.pmf)
    cdf[-1] = 1.0  # close the tiny rounding gap at the top
    idx = np.searchsorted(cdf, rng.random(count), side="right")
    return dist.counts[idx].copy()


def _closing_levels(spec: EnsembleSpec, n: int, degs, lam: float,
                    x) -> tuple[int, ...]:
    """The levels that close an i.i.d. proposal, in ascending order: the
    level of largest x alone, or the two levels a < b of largest x,
    whichever has the larger Gaussian estimate of its acceptance rate.

    Each estimate reads a closing level's table f_i as a Gaussian of the
    tilt's level variance v_i = N x_i (1 + N x_i/G_i), so a closing count
    of proposal covariance P is accepted at about sqrt(det D/det(D + P)),
    D the diagonal of the v_i.  With h_i the heights and V = sum v_i:

    - one level l: n_l has variance V - v_l, which gives sqrt(v_l/V); the
      factor exp(lam*(U - C)) over a height of variance sum (h_i - h_l)^2
      v_i multiplies it by e^(s^2/2) Phi(-s) ~ 1/(2 + 2.5 s), s the
      height's spread in units of the layers' decay length 1/lam;
    - two levels: the geometric slack and the drawn levels give (n_a, n_b)
      its covariance through the two equations, and only d/(q(h_b - h_a))
      of the slacks solve in whole counts.

    At lam = 0 there is no geometric law, and one level closes.
    """
    order = sorted(range(spec.m), key=lambda i: -x[i])
    if lam == 0.0:
        return (order[0],)
    (a, b), first = sorted(order[:2]), order[0]
    h = [u / spec.q for u in spec.energy_units]
    v = [n * xi * (1.0 + n * xi / g) for xi, g in zip(x, degs)]
    s = lam * math.sqrt(sum((hi - h[first]) ** 2 * vi for hi, vi in zip(h, v)))
    one = math.sqrt(v[first] / sum(v)) / (2.0 + 2.5 * s)
    step, w = spec.lattice_step / spec.q, h[b] - h[a]
    drawn = [i for i in range(spec.m) if i not in (a, b)]
    # n_b = (U - h_a*N - sum (h_i - h_a) n_i)/w and n_a = N - n_b - sum n_i
    # over the drawn levels i, U falling by `step` per unit of slack
    slack = math.exp(-lam * step) * (step / math.expm1(-lam * step)) ** 2
    var_b = (slack + sum((h[i] - h[a]) ** 2 * v[i] for i in drawn)) / w**2
    pull = sum((h[i] - h[a]) * v[i] for i in drawn) / w
    var_a = sum(v[i] for i in drawn) + var_b - 2.0 * pull
    det = (v[a] + var_a) * (v[b] + var_b) - (pull - var_b) ** 2
    two = math.sqrt(v[a] * v[b] / det) * step / w
    return (a, b) if two > one else (first,)


def iid_draws(spec: EnsembleSpec, n: int, count: int,
              seed: int) -> np.ndarray:
    """`count` i.i.d. draws of the pmf proportional to exp(S) at N.

    With the tilt t_i = lam*h_i + t_1 (lam >= 0) and z_i = e^-t_i, every
    level i but the closing ones (`_closing_levels`) is drawn as a negative
    binomial with pmf C(k+G_i-1, k) z_i^k (1-z_i)^G_i; each proposal makes
    m - 1 level draws.  With f_i(k) = C(k+G_i-1, k) z_i^k:

    - one closing level l: n_l = N - sum of the others, and the proposal is
      accepted, when n_l >= 0 and the height U (in 1/q units) is within the
      cap C, with probability f_l(n_l)/max f_l * exp(lam*(U - C)/q);
    - two closing levels a < b: the slack k >= 0 is drawn from the
      geometric law of ratio e^(-lam*d/q), d the lattice step, and
      U = d*(floor(C/d) - k); n_a + n_b = N - sum of the others and
      h_a*n_a + h_b*n_b = U - their height are solved, and the proposal is
      accepted, when both are whole and >= 0, with probability
      f_a(n_a)/max f_a * f_b(n_b)/max f_b.

    Since sum_i t_i*n_i = t_1*N + lam*U/q, both are exact draws for any tilt
    and any closing levels; these set only the acceptance rate.  Rows are
    seeded by (seed, N), so a row does not depend on which other rows run
    or where.  Returns a (count, m) int64 array.  SolverError when the
    tilt's root finds no bracket, or when _MAX_LEVEL_DRAWS level draws have
    not made `count` rows.
    """
    m, e, q = spec.m, spec.energy_units, spec.q
    if m == 1:  # the one state
        return np.full((count, 1), n, dtype=np.int64)
    cap = spec.energy_bound_units(n)
    degs = degeneracies_for(spec, n).per_level
    lam, t, x = finite_n_tilt(spec, n, degs)
    close = _closing_levels(spec, n, degs, lam, x)
    drawn = [i for i in range(m) if i not in close]
    log_f = level_log_weights([degs[i] for i in close], n)
    log_f -= np.outer([t[i] for i in close], np.arange(n + 1))
    log_f -= log_f.max(axis=1, keepdims=True)
    d = spec.lattice_step
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
        cols[close[0]] = n - cols[drawn].sum(axis=0)
        if len(close) == 1:
            cols = cols[:, cols[close[0]] >= 0]
            used = sum(u * col for u, col in zip(e, cols))
            cols, used = cols[:, used <= cap], used[used <= cap]
            bound = log_f[0, cols[close[0]]] + (lam / q) * (used - cap)
        else:
            a, b = close
            # U in b: the top layer cap//d less the slack, clipped at layer
            # -1 (slack cap//d + 1) before d scales it, so nothing overflows
            slack = rng.geometric(-math.expm1(-lam * d / q), size) - 1
            cols[b] = d * np.maximum(cap // d - slack, -1)
            cols = cols[:, (cols[a] >= 0) & (cols[b] >= 0)]
            # U less the height of the drawn levels and of n_a + n_b at h_a,
            # each in [0, q*(eps_m - eps_1)*N], over h_b - h_a gives n_b
            over = cols[b] - sum(e[i] * cols[i] for i in (*drawn, a))
            n_b, rem = np.divmod(over, e[b] - e[a])
            whole = (rem == 0) & (n_b >= 0) & (n_b <= cols[a])
            cols = cols[:, whole]
            cols[b] = n_b[whole]
            cols[a] -= cols[b]
            bound = log_f[0, cols[a]] + log_f[1, cols[b]]
        with np.errstate(divide="ignore"):  # a draw of 0.0 gives -inf
            log_u = np.log(rng.random(bound.size))
        rows.append(cols[:, log_u < bound][:, :need])
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
