"""Finite-N distributions over the occupancy lattice.

Enumerates every count vector satisfying the particle-number and energy
constraints and weights each state by exp(S).  One prefix walk counts the
states before any is filled: every level but the last two is expanded for
all viable prefixes at once, and each final prefix holds the counts k of
level m-1 in an interval, the level m closing the count.  The whole support
takes every viable k.  A streamed row (lln-sweep, fluct-check) takes only
the k whose log-weight lies within a cut of the row's largest: the
log-weight is concave in k, so those form one interval per prefix, found by
bisection, and the states left out hold at most DROPPED_SHARE of Z.  The
streamed states go through blocks of at most BLOCK_STATES states, and one
Accumulator reads each block once: moments, the moment generating function
and the decomposition of the support into exact energy-slack layers.  The
int64 walk works on heights above eps_1, under spec.energy_bound_units;
layers keyed apart from the cap are exact at any cap.  A Distribution
record, the whole support weighed as one block and normalised, enters the
same Accumulator as one block, as a fallback row's i.i.d. draws do, each
weighted 1, so one set of estimators serves every backend.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import (
    DEFAULT_STATE_BUDGET,
    EnsembleSpec,
    EnumerationBudgetError,
    degeneracies_for,
)
from .entropy import level_log_weights, table_log_multiplicity

PMF_SUM_TOL = 1e-12
# States per block of the streamed support.
BLOCK_STATES = 1 << 16
# A streamed row weighs the states whose log-weight is at least its largest
# minus ln S + ln(1/DROPPED_SHARE) + CUT_MARGIN, plus the largest range
# max xi_i - min xi_i of its mgf probes: each state left out then weighs at
# most DROPPED_SHARE/S of the top state's weight, in Z and in every probe's
# sum.  CUT_MARGIN (nats) covers the rounding of the log-weights.
DROPPED_SHARE = 1e-16
CUT_MARGIN = 1.0


class Support(NamedTuple):
    """What a row weighed: the exact state count S, the states weighed, and
    a bound on the share of Z, and of each mgf probe's sum, held by the
    states left out (0 when none is)."""

    states: int
    weighed: int
    dropped: float


class _Rows(NamedTuple):
    """The weighed states as final prefixes: per prefix the counts of the
    levels before the last two (one column per level), the particles left
    for those two, the first weighed count of level m-1, the states
    weighed and their running total; the log-weight table of a cut
    support."""

    columns: list
    rest: np.ndarray
    first: np.ndarray
    width: np.ndarray
    ends: np.ndarray
    table: np.ndarray | None
    report: Support


def _rest(width, out=None, offset=0):
    """Per run of `width` entries, offset + width - 1 down to offset, with
    one offset per run or one for all."""
    ends = np.repeat(np.cumsum(width) - 1 + offset, width)
    return np.subtract(ends, np.arange(ends.size, dtype=np.int64), out=out)


def _walk(spec: EnsembleSpec, n: int, budget: int):
    """The viable prefixes through level m-2, expanded one level at a time
    for all prefixes at once: their columns, the particles left for the last
    two levels and the least viable count of level m-1.  Every viable
    prefix has a completion, so the budget is checked against the prefix
    count at each level before the last two."""
    e, m = spec.energy_units, spec.m
    cap = spec.energy_bound_units(n)
    carry = []
    used = np.zeros(1, dtype=np.int64)
    remaining = np.full(1, n, dtype=np.int64)
    for level in range(m - 1):
        # since energies increase with the level index, counts[level] = k
        # stays viable iff routing the rest to level + 1 stays under the
        # cap, a closed-form lower bound on k:
        # k >= (used + e[level+1]*remaining - cap) / (e[level+1] - e[level])
        num = used + e[level + 1] * remaining - cap
        k_min = np.maximum(-((-num) // (e[level + 1] - e[level])), 0)
        if level == m - 2:
            return carry, remaining, k_min
        width = np.maximum(remaining - k_min + 1, 0)
        if (total := int(width.sum())) > budget:
            raise EnumerationBudgetError(
                f"state count (at least {total} viable prefixes of "
                f"{level + 1} levels) exceeds budget {budget}; use the "
                f"sampler module")
        rest = _rest(width)
        k = np.repeat(remaining, width) - rest
        carry = [np.repeat(col, width) for col in carry] + [k]
        used = np.repeat(used, width) + e[level] * k
        remaining = rest


def _bisect(lo, hi, test):
    """Per prefix, the least k in [lo, hi] where test(k) holds, test being
    false and then true along each range (hi if it never holds); test reads
    every prefix at once."""
    for _ in range(int((hi - lo).max(initial=0)).bit_length()):
        mid = (lo + hi) >> 1
        ok = test(mid)
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, np.minimum(mid + 1, hi))
    return lo


def _cut(table, columns, rest, low, cut):
    """The prefixes holding a state within `cut` of the largest log-weight,
    with the first and the number of their counts k of level m-1 that do.
    A state's log-weight is summed in level order, as table_log_multiplicity
    sums it: the prefix's terms, then the term of k, then that of rest - k.
    Each term ln C(k + G - 1, k) is concave in k, so the log-weight is
    concave along a prefix's k and its states above any threshold are one
    interval: bisections find its peak, then its two ends."""
    base = 0.0
    for i, col in enumerate(columns):
        base = base + np.take(table[i], col)

    def weight(k):
        return (base + np.take(table[-2], k)) + np.take(table[-1], rest - k)

    def step(k):  # the log-weight at k + 1, that at k when k = rest
        return weight(np.minimum(k + 1, rest))

    top = _bisect(low, rest, lambda k: step(k) <= weight(k))
    peak = weight(top)
    threshold = float(peak.max()) - cut
    keep = np.flatnonzero(peak >= threshold)
    columns = [col[keep] for col in columns]
    rest, low, top = rest[keep], low[keep], top[keep]
    if columns:
        base = base[keep]
    first = _bisect(low, top, lambda k: weight(k) >= threshold)
    last = _bisect(top, rest, lambda k: (k == rest) | (step(k) < threshold))
    return columns, rest, first, last - first + 1


def _support(spec: EnsembleSpec, n: int, budget: int,
             widen: float | None = None) -> _Rows:
    """The states a row at N weighs, counted before any is filled: the whole
    support with widen None, else those above the cut, widened by `widen`
    nats.  The viable prefixes are checked against the budget level by
    level; a cut support builds the log-weight table, and when its S passes
    the budget, only if the table's N + 1 columns fit it.  The states
    weighed are then checked against the budget."""
    if n < 1:
        raise ValueError(f"N must be >= 1, got {n}")
    if spec.m == 1:  # one state, its count n alone
        columns, rest, low = [], np.full(1, n), np.full(1, n)
    else:
        columns, rest, low = _walk(spec, n, budget)
    width = rest - low + 1
    states = int(width.sum())
    table = None
    if widen is not None:
        if states > budget and n + 1 > budget:
            raise EnumerationBudgetError(
                f"exact state count {states}, and log-weight table of {n + 1} "
                f"columns, exceed budget {budget}; use the sampler module")
        table = level_log_weights(degeneracies_for(spec, n).as_array, n)
        cut = (math.log(states) - math.log(DROPPED_SHARE) + CUT_MARGIN
               + widen)
        if spec.m > 1:
            columns, rest, low, width = _cut(table, columns, rest, low, cut)
    ends = np.cumsum(width)
    weighed = int(ends[-1])
    if weighed > budget:
        raise EnumerationBudgetError(
            f"{weighed} weighed states of exact state count {states} exceed "
            f"budget {budget}; use the sampler module")
    dropped = (states - weighed) / states * DROPPED_SHARE
    return _Rows(columns, rest, low, width, ends, table,
                 Support(states=states, weighed=weighed, dropped=dropped))


def _fill(spec: EnsembleSpec, n: int, rows: _Rows, start: int, stop: int,
          out: np.ndarray | None = None) -> np.ndarray:
    """The weighed states start..stop-1, in lexicographic row order, as a
    (stop - start, m) int64 array laid out column-major, the transpose of
    `out` when given: the prefixes' columns repeated, and the last two
    levels in closed form."""
    m = spec.m
    if m == 1:
        return np.full((1, 1), n, dtype=np.int64)
    ends = rows.ends
    i = int(np.searchsorted(ends, start, side="right"))
    j = int(np.searchsorted(ends, stop, side="left")) + 1
    begin = ends[i:j] - rows.width[i:j]
    low = np.maximum(begin, start)
    width = np.minimum(ends[i:j], stop) - low
    last = rows.first[i:j] + (low - begin) + (width - 1)  # per prefix
    rest = rows.rest[i:j]
    if out is None:
        out = np.empty((m, stop - start), dtype=np.int64)
    for row, col in zip(out, rows.columns):
        row[:] = np.repeat(col[i:j], width)
    _rest(width, out=out[m - 1], offset=rest - last)
    np.subtract(np.repeat(rest, width), out[m - 1], out=out[m - 2])
    return out.T


def enumerate_states(spec: EnsembleSpec, n: int,
                     budget: int = DEFAULT_STATE_BUDGET) -> np.ndarray:
    """All compositions of N over m levels obeying the integer energy cap.

    Returns an (S, m) int64 array in lexicographic row order, laid out
    column-major: it is the transpose of an (m, S) buffer, so each level's
    counts are one contiguous column.  The states are counted from the
    prefix walk alone, and the budget checked, before any is filled.
    """
    rows = _support(spec, n, budget)
    return _fill(spec, n, rows, 0, rows.report.states)


class LayerDecomposition(NamedTuple):
    """Support partitioned by exact energy slack, indexed from the boundary.

    Layer k holds the states whose slack in 1/q units, floor(q(E - eps_1)N)
    - sum q(eps_i - eps_1)N_i, is the (k+1)-smallest realized value; layer
    0 carries the maximal-energy states.
    """

    slacks: tuple[int, ...]          # realized slack per layer, ascending
    masses: np.ndarray               # (L,) total probability per layer


class Accumulator:
    """Weighted sums over blocks of states at one N, each block read once.

    A block is an (S_b, m) array of counts with weights w*exp(shift), w >= 0.
    The sums are held relative to the largest block shift so far; a block
    that raises it rescales them first, and blocks combine in order.  Within
    a block each sum is np.add.reduce over elementwise products, whose bits
    do not depend on the host's BLAS.  With d = counts/N - centre and one
    coordinate y_j = sum_i basis[i, j]*d_i per basis column, it keeps

    - sum w, sum w*y and, with `covariance`, sum w*y*y^T;
    - sum w*exp(xi.d - a) per probe xi, with its own running shift a;
    - with `layers`, the mass at each realized energy slack, from one
      np.bincount per block, merged into one sorted array of slacks.
    """

    def __init__(self, spec: EnsembleSpec, n: int, centre=None, basis=None,
                 covariance: bool = False, probes=(), layers: bool = False):
        m = spec.m
        self.spec, self.n = spec, n
        self.centre = np.zeros(m) if centre is None else np.array(
            centre, dtype=float)
        self.basis = np.zeros((m, 0)) if basis is None else np.array(
            basis, dtype=float)
        self.probes = [np.array(xi, dtype=float) for xi in probes]
        k = self.basis.shape[1]
        self.with_covariance = covariance
        self.shift = -math.inf
        # sum w, then per coordinate j: sum w*y_j and, with covariance,
        # sum w*y_l*y_j for l <= j
        self.moments = np.zeros(1 + k + (k * (k + 1) // 2 if covariance else 0))
        self.block_totals: list[tuple[float, float]] = []  # (sum w, shift)
        self.probe_sums = [0.0] * len(self.probes)
        # each probe's shift as (block shift, largest xi.d in that block):
        # differences of the large block shifts then cancel exactly before
        # the small second parts are added
        self.probe_shifts = [(-math.inf, 0.0)] * len(self.probes)
        self.layer_mass = None
        if layers:
            # A state's int64 key is -sum_i key_coef_i*n_i, minus its height
            # in lattice steps d, which the bound's guard keeps in range; its
            # slack is the Python int excess + d*key, excess the cap height.
            spec.energy_bound_units(n)
            d = spec.lattice_step
            self.excess = spec.energy_cap_units(n)
            self.key_coef = [x // d for x in spec.energy_units[1:]]
            self.layer_keys = np.zeros(0, dtype=np.int64)
            self.layer_mass = np.zeros(0)

    def _rebase(self, shift: float) -> float:
        """The factor that takes a block at `shift` to the running shift,
        after rescaling the sums if the block raises it."""
        if shift <= self.shift:
            return math.exp(shift - self.shift)
        factor = math.exp(self.shift - shift)  # 0.0 before the first block
        self.moments *= factor
        if self.layer_mass is not None:
            self.layer_mass *= factor
        self.shift = shift
        return 1.0

    def _combination(self, counts: np.ndarray, coef: np.ndarray):
        """sum_i coef_i*(counts_i/N - centre_i) over the nonzero coef_i."""
        y = term = None
        for i in np.flatnonzero(coef):
            term = np.multiply(counts[:, i], coef[i] / self.n, out=term)
            term -= coef[i] * self.centre[i]
            if y is None:
                y, term = term, None
            else:
                y += term
        return np.zeros(counts.shape[0]) if y is None else y

    def add(self, counts: np.ndarray, w: np.ndarray, shift: float = 0.0):
        """Add one block: the rows of counts, weighted w*exp(shift)."""
        scale = self._rebase(shift)
        total = float(np.add.reduce(w))
        self.block_totals.append((total, shift))
        parts = [total]
        weighted, product = [], None
        for coef in self.basis.T:
            y = self._combination(counts, coef)
            # w*y in y's own buffer when no later product reads y
            wy = np.multiply(w, y, out=None if self.with_covariance else y)
            parts.append(np.add.reduce(wy))
            if self.with_covariance:
                weighted.append(wy)
                for wl in weighted:
                    product = np.multiply(wl, y, out=product)
                    parts.append(np.add.reduce(product))
            del y, wy  # before the next coordinate is built
        self.moments += scale * np.array(parts)
        for p, xi in enumerate(self.probes):
            a = self._combination(counts, xi)
            top = float(a.max())
            a -= top
            np.exp(a, out=a)
            a *= w
            self._add_probe(p, float(np.add.reduce(a)), shift, top)
        if self.layer_mass is not None:
            key = np.zeros(counts.shape[0], dtype=np.int64)
            for c, col in zip(self.key_coef, counts.T[1:]):
                key -= c * col
            lo = int(key.min())
            key -= lo
            if key.max() < 2 * key.size:  # bin the keys' span directly
                keys = np.flatnonzero(np.bincount(key))
                mass = np.bincount(key, weights=w)[keys]
            else:  # sparse keys, as when energy gaps are large: rank them
                keys, key = np.unique(key, return_inverse=True)
                mass = np.bincount(key, weights=w)
            self._add_layers(keys + lo, scale * mass)

    def _add_layers(self, keys: np.ndarray, mass: np.ndarray):
        """Add masses at sorted distinct keys, inserting any not seen yet."""
        if not self.layer_keys.size:  # the first block's keys, as they are
            self.layer_keys, self.layer_mass = keys, mass
            return
        at = np.searchsorted(self.layer_keys, keys)
        new = at == self.layer_keys.size
        new[~new] = self.layer_keys[at[~new]] != keys[~new]
        if new.any():
            self.layer_keys = np.insert(self.layer_keys, at[new], keys[new])
            self.layer_mass = np.insert(self.layer_mass, at[new], 0.0)
            at += np.cumsum(new) - new  # the new keys inserted before each
        self.layer_mass[at] += mass

    def _add_probe(self, p: int, value: float, shift: float, top: float):
        base, high = self.probe_shifts[p]
        gap = (shift - base) + (top - high)
        if gap > 0.0:
            self.probe_sums[p] *= math.exp(-gap)
            self.probe_shifts[p] = (shift, top)
        else:
            value *= math.exp(gap)
        self.probe_sums[p] += value

    def total(self) -> float:
        """sum w at the running shift, once the blocks' shares sum(w/W),
        added by math.fsum, are checked to sum to 1 within PMF_SUM_TOL."""
        total = float(self.moments[0])
        share = math.fsum(t * math.exp(s - self.shift) / total
                          for t, s in self.block_totals)
        if not abs(share - 1.0) <= PMF_SUM_TOL:
            raise ArithmeticError(f"pmf sums to {share!r}; log-sum-exp unstable")
        return total

    def _normalised(self):
        k = self.basis.shape[1]
        values = iter((self.moments[1:] / self.total()).tolist())
        mean, second = np.empty(k), np.empty((k, k))
        for j in range(k):
            mean[j] = next(values)
            if self.with_covariance:
                for i in range(j + 1):
                    second[i, j] = second[j, i] = next(values)
        return mean, second

    def mean(self) -> np.ndarray:
        """Weighted mean of the coordinates y."""
        return self._normalised()[0]

    def covariance(self) -> np.ndarray:
        """Weighted covariance of the coordinates y; symmetric."""
        mean, second = self._normalised()
        return second - np.multiply.outer(mean, mean)

    def mgf(self, p: int) -> float:
        """E[exp(xi . X_N)] for the p-th probe xi."""
        base, high = self.probe_shifts[p]
        offset = (math.fsum(self.probes[p] * self.centre)
                  + (base - self.shift) + high)
        return math.exp(offset) * self.probe_sums[p] / self.total()

    def layers(self) -> LayerDecomposition:
        """Mass of each realized energy slack, ascending, over the states
        added: a streamed row leaves out the layers whose states all fall
        below its cut, which hold at most its Support.dropped share."""
        masses = self.layer_mass / self.total()
        masses.setflags(write=False)
        d = self.spec.lattice_step
        slacks = tuple(self.excess + d * k for k in self.layer_keys.tolist())
        return LayerDecomposition(slacks=slacks, masses=masses)


def _weighed_blocks(spec: EnsembleSpec, n: int, rows: _Rows, block: int):
    """The weighed states as blocks (counts, w, shift) of `block` states,
    the last one shorter, weighted w*exp(shift) = exp(S).  Every block's
    counts are written into one buffer per row, so they hold until the next
    block is made: a fresh array per block made the allocator fault its
    pages in anew, about a sixth of the time of an m=3 row of 1.7M states.
    The log-weight table is built once per row; each block goes through the
    same gather and level-order sum as log_multiplicity and is shifted by
    its largest log-weight."""
    table = rows.table
    if table is None:
        table = level_log_weights(degeneracies_for(spec, n).as_array, n)
    m, total = spec.m, rows.report.weighed
    buffer = np.empty(m * min(block, total), dtype=np.int64)
    for start in range(0, total, block):
        size = min(block, total - start)
        counts = _fill(spec, n, rows, start, start + size,
                       buffer[:m * size].reshape(m, size))
        w = table_log_multiplicity(table, counts)
        shift = float(w.max())
        w -= shift
        np.exp(w, out=w)
        yield counts, w, shift


def accumulate_support(acc: Accumulator,
                       budget: int = DEFAULT_STATE_BUDGET) -> Support:
    """Add the states of acc's spec at N that carry mass to acc, weighted
    by exp(S), in blocks of BLOCK_STATES states: those within the cut of
    the largest log-weight, widened by the largest range of acc's probes.
    The budget is checked before any block is weighed.  Returns the row's
    Support: S, the states weighed and the bound on the share of Z, and of
    each probe's sum, left out."""
    widen = max((float(xi.max() - xi.min()) for xi in acc.probes),
                default=0.0)
    rows = _support(acc.spec, acc.n, budget, widen)
    for block in _weighed_blocks(acc.spec, acc.n, rows, BLOCK_STATES):
        acc.add(*block)
    return rows.report


class Distribution(NamedTuple):
    """A pmf over occupancy rows held at once: the whole enumerated support
    (build_distribution), or any pmf a caller builds, such as equally
    weighted chain draws.

    No command reads one; the estimators below pass the record to an
    Accumulator as one block weighted by its pmf, so on the whole support
    they give what a streamed row gives, up to rounding.
    """

    spec: EnsembleSpec
    n: int
    counts: np.ndarray  # (S, m) int64, column-major: one contiguous column
    #                     per level; lexicographic rows when enumerated
    pmf: np.ndarray     # (S,)

    @property
    def size(self) -> int:
        return self.counts.shape[0]


def build_distribution(spec: EnsembleSpec, n: int,
                       budget: int = DEFAULT_STATE_BUDGET) -> Distribution:
    """Enumerate the support and normalize exp(S) into a pmf: the whole
    support as one block, its weights divided by their sum in place."""
    rows = _support(spec, n, budget)
    [(counts, pmf, _)] = _weighed_blocks(spec, n, rows, rows.report.states)
    # Dividing by the sum normalizes to rounding, where exp(lw - log Z)
    # would inherit half an ulp of a large log Z.
    np.divide(pmf, pmf.sum(), out=pmf)
    total = float(pmf.sum())
    if abs(total - 1.0) > PMF_SUM_TOL:
        raise ArithmeticError(f"pmf sums to {total!r}; log-sum-exp unstable")
    for arr in (counts, pmf):
        arr.setflags(write=False)
    return Distribution(spec=spec, n=n, counts=counts, pmf=pmf)


def _one_block(dist: Distribution, **sums) -> Accumulator:
    acc = Accumulator(dist.spec, dist.n, **sums)
    acc.add(dist.counts, dist.pmf)
    return acc


def exact_mean(dist: Distribution) -> np.ndarray:
    """Mean of the fraction vector X_N = counts/N under the pmf."""
    return _one_block(dist, basis=np.eye(dist.spec.m)).mean()


def exact_covariance(dist: Distribution) -> np.ndarray:
    """Covariance matrix of X_N; symmetric positive semidefinite.  The
    second pass is centred at the mean from the first."""
    return _one_block(dist, centre=exact_mean(dist), basis=np.eye(dist.spec.m),
                      covariance=True).covariance()


def mgf(dist: Distribution, xi) -> float:
    """Moment generating function E[exp(xi . X_N)], max-shifted for stability."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (dist.spec.m,):
        raise ValueError(f"xi must have shape ({dist.spec.m},), got {xi.shape}")
    return _one_block(dist, probes=[xi]).mgf(0)


def layer_decomposition(dist: Distribution) -> LayerDecomposition:
    """Group states by exact integer energy slack."""
    return _one_block(dist, layers=True).layers()
