"""Finite-N distributions over the occupancy lattice.

Enumerates every count vector satisfying the particle-number and energy
constraints and weights each state by exp(S).  The sweeps stream the
support through blocks of at most BLOCK_STATES states, split by the first
level's count, and one Accumulator reads each block once: moments, the
moment generating function and the decomposition of the support into exact
energy-slack layers.  The int64 walk works on heights above eps_1, under
spec.energy_bound_units; layers keyed apart from the cap are exact at any cap.
A Distribution record, the whole support weighed as one block and
normalised, enters the same Accumulator as one block, as a fallback row's
i.i.d. draws do, each weighted 1, so one set of estimators serves every
backend.
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
# States per block of the streamed support; a first-level count n_1 whose
# states alone are more than this is one block.
BLOCK_STATES = 1 << 16


def _rest(width, out=None):
    """Particles left after the level, one entry per child prefix: within
    each prefix they run from remaining - k_min down to 0."""
    ends = np.repeat(np.cumsum(width) - 1, width)
    return np.subtract(ends, np.arange(ends.size, dtype=np.int64), out=out)


def _walk(spec: EnsembleSpec, n: int, carry: list, budget: int | None = None):
    """The viable prefixes that extend the counts in `carry` (one column per
    level filled) through level m - 2, expanded one level at a time for all
    prefixes at once.  Returns the carried columns, the particles left and
    the widths (viable counts) at level m - 2, which sum to the number of
    states.  Every viable prefix has a completion, so a budget is checked
    against the prefix count at each level and against the exact S at the
    last."""
    e, m = spec.energy_units, spec.m
    cap = spec.energy_bound_units(n)
    root = np.zeros(1, dtype=np.int64)
    used = sum((e[j] * col for j, col in enumerate(carry)), root)
    remaining = n - sum(carry, root)
    for level in range(len(carry), m - 1):
        # since energies increase with the level index, counts[level] = k
        # stays viable iff routing the rest to level + 1 stays under the
        # cap, a closed-form lower bound on k:
        # k >= (used + e[level+1]*remaining - cap) / (e[level+1] - e[level])
        num = used + e[level + 1] * remaining - cap
        k_min = np.maximum(-((-num) // (e[level + 1] - e[level])), 0)
        width = np.maximum(remaining - k_min + 1, 0)
        if budget is not None and (total := int(width.sum())) > budget:
            found = (f"exact state count {total}" if level == m - 2 else
                     f"state count (at least {total} viable prefixes "
                     f"of {level + 1} levels)")
            raise EnumerationBudgetError(
                f"{found} exceeds budget {budget}; use the sampler module")
        if level == m - 2:
            return carry, remaining, width
        rest = _rest(width)
        k = np.repeat(remaining, width) - rest
        carry = [np.repeat(col, width) for col in carry] + [k]
        used = np.repeat(used, width) + e[level] * k
        remaining = rest


def _first_counts(spec: EnsembleSpec, n: int, budget: int):
    """The viable first-level counts n_1, ascending, and the number of
    states with each, from the prefix widths alone: no state is filled."""
    if n < 1:
        raise ValueError(f"N must be >= 1, got {n}")
    if spec.m == 1:
        return np.array([n], dtype=np.int64), np.ones(1, dtype=np.int64)
    carry, _, width = _walk(spec, n, [], budget)
    if not carry:  # m = 2: one state per viable n_1
        carry, width = [np.arange(n + 1 - width[0], n + 1)], np.ones(width[0])
    # the viable n_1 are consecutive, each one run of final prefixes
    low = int(carry[0][0])
    sizes = np.bincount(carry[0] - low, weights=width).astype(np.int64)
    return np.arange(low, low + sizes.size, dtype=np.int64), sizes


def _fill(spec: EnsembleSpec, n: int, first: np.ndarray) -> np.ndarray:
    """Every state whose first count is in `first`, consecutive viable
    values ascending, as an (S_b, m) int64 array in lexicographic row order
    laid out column-major.  The walk fills the levels up to m - 2 for all
    prefixes at once, and the last two follow in closed form."""
    m = spec.m
    if m == 1:
        return first.reshape(1, 1)
    if m == 2:
        return np.stack([first, n - first]).T
    prefix, remaining, width = _walk(spec, n, [first])
    out = np.empty((m, int(width.sum())), dtype=np.int64)
    for j, col in enumerate(prefix):
        out[j] = np.repeat(col, width)
    rest = _rest(width, out=out[m - 1])
    np.subtract(np.repeat(remaining, width), rest, out=out[m - 2])
    return out.T


def enumerate_states(spec: EnsembleSpec, n: int,
                     budget: int = DEFAULT_STATE_BUDGET) -> np.ndarray:
    """All compositions of N over m levels obeying the integer energy cap.

    Returns an (S, m) int64 array in lexicographic row order, laid out
    column-major: it is the transpose of an (m, S) buffer, so each level's
    counts are one contiguous column.  This is the one-block case of the
    streamed support: the states are counted from the prefix widths alone,
    and the budget checked, before any is filled.
    """
    return _fill(spec, n, _first_counts(spec, n, budget)[0])


def _batches(first: np.ndarray, sizes: np.ndarray):
    """Consecutive runs of `first` holding at most BLOCK_STATES states, or
    one value that alone holds more."""
    ends = np.cumsum(sizes)
    start = 0
    while start < first.size:
        done = int(ends[start - 1]) if start else 0
        stop = int(np.searchsorted(ends, done + BLOCK_STATES, side="right"))
        stop = max(stop, start + 1)
        yield first[start:stop]
        start = stop


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
        """Mass of each realized energy slack, ascending."""
        masses = self.layer_mass / self.total()
        masses.setflags(write=False)
        d = self.spec.lattice_step
        slacks = tuple(self.excess + d * k for k in self.layer_keys.tolist())
        return LayerDecomposition(slacks=slacks, masses=masses)


def _weighed_blocks(spec: EnsembleSpec, n: int, budget: int,
                    whole: bool = False):
    """The support at N as blocks (counts, w, shift) weighted w*exp(shift)
    = exp(S): blocks of at most BLOCK_STATES states, or one block with
    `whole`.  The states are counted before any is filled, so a support
    past the budget raises EnumerationBudgetError before any block is
    weighed.  The log-weight table is built once; each block goes through
    the same gather and level-order sum as log_multiplicity and is shifted
    by its largest log-weight."""
    first, sizes = _first_counts(spec, n, budget)
    table = level_log_weights(degeneracies_for(spec, n).as_array, n)
    for batch in [first] if whole else _batches(first, sizes):
        counts = _fill(spec, n, batch)
        w = table_log_multiplicity(table, counts)
        shift = float(w.max())
        w -= shift
        np.exp(w, out=w)
        yield counts, w, shift


def accumulate_support(acc: Accumulator,
                       budget: int = DEFAULT_STATE_BUDGET) -> None:
    """Add the support of acc's spec at N to acc, weighted by exp(S), in
    blocks of at most BLOCK_STATES states."""
    for block in _weighed_blocks(acc.spec, acc.n, budget):
        acc.add(*block)


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
    """Enumerate the support and normalize exp(S) into a pmf: the streamed
    support as one block, its weights divided by their sum in place."""
    [(counts, pmf, _)] = _weighed_blocks(spec, n, budget, whole=True)
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
