"""Shared fixtures: canonical instances, random specs, independent oracles."""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from occens import (
    ChainConfig,
    EnumerationBudgetError,
    Occupancy,
    build_distribution,
    degeneracies_for,
    entropy_exact,
    level_log_weights,
    make_spec,
    threshold_energy,
)

TWO_LEVEL_ENERGIES = ["1", "2"]
TWO_LEVEL_WEIGHTS = [0.5, 0.5]


def two_level_spec(regime, energy_cap="7/5", c=1.0, weights=None):
    """The canonical m=2 instance; E=7/5 puts the maximum on the boundary."""
    kwargs = {"c": c} if regime == "proportional" else {}
    return make_spec(TWO_LEVEL_ENERGIES, weights or TWO_LEVEL_WEIGHTS,
                     energy_cap, regime, **kwargs)


def random_spec(rng, regime, m, boundary):
    """Seeded random instance with small rational energies.

    Weights are 0.05 plus a Dirichlet share of the rest, so every weight is
    at least 0.05 and solutions stay away from the simplex boundary; the cap
    is placed strictly between eps_1 and the interior threshold
    (boundary=True) or at/above the threshold (boundary=False).
    """
    q = int(rng.choice([1, 2, 3, 4]))
    numerators = np.sort(rng.choice(np.arange(1, 13), size=m, replace=False))
    energies = [Fraction(int(v), q) for v in numerators]
    weights = 0.05 + (1.0 - 0.05 * m) * rng.dirichlet(np.ones(m))
    kwargs = {"c": float(rng.uniform(0.5, 3.0))} if regime == "proportional" else {}
    spec_probe = make_spec(energies, weights, float(energies[-1]) + 1.0,
                           regime, **kwargs)
    thr = threshold_energy(spec_probe)
    eps1 = float(energies[0])
    if boundary:
        cap = eps1 + float(rng.uniform(0.15, 0.85)) * (thr - eps1)
    else:
        cap = thr + float(rng.uniform(0.0, 1.0)) * (float(energies[-1]) - thr + 0.5)
    return make_spec(energies, weights, cap, regime, **kwargs)


def central_diff(fn, x, i, h):
    xp = np.array(x, dtype=float)
    xm = np.array(x, dtype=float)
    xp[i] += h
    xm[i] -= h
    return (fn(xp) - fn(xm)) / (2.0 * h)


def single_ball_moves(counts, m):
    """Neighbouring count vectors reachable by one ball move."""
    for i, j in itertools.permutations(range(m), 2):
        if counts[i] > 0:
            new = list(counts)
            new[i] -= 1
            new[j] += 1
            yield i, j, tuple(new)


def enumerated_kernel(spec, n, budget=10_000_000):
    """Transition matrix of the single-ball Metropolis kernel.

    Built from full entropy recomputation (independent of the chain's
    incremental updates): ordered pair (i, j) uniform over m*(m-1),
    reject empty sources and cap violations, accept with min(1, exp(dS)).
    """
    dist = build_distribution(spec, n, budget=budget)
    states = [tuple(int(v) for v in row) for row in dist.counts]
    index = {s: k for k, s in enumerate(states)}
    m = spec.m
    cap = spec.energy_cap_units(n)
    e = spec.energy_units
    kernel = np.zeros((len(states), len(states)))
    base = 1.0 / (m * (m - 1))
    for a, state in enumerate(states):
        s_a = entropy_exact(Occupancy(n, state), dist.degeneracy)
        for _, _, new in single_ball_moves(state, m):
            if sum(u * v for u, v in zip(new, e)) > cap:
                continue
            s_b = entropy_exact(Occupancy(n, new), dist.degeneracy)
            kernel[a, index[new]] += base * min(1.0, np.exp(s_b - s_a))
        kernel[a, a] = 1.0 - kernel[a].sum()
    return dist, states, kernel


def chain_marginal(chain, states):
    index = {s: k for k, s in enumerate(states)}
    freq = np.zeros(len(states))
    for row in chain:
        freq[index[tuple(int(v) for v in row)]] += 1
    return freq / freq.sum()


def default_chain(steps, seed, burn_in=None, thinning=None):
    return ChainConfig(steps=steps, seed=seed, burn_in=burn_in, thinning=thinning)


def reference_metropolis_chain(spec, n, cfg):
    """The single-ball chain as a NumPy-scalar loop, kept as the oracle.

    Same draws, table reads and np.exp acceptance as the original
    implementation; `metropolis_chain` must return the same array.
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


def reference_enumerate_states(spec, n, budget=10_000_000):
    """The recursive enumerator with the m*(N+1)^(m-1) budget bound, kept as
    the oracle; `enumerate_states` must return the same array."""
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


def reference_log_multiplicity(counts, degs):
    """Table lookup plus a row-wise sort and sum, kept as the oracle;
    `log_multiplicity` must match it bit for bit for m <= 7."""
    counts = np.asarray(counts, dtype=np.int64)
    degs = np.asarray(degs, dtype=np.int64)
    if np.any(counts < 0):
        raise ValueError("counts must be nonnegative")
    table = level_log_weights(degs, int(counts.max(initial=0)))
    terms = table[np.arange(degs.size), counts]
    return np.sort(terms, axis=-1, kind="stable").sum(axis=-1)


def brute_force_state_count(spec, n):
    """Number of compositions of n over m levels under the cap, by filtering
    every composition (stars and bars)."""
    m = spec.m
    cap = spec.energy_cap_units(n)
    e = spec.energy_units
    count = 0
    for bars in itertools.combinations(range(n + m - 1), m - 1):
        edges = (-1, *bars, n + m - 1)
        parts = [edges[i + 1] - edges[i] - 1 for i in range(m)]
        count += sum(p * ei for p, ei in zip(parts, e)) <= cap
    return count
