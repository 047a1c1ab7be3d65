"""Shared fixtures: canonical instances, random specs, independent oracles."""

from __future__ import annotations

import itertools
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from occens import (
    DegeneracyAssignment,
    Distribution,
    EnumerationBudgetError,
    FluctuationPrediction,
    LayerDecomposition,
    MaxEntSolution,
    MaximumKind,
    Regime,
    SolverError,
    SpecValidationError,
    build_distribution,
    classify_maximum,
    degeneracies_for,
    enumerate_states,
    level_log_weights,
    limit_entropy,
    limit_entropy_hessian_diag,
    make_spec,
    predict_boundary,
    predict_interior,
    rotation_basis,
    scaling_factor,
    solve,
    threshold_energy,
)
from occens.core import WEIGHT_SUM_TOL, EnsembleSpec
from occens import ensemble
from occens.entropy import _require_interior, log_multiplicity
from occens.fluctuations import _ORTHONORMAL_TOL
from occens.maxent import RESIDUAL_TOL

TWO_LEVEL_ENERGIES = ["1", "2"]
TWO_LEVEL_WEIGHTS = [0.5, 0.5]


def two_level_spec(regime, energy_cap="7/5", c=1.0, weights=None):
    """The canonical m=2 instance; E=7/5 puts the maximum on the boundary."""
    kwargs = {"c": c} if regime == "proportional" else {}
    return make_spec(TWO_LEVEL_ENERGIES, weights or TWO_LEVEL_WEIGHTS,
                     energy_cap, regime, **kwargs)


def energies_float(spec) -> tuple[float, ...]:
    """The spec's energies as floats."""
    return tuple(float(e) for e in spec.energies)


def random_spec(rng, regime, m, boundary, energies=None):
    """Seeded random instance with small rational energies, or the given
    ones.

    Weights are 0.05 plus a Dirichlet share of the rest, so every weight is
    at least 0.05 and solutions stay away from the simplex boundary; the cap
    is placed strictly between eps_1 and the interior threshold
    (boundary=True) or at/above the threshold (boundary=False).
    """
    q = int(rng.choice([1, 2, 3, 4]))
    numerators = np.sort(rng.choice(np.arange(1, 13), size=m, replace=False))
    if energies is None:
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


@st.composite
def edge_specs(draw):
    """Specs with q up to 12 and a cap within 1e-6 of eps_1 (above it) or
    of the interior threshold (either side), in every regime."""
    m = draw(st.integers(1, 6), label="m")
    q = draw(st.integers(1, 12), label="q")
    numerators = sorted(draw(st.sets(st.integers(1, 4 * q + 6), min_size=m,
                                     max_size=m), label="numerators"))
    energies = [Fraction(k, q) for k in numerators]
    parts = draw(st.lists(st.integers(1, 100), min_size=m, max_size=m))
    weights = [v / sum(parts) for v in parts]
    regime = draw(st.sampled_from(["high_degeneracy", "proportional",
                                   "low_degeneracy"]), label="regime")
    kwargs = {}
    if regime == "proportional":
        kwargs["c"] = draw(st.floats(0.5, 3.0))
    elif regime == "low_degeneracy":  # p near 1 lets G(N) >= m at small N
        kwargs["p"] = draw(st.floats(0.5, 0.95))
    offset = Fraction(draw(st.floats(-1e-6, 1e-6), label="offset"))
    if m == 1 or draw(st.booleans(), label="near eps_1"):
        cap = energies[0] + abs(offset) + Fraction(1, 10**12)
    else:
        probe = make_spec(energies, weights, energies[-1], regime, **kwargs)
        cap = Fraction(threshold_energy(probe)) + offset
    return make_spec(energies, weights, cap, regime, **kwargs)


def entropy_spec(regime, g, c=None):
    """A spec with level weights g; the limit entropy reads only its regime,
    weights and c, so the energies are 1..m and the cap is m + 1."""
    m = len(g)
    return make_spec([str(i + 1) for i in range(m)], [float(v) for v in g],
                     m + 1, regime, c=c)


_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def stirling_log_gamma(lam: float, order: int) -> float:
    """Truncated Stirling approximation of ln Gamma(lam).

    order selects how many correction terms of the series
    [1 + 1/(12 lam) + 1/(288 lam^2)] are kept (0, 1 or 2).
    """
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order}")
    series = 1.0
    if order >= 1:
        series += 1.0 / (12.0 * lam)
    if order >= 2:
        series += 1.0 / (288.0 * lam * lam)
    return (-lam + (lam - 0.5) * math.log(lam) + _HALF_LOG_TWO_PI
            + math.log(series))


def limit_entropy_rows(spec, x):
    """limit_entropy over the rows of a 2-D array."""
    return np.array([limit_entropy(spec, row) for row in x.tolist()])


def limit_entropy_grad(spec, x) -> tuple[float, ...]:
    """Per-coordinate first derivative of s_l; requires x > 0."""
    pairs = zip(_require_interior(x), spec.weights)
    if spec.regime is Regime.HIGH_DEGENERACY:
        return tuple(math.log(g / v) for v, g in pairs)
    if spec.regime is Regime.PROPORTIONAL:
        return tuple(math.log1p(g * spec.c / v) for v, g in pairs)
    return tuple(g / v for v, g in pairs)


@dataclass(frozen=True)
class Occupancy:
    """An integer occupancy vector (N_1, ..., N_m) with sum N."""

    total: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if self.total < 1:
            raise ValueError(f"total must be positive, got {self.total}")
        if any(c < 0 for c in self.counts):
            raise ValueError(f"negative occupancy in {self.counts}")
        if sum(self.counts) != self.total:
            raise ValueError(
                f"counts {self.counts} sum to {sum(self.counts)}, "
                f"expected {self.total}")


def entropy_exact(occ: Occupancy, deg: DegeneracyAssignment) -> float:
    """Exact entropy of an occupancy under a degeneracy assignment."""
    if len(occ.counts) != len(deg.per_level):
        raise ValueError(
            f"occupancy has {len(occ.counts)} levels, assignment has "
            f"{len(deg.per_level)}")
    return float(log_multiplicity(occ.counts, deg.per_level))


def log_weights_and_z(dist):
    """Exact entropies S(x, N) of the states of an enumerated distribution,
    and the log-partition function by a max-shifted log-sum-exp."""
    log_weights = np.asarray(log_multiplicity(
        dist.counts, degeneracies_for(dist.spec, dist.n).as_array), dtype=float)
    shift = float(log_weights.max())
    log_z = shift + math.log(float(np.exp(log_weights - shift).sum()))
    return log_weights, log_z


def draws_distribution(spec: EnsembleSpec, n: int,
                       draws: np.ndarray) -> Distribution:
    """K chain draws as a distribution, each row weighted 1/K; the draws
    are copied into the column-major layout of an enumerated support."""
    counts = np.asfortranarray(draws, dtype=np.int64)
    pmf = np.full(counts.shape[0], 1.0 / counts.shape[0])
    for arr in (counts, pmf):
        arr.setflags(write=False)
    return Distribution(spec=spec, n=n, counts=counts, pmf=pmf)


def dump_distribution(dist) -> str:
    """Text dump, one line per state: `N1,...,Nm,logW,pmf` (golden tests)."""
    lines = []
    for row, lw, p in zip(dist.counts, log_weights_and_z(dist)[0], dist.pmf):
        cells = [str(int(v)) for v in row] + [repr(float(lw)), repr(float(p))]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def predict(spec: EnsembleSpec, n: int) -> FluctuationPrediction:
    """Dispatch on the maximum type."""
    if classify_maximum(spec) is MaximumKind.INTERIOR:
        return predict_interior(spec)
    return predict_boundary(spec, n)


# The prediction side as it was computed through LAPACK and BLAS, kept
# verbatim as the reference for occens.fluctuations' plain-Python block.


def reduced_hessian(spec: EnsembleSpec, x) -> np.ndarray:
    """Hessian of s_l in the m-1 free coordinates after x_m = 1 - sum x_i.

    The full Hessian is diagonal, so eliminating the last coordinate adds
    its (negative) curvature to every entry of the reduced block.
    """
    diag = limit_entropy_hessian_diag(spec, x)
    return np.diag(diag[:-1]) + diag[-1]


def lapack_gaussian_covariance(precision: np.ndarray) -> np.ndarray:
    """Symmetrized inverse of a precision block, checked positive definite.

    A singular or indefinite block is a numeric failure (ArithmeticError).
    """
    try:
        cov = np.linalg.inv(precision)
        cov = 0.5 * (cov + cov.T)
        definite = not cov.size or np.min(np.linalg.eigvalsh(cov)) > 0.0
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(f"covariance block: {exc}") from exc
    if not definite:
        raise ArithmeticError(f"covariance block not positive definite:\n{cov}")
    cov.setflags(write=False)
    return cov


def lapack_rotation_basis(spec: EnsembleSpec) -> np.ndarray:
    """rotation_basis with BLAS dots and norms."""
    m = spec.m
    w = np.subtract(energies_float(spec)[:-1], energies_float(spec)[-1])
    norm = float(np.linalg.norm(w))
    if norm < 1e-12:
        raise ValueError("degenerate normal: energies do not separate levels")
    cols = [w / norm]
    for k in range(m - 1):
        if len(cols) == m - 1:
            break
        v = np.zeros(m - 1)
        v[k] = 1.0
        for _ in range(2):  # second pass keeps orthonormality at 1e-12
            for u in cols:
                v = v - (u @ v) * u
        nv = float(np.linalg.norm(v))
        if nv > 1e-8:
            cols.append(v / nv)
    basis = np.column_stack(cols)
    gram_err = float(np.max(np.abs(basis.T @ basis - np.eye(m - 1))))
    if gram_err > _ORTHONORMAL_TOL:
        raise ArithmeticError(f"rotation basis lost orthonormality: {gram_err:.2e}")
    basis.setflags(write=False)
    return basis


def lapack_predict_interior(spec: EnsembleSpec) -> np.ndarray:
    """The interior covariance (-H_reduced)^-1 by np.linalg.inv."""
    return lapack_gaussian_covariance(-reduced_hessian(spec, spec.weights))


def lapack_predict_boundary(spec: EnsembleSpec,
                            n: int) -> tuple[np.ndarray, float]:
    """The in-plane covariance block by BLAS products and np.linalg.inv, and
    the layer log-ratio from the unit cap normal: (block, log-ratio)."""
    sol = solve(spec)
    w = np.subtract(energies_float(spec)[:-1], energies_float(spec)[-1])
    w_norm = float(np.linalg.norm(w))
    # derivative of s_l along the inward normal; grad s_l(x*) = lam*eps + nu
    s_prime = -sol.lam * w_norm
    step_v1 = spec.lattice_step / (spec.q * n * w_norm)
    layer_log_ratio = scaling_factor(spec, n) * s_prime * step_v1
    in_plane = lapack_rotation_basis(spec)[:, 1:]
    h_red = reduced_hessian(spec, sol.x_star)
    block = lapack_gaussian_covariance(-(in_plane.T @ h_red @ in_plane))
    return block, layer_log_ratio


def third_std_moments(dist, sol, spec) -> np.ndarray:
    """Third standardized moments of sqrt(h(N))*(X - x*) in reduced
    coordinates (interior maxima)."""
    m = spec.m
    x_red = (dist.counts / dist.n)[:, : m - 1]
    scale = math.sqrt(scaling_factor(spec, dist.n))
    y = scale * (x_red - sol.x_star[: m - 1])
    centered = y - dist.pmf @ y
    variances = np.diag((centered * dist.pmf[:, None]).T @ centered)
    third = np.zeros(m - 1)
    nonzero = variances > 0
    c = centered[:, nonzero]
    third[nonzero] = (dist.pmf @ (c * c * c)) / variances[nonzero] ** 1.5
    return third


def reference_sampled_estimates(spec, sol, n, draws, probes):
    """The sample-average estimators the CLI once applied to chain draws,
    kept as the oracle for the shared estimators on `draws_distribution`.

    Returns (mean, mgfs, cov, masses): the sample mean of X_N, the sample
    mean of exp(xi . X_N) per probe, the sqrt(h(N))-scaled covariance
    (reduced coordinates at an interior maximum, in-plane at a boundary
    one, as the CLI columns read it) and, at a boundary maximum, the
    normalized tallies of the realized energy slacks (None otherwise).
    """
    m = spec.m
    frac = draws / n
    mean = frac.mean(axis=0)
    mgfs = [float(np.exp(frac @ xi).mean()) for xi in probes]

    def sampled_cov(project=None):
        scale = math.sqrt(scaling_factor(spec, n))
        y = scale * (frac[:, : m - 1] - sol.x_star[: m - 1])
        if project is not None:
            y = y @ project
        centered = y - y.mean(axis=0)
        return centered.T @ centered / centered.shape[0]

    if sol.kind is MaximumKind.INTERIOR:
        return mean, mgfs, sampled_cov(), None
    in_plane = rotation_basis(spec)[:, 1:] if m > 2 else None
    cov = sampled_cov(project=in_plane)
    e = np.array(spec.energy_units, dtype=np.int64)
    slack = (spec.energy_cap_units(n)
             - np.round(frac * n).astype(np.int64) @ e)
    _, tallies = np.unique(slack, return_counts=True)
    return mean, mgfs, cov, tallies / tallies.sum()


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
    deg = degeneracies_for(spec, n)
    states = [tuple(int(v) for v in row) for row in dist.counts]
    index = {s: k for k, s in enumerate(states)}
    m = spec.m
    cap = spec.energy_cap_units(n)
    e = spec.energy_units
    kernel = np.zeros((len(states), len(states)))
    base = 1.0 / (m * (m - 1))
    for a, state in enumerate(states):
        s_a = entropy_exact(Occupancy(n, state), deg)
        for _, _, new in single_ball_moves(state, m):
            if sum(u * v for u, v in zip(new, e)) > cap:
                continue
            s_b = entropy_exact(Occupancy(n, new), deg)
            kernel[a, index[new]] += base * min(1.0, np.exp(s_b - s_a))
        kernel[a, a] = 1.0 - kernel[a].sum()
    return dist, states, kernel


def chain_marginal(chain, states):
    index = {s: k for k, s in enumerate(states)}
    freq = np.zeros(len(states))
    for row in chain:
        freq[index[tuple(int(v) for v in row)]] += 1
    return freq / freq.sum()


def chi_square_p(dist, draws) -> float:
    """Pearson chi-square p-value of i.i.d. draws against the enumerated
    pmf of `dist`, every draw a state of its support.  States expected
    fewer than 5 times are pooled into one bin (joined to the smallest other
    bin if still under 5); the upper tail of the chi-square law comes from
    mpmath's regularized incomplete gamma."""
    import mpmath

    base = (dist.n + 1) ** np.arange(dist.spec.m)
    codes = dist.counts @ base
    order = np.argsort(codes)
    found = np.searchsorted(codes[order], draws @ base)
    idx = order[np.minimum(found, len(order) - 1)]
    if not np.array_equal(dist.counts[idx], draws):
        raise AssertionError("a draw is not a state of the support")
    seen = np.bincount(idx, minlength=dist.size).astype(float)
    want = dist.pmf * len(draws)
    small = want < 5
    seen = [*seen[~small], seen[small].sum()]
    want = [*want[~small], want[small].sum()]
    if want[-1] < 5 and len(want) > 1:
        k = int(np.argmin(want[:-1]))
        seen[k] += seen.pop()
        want[k] += want.pop()
    dof = len(want) - 1
    if dof < 1:
        return 1.0
    stat = math.fsum((s - w) ** 2 / w for s, w in zip(seen, want))
    return float(mpmath.gammainc(dof / 2, stat / 2, mpmath.inf,
                                 regularized=True))


def reference_resolve(cfg, n: int, m: int) -> tuple[int, int, int]:
    """ChainConfig.resolve as it was when each default ignored the given
    fields and a conflict raised; kept as the oracle for the chain rule."""
    steps = max(200_000, 20 * n * m) if cfg.steps is None else cfg.steps
    burn_in = 10 * n * m if cfg.burn_in is None else cfg.burn_in
    thinning = n if cfg.thinning is None else cfg.thinning
    if not 0 <= burn_in < steps:
        raise ValueError(
            f"need steps > burn_in >= 0, got steps={steps}, "
            f"burn_in={burn_in}")
    if thinning < 1:
        raise ValueError(f"thinning must be >= 1, got {thinning}")
    if steps > sys.maxsize:  # more steps than a chain can index
        raise ValueError(f"steps must be <= {sys.maxsize}, got {steps}")
    return steps, burn_in, thinning


def reference_metropolis_chain(spec, n, cfg):
    """The single-ball chain as a NumPy-scalar loop, kept as the oracle.

    The pair bytes for the whole run come in one randbytes call on
    random.Random(f"{seed}/pairs"), and one uniform per step from
    random.Random(f"{seed}/uniforms").  A pair draw is a byte, or a 16-bit
    little-endian word past 16 levels: a value v at or above the largest
    multiple of m*(m-1) it can hold is dropped, and the others give the
    pair v % (m*(m-1)).  A move is accepted when u is below the weight
    ratio ni/(ni + G_i - 1) * ((nj + G_j)/(nj + 1)); `metropolis_chain`
    must return the same array.
    """
    steps, burn_in, thinning = cfg.resolve(n, spec.m)
    m = spec.m
    e = np.array(spec.energy_units, dtype=np.int64)
    cap = spec.energy_cap_units(n)
    if n * e[0] > cap:
        raise ValueError(f"no feasible initial state at N={n}")
    degs = degeneracies_for(spec, n).per_level

    state = np.zeros(m, dtype=np.int64)
    state[0] = n
    energy = int(n * e[0])

    if m == 1:
        kept = range(burn_in, steps, thinning)
        return np.full((len(kept), 1), n, dtype=np.int64)

    size = m * (m - 1)
    width = 1 if size <= 256 else 2
    limit = 256**width - 256**width % size
    # at least half of the values are kept, so 4*steps + 64 hold steps pairs
    raw = random.Random(f"{cfg.seed}/pairs").randbytes(width * (4 * steps + 64))
    pair_draws = []
    for k in range(0, len(raw), width):
        value = int.from_bytes(raw[k:k + width], "little")
        if value < limit:
            pair_draws.append(value % size)
    assert len(pair_draws) >= steps
    uniforms = random.Random(f"{cfg.seed}/uniforms")
    u = [uniforms.random() for _ in range(steps)]
    kept = []
    for step in range(steps):
        pair = pair_draws[step]
        i = pair // (m - 1)
        j = pair % (m - 1)
        if j >= i:
            j += 1
        if state[i] > 0:
            new_energy = energy + int(e[j] - e[i])
            if new_energy <= cap:
                ni, nj = int(state[i]), int(state[j])
                ratio = ni / (ni + degs[i] - 1) * ((nj + degs[j]) / (nj + 1))
                if u[step] < ratio:
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
    """Table lookup plus a sum over the levels in their order, one level
    at a time, kept as the oracle; `log_multiplicity` must match it bit for
    bit at every m.  (A `.sum(axis=-1)` would not: NumPy sums
    pairwise from m = 8 on.)"""
    counts = np.asarray(counts, dtype=np.int64)
    degs = np.asarray(degs, dtype=np.int64)
    if np.any(counts < 0):
        raise ValueError("counts must be nonnegative")
    table = level_log_weights(degs, int(counts.max(initial=0)))
    terms = table[np.arange(degs.size), counts]
    total = terms[..., 0].copy()
    for i in range(1, degs.size):
        total += terms[..., i]
    return total


def reference_cut(spec, n, widen=0.0):
    """The whole support at N, its log_multiplicity and the mask of the
    states a streamed row weighs: those at least the cut ln S +
    ln(1/DROPPED_SHARE) + CUT_MARGIN + widen below the largest, the
    constants read from the ensemble module at the call."""
    states = enumerate_states(spec, n, budget=10**8)
    lw = log_multiplicity(states, degeneracies_for(spec, n).as_array)
    cut = (math.log(len(states)) - math.log(ensemble.DROPPED_SHARE)
           + ensemble.CUT_MARGIN + widen)
    return states, lw, lw >= lw.max() - cut


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


def occupancy_energy_units(spec, counts) -> int:
    """Total energy of a count vector in integer 1/q units."""
    return int(np.asarray(counts, dtype=np.int64) @
               np.array(spec.energy_units, dtype=np.int64))


def assert_feasible(spec, occ: Occupancy) -> Occupancy:
    """Check the energy-cap invariant of an occupancy against a spec."""
    if len(occ.counts) != spec.m:
        raise ValueError(f"occupancy has {len(occ.counts)} levels, spec has {spec.m}")
    used = occupancy_energy_units(spec, occ.counts)
    cap = spec.energy_cap_units(occ.total)
    if used > cap:
        raise ValueError(
            f"occupancy {occ.counts} violates energy cap: {used} > {cap} (1/q units)")
    return occ


def fraction_vector(spec, x) -> np.ndarray:
    """Validate a point of the fraction simplex under the energy cap."""
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.m,):
        raise ValueError(f"expected shape ({spec.m},), got {x.shape}")
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValueError(f"fractions must lie in [0, 1]: {x}")
    if abs(x.sum() - 1.0) > WEIGHT_SUM_TOL:
        raise ValueError(f"fractions sum to {x.sum()!r}, expected 1")
    energies = np.array(energies_float(spec))
    if float(x @ energies) > float(spec.energy_cap) + 1e-12:
        raise ValueError(
            f"mean energy {x @ energies} exceeds cap {float(spec.energy_cap)}")
    return x


def reference_degeneracies_for(spec, n):
    """The NumPy largest-remainder split, kept as the oracle for
    `degeneracies_for`; returns the per-level tuple."""
    total = spec.schedule(n)
    m = spec.m
    if total < m:
        raise SpecValidationError(
            [f"schedule yields G(N)={total} < m={m} at N={n}"])
    target = np.array(spec.weights) * total
    floors = np.floor(target)
    # Python ints: past G(N) = 2**63 an int64 cast of the floors wraps
    base = [int(v) for v in floors]
    short = total - sum(base)
    for i in np.argsort(floors - target, kind="stable")[:short]:
        base[i] += 1
    while 0 in base:
        base[int(np.argmax(base))] -= 1
        base[int(np.argmin(base))] += 1
    assignment = DegeneracyAssignment(total=total, per_level=tuple(base))
    drift = max(abs(b - t) for b, t in zip(base, target.tolist()))
    if drift > 1.0 + 1e-9:
        raise SpecValidationError(
            [f"degeneracy rounding drift {drift:.3f} exceeds 1 at N={n}; "
             f"weights too small for G(N)={total}"])
    return assignment.per_level


def reference_layer_decomposition(dist):
    """Grouping by np.unique over the sorted slack, each layer's mass the
    math.fsum of its states' pmf: the oracle for `layer_decomposition`.
    Returns the decomposition and the number of states in each layer."""
    e = np.array(dist.spec.energy_units, dtype=np.int64)
    cap = dist.spec.energy_cap_units(dist.n)
    # slack = cap - used, ascending as -used is: the cap, which may lie
    # past int64, enters only as a Python int
    low = -(dist.counts @ e)
    order = np.argsort(low, kind="stable")
    values, starts = np.unique(low[order], return_index=True)
    members = tuple(np.split(order, starts[1:]))
    masses = np.array([math.fsum(dist.pmf[idx]) for idx in members])
    layers = LayerDecomposition(slacks=tuple(cap + v for v in values.tolist()),
                                masses=masses)
    return layers, np.array([idx.size for idx in members])


def reference_weighted_covariance(y, pmf):
    """Symmetrized covariance of the rows of an (S, k) array y under pmf:
    the row-major formula, kept as the oracle for the covariances the
    Accumulator sums a coordinate at a time."""
    centered = y - pmf @ y
    cov = (centered * pmf[:, None]).T @ centered
    return 0.5 * (cov + cov.T)


# The NumPy multiplier solver, kept as the oracle for `solve`.  It reads
# the spec's float vectors as arrays (_ArraySpec); apart from the _ref
# prefix, that view and the threshold energy written out as the np.dot it
# was, the code below is the solver as it was, with its bisection, which
# now runs to adjacent floats: its old stop at 1e-13 of |x| left x* 2e-12
# off at alpha near 11, past the 1e-12 that the solve tests allow.

_BISECT_MAX_ITER = 300
_BRACKET_GROWTH_CAP = 200


def _bisect_monotone(f, target, lo, hi, increasing):
    """Solve f(x) = target for monotone f on a valid bracket [lo, hi],
    halving it until its ends are adjacent floats."""
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = f(mid)
        if fm == target:
            return mid
        if (fm > target) == increasing:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class _ArraySpec:
    """A spec whose float vectors are NumPy arrays."""

    def __init__(self, spec):
        self._spec = spec
        self.energies_float = np.array(energies_float(spec))
        self.weights_array = np.array(spec.weights)

    def __getattr__(self, name):
        return getattr(self._spec, name)


def reference_solve(spec) -> MaxEntSolution:
    """`solve` as computed by the NumPy solver (x_star an array)."""
    return _ref_solve(_ArraySpec(spec))


def _ref_classify_maximum(spec: EnsembleSpec) -> MaximumKind:
    """Interior iff E >= sum(g_i*eps_i); boundary iff eps_1 < E below that."""
    if not spec.energy_cap > spec.energies[0]:
        raise ValueError("empty domain: E <= eps_1")
    threshold = float(np.dot(spec.weights_array, spec.energies_float))
    if float(spec.energy_cap) >= threshold - 1e-12 * max(1.0, abs(threshold)):
        return MaximumKind.INTERIOR
    return MaximumKind.BOUNDARY


def _ref_require_boundary(spec: EnsembleSpec) -> None:
    if _ref_classify_maximum(spec) is not MaximumKind.BOUNDARY:
        raise ValueError("not a boundary instance: E >= sum(g_i*eps_i)")


def _ref_mb_mean_energy(spec: EnsembleSpec, lam: float) -> float:
    # E(lam) = sum g*eps*exp(-lam*eps) / sum g*exp(-lam*eps), computed with
    # a max shift so large lam (or negative energies) cannot overflow.
    a = -lam * spec.energies_float
    w = spec.weights_array * np.exp(a - a.max())
    return float((spec.energies_float @ w) / w.sum())


def _ref_solve_regime1_multipliers(spec: EnsembleSpec) -> tuple[float, float]:
    """Multipliers for the high-degeneracy boundary case.

    E(lam) is strictly decreasing, so lam comes from bisection on a bracket
    grown geometrically from [0, 1]; nu then has the closed form
    ln sum g_i exp(-lam*eps_i).
    """
    _ref_require_boundary(spec)
    target = float(spec.energy_cap)
    hi = 1.0
    for _ in range(_BRACKET_GROWTH_CAP):
        if _ref_mb_mean_energy(spec, hi) < target:
            break
        hi *= 2.0
    else:
        raise SolverError(f"no bracket for lam: E({hi}) still above {target}")
    lam = _bisect_monotone(lambda t: _ref_mb_mean_energy(spec, t), target,
                           0.0, hi, increasing=False)
    a = -lam * spec.energies_float
    shift = float(a.max())
    nu = shift + math.log(float((spec.weights_array * np.exp(a - shift)).sum()))
    return lam, nu


def _ref_zm_mean_energy(spec: EnsembleSpec, alpha: float) -> float:
    # E(alpha) = sum g*eps/(eps+alpha) / sum g/(eps+alpha); strictly
    # increasing on alpha > -eps_1, from eps_1 up to sum g*eps.
    denom = spec.energies_float + alpha
    w = spec.weights_array / denom
    return float((spec.energies_float @ w) / w.sum())


def _ref_solve_regime3_multipliers(spec: EnsembleSpec) -> tuple[float, float]:
    """Multipliers for the low-degeneracy boundary case via nu = lam*alpha.

    The substitution reduces the system to one monotone equation E(alpha)
    on (-eps_1, inf); lam = sum g_i/(eps_i+alpha) then makes sum x_i = 1
    exact by construction, and lam*eps_i + nu = lam*(eps_i+alpha) > 0.
    """
    _ref_require_boundary(spec)
    target = float(spec.energy_cap)
    eps1 = float(spec.energies[0])
    scale = max(1.0, abs(eps1))
    delta = scale
    for _ in range(_BRACKET_GROWTH_CAP):
        if _ref_zm_mean_energy(spec, -eps1 + delta) < target:
            break
        delta *= 0.25
    else:
        raise SolverError("no lower bracket for alpha near -eps_1")
    lo = -eps1 + delta
    hi = max(lo, scale)
    for _ in range(_BRACKET_GROWTH_CAP):
        if _ref_zm_mean_energy(spec, hi) > target:
            break
        hi = hi * 4.0 + scale
    else:
        raise SolverError(f"no upper bracket for alpha: E({hi}) below {target}")
    alpha = _bisect_monotone(lambda a: _ref_zm_mean_energy(spec, a), target,
                             lo, hi, increasing=True)
    lam = float((spec.weights_array / (spec.energies_float + alpha)).sum())
    nu = lam * alpha
    return lam, nu


def _ref_be_fractions(spec: EnsembleSpec, lam: float, nu: float) -> np.ndarray:
    t = lam * spec.energies_float + nu
    # bracket growth may probe the exponent floor t -> 0+, where the
    # fraction legitimately diverges; comparisons handle the inf
    with np.errstate(divide="ignore", over="ignore"):
        return spec.weights_array * spec.c / np.expm1(t)


def _ref_be_residual(spec: EnsembleSpec, lam: float, nu: float) -> np.ndarray:
    x = _ref_be_fractions(spec, lam, nu)
    return np.array([x.sum() - 1.0,
                     float(spec.energies_float @ x) - float(spec.energy_cap)])


def _ref_be_nu_for_lam(spec: EnsembleSpec, lam: float) -> float:
    # Inner solve of sum x_i = 1 in nu; the sum is strictly decreasing on
    # nu > -lam*eps_1 and covers (0, inf), so the bracket always closes.
    nu_floor = -lam * float(spec.energies[0])

    def total(nu):
        return float(_ref_be_fractions(spec, lam, nu).sum())

    delta = 1.0
    for _ in range(_BRACKET_GROWTH_CAP):
        if total(nu_floor + delta) > 1.0:
            break
        delta *= 0.25
    else:
        raise SolverError("inner nu bracket failed near nu -> -lam*eps_1")
    lo = nu_floor + delta
    hi = lo + 1.0
    for _ in range(_BRACKET_GROWTH_CAP):
        if total(hi) < 1.0:
            break
        hi = 2.0 * hi - nu_floor
    else:
        raise SolverError("inner nu bracket failed for large nu")
    return _bisect_monotone(total, 1.0, lo, hi, increasing=False)


def _ref_be_newton(spec: EnsembleSpec, lam: float, nu: float):
    eps = spec.energies_float
    gc = spec.weights_array * spec.c
    best = None
    for _ in range(100):
        resid = _ref_be_residual(spec, lam, nu)
        err = float(np.max(np.abs(resid)))
        if best is None or err < best[0]:
            best = (err, lam, nu)
        if err < 1e-13:
            return lam, nu
        x = _ref_be_fractions(spec, lam, nu)
        dx_dnu = -x * (1.0 + x / gc)
        dx_dlam = eps * dx_dnu
        jac = np.array([[dx_dlam.sum(), dx_dnu.sum()],
                        [eps @ dx_dlam, eps @ dx_dnu]])
        try:
            step = np.linalg.solve(jac, -resid)
        except np.linalg.LinAlgError:
            return None
        size = 1.0
        for _ in range(60):
            cand = (lam + size * step[0], nu + size * step[1])
            # stay where every exponent lam*eps_i + nu is positive
            if float(np.min(cand[0] * eps + cand[1])) > 0:
                cand_err = float(np.max(np.abs(_ref_be_residual(spec, *cand))))
                if cand_err < err:
                    lam, nu = cand
                    break
            size *= 0.5
        else:
            return None
    return None


def _ref_solve_regime2_multipliers(spec: EnsembleSpec,
                              initial: tuple[float, float] | None = None
                              ) -> tuple[float, float]:
    """Multipliers for the proportional boundary case.

    The two multipliers cannot be factorized, so the 2-D root of
    (sum x - 1, sum eps*x - E) is found by damped Newton with the analytic
    Jacobian; if Newton stalls, a nested bisection (outer lam, inner nu
    from the monotone normalization equation) recovers the unique root.
    """
    _ref_require_boundary(spec)
    if initial is None:
        lam0, _ = _ref_solve_regime1_multipliers(spec)
        initial = (lam0, _ref_be_nu_for_lam(spec, lam0))
    result = _ref_be_newton(spec, *initial)
    if result is not None:
        return result

    target = float(spec.energy_cap)

    def mean_energy(lam):
        x = _ref_be_fractions(spec, lam, _ref_be_nu_for_lam(spec, lam))
        return float(spec.energies_float @ x)

    lo = 1e-12
    hi = 1.0
    for _ in range(_BRACKET_GROWTH_CAP):
        if mean_energy(hi) < target:
            break
        hi *= 2.0
    else:
        raise SolverError(
            f"regime-2 fallback found no bracket; residual at lam={hi}: "
            f"{_ref_be_residual(spec, hi, _ref_be_nu_for_lam(spec, hi))}")
    lam = _bisect_monotone(mean_energy, target, lo, hi, increasing=False)
    nu = _ref_be_nu_for_lam(spec, lam)
    # Polish the bisection estimate; keep it if Newton declines to improve.
    polished = _ref_be_newton(spec, lam, nu)
    return polished if polished is not None else (lam, nu)


def _ref_x_star_from_multipliers(spec: EnsembleSpec, lam: float, nu: float) -> np.ndarray:
    """Stationarity solution for the spec's regime at given multipliers."""
    eps = spec.energies_float
    g = spec.weights_array
    if spec.regime is Regime.HIGH_DEGENERACY:
        return g * np.exp(-(lam * eps + nu))
    if spec.regime is Regime.PROPORTIONAL:
        return _ref_be_fractions(spec, lam, nu)
    return g / (lam * eps + nu)


_ref_INTERIOR_SOLVERS = {
    Regime.HIGH_DEGENERACY: lambda spec: 0.0,
    Regime.PROPORTIONAL: lambda spec: math.log1p(spec.c),
    Regime.LOW_DEGENERACY: lambda spec: 1.0,
}

_ref_BOUNDARY_SOLVERS = {
    Regime.HIGH_DEGENERACY: _ref_solve_regime1_multipliers,
    Regime.PROPORTIONAL: _ref_solve_regime2_multipliers,
    Regime.LOW_DEGENERACY: _ref_solve_regime3_multipliers,
}


def _ref_solve(spec) -> MaxEntSolution:
    kind = _ref_classify_maximum(spec)
    if kind is MaximumKind.INTERIOR:
        x = spec.weights_array.copy()
        lam, nu = 0.0, _ref_INTERIOR_SOLVERS[spec.regime](spec)
        residual_norm = abs(float(x.sum()) - 1.0)
        residual_energy = None
    else:
        lam, nu = _ref_BOUNDARY_SOLVERS[spec.regime](spec)
        x = _ref_x_star_from_multipliers(spec, lam, nu)
        residual_norm = abs(float(x.sum()) - 1.0)
        residual_energy = abs(float(spec.energies_float @ x)
                              - float(spec.energy_cap))
        if residual_norm > RESIDUAL_TOL or residual_energy > RESIDUAL_TOL:
            raise SolverError(
                f"multiplier solve left residuals (|sum x - 1|, |sum eps*x - E|)"
                f" = ({residual_norm:.3e}, {residual_energy:.3e})")
    if np.any(x <= 0.0):
        raise SolverError(f"solution left the positive simplex: {x}")
    x.setflags(write=False)
    return MaxEntSolution(x_star=x, kind=kind, lam=lam, nu=nu,
                          regime=spec.regime, residual_norm=residual_norm,
                          residual_energy=residual_energy)


# Test-only oracles over the limit entropy.

def _rows_limit_entropy(spec, x):
    """s_l over the rows of x, vectorized; a zero component contributes its
    limit, g_i c ln(g_i c) for proportional and 0 otherwise."""
    x = np.asarray(x, dtype=float)
    g = np.array(spec.weights)
    positive = x > 0.0
    xs = np.where(positive, x, 1.0)  # placeholder keeps logs finite
    at_zero = 0.0
    if spec.regime is Regime.HIGH_DEGENERACY:
        terms = xs * np.log(g / xs) + xs
    elif spec.regime is Regime.PROPORTIONAL:
        gc = g * spec.c
        terms = (xs + gc) * np.log(xs + gc) - xs * np.log(xs)
        at_zero = gc * np.log(gc)
    else:
        terms = g * np.log(xs) + g
    return np.where(positive, terms, at_zero).sum(axis=-1)


def kkt_stationarity_residual(spec: EnsembleSpec,
                              sol: MaxEntSolution) -> float:
    """Max-norm of grad s_l(x*) - (lam*eps + nu); ~0 at a valid solution."""
    grad = np.array(limit_entropy_grad(spec, sol.x_star))
    return float(np.max(np.abs(
        grad - (sol.lam * np.array(energies_float(spec)) + sol.nu))))


def oracle_grid_maximize(spec: EnsembleSpec, resolution: int = 1000) -> np.ndarray:
    """Brute-force maximizer of s_l over the capped simplex grid.

    Evaluates every feasible grid point {k/resolution} with all k_i >= 1
    (the optimization domain keeps x_i > 0), picks the best, and refines
    once on a 10x finer local subgrid.  Independent of the multiplier
    solvers; intended for verification at m <= 4.
    """
    if spec.m > 4:
        raise ValueError("grid oracle supports m <= 4")
    if resolution > 2000:
        raise ValueError("grid oracle supports resolution <= 2000")
    if math.comb(resolution + spec.m - 1, spec.m - 1) > 50_000_000:
        raise ValueError("grid too large; lower the resolution")
    if spec.m == 1:
        return np.array([1.0])
    states = enumerate_states(spec, resolution, budget=50_000_000)
    states = states[(states >= 1).all(axis=1)]
    if states.shape[0] == 0:
        raise SolverError("no strictly positive feasible grid point; "
                          "resolution too coarse for this spec")
    x = states / resolution
    best = x[int(np.argmax(_rows_limit_entropy(spec, x)))]
    return _refine_once(spec, best, resolution)


def _refine_once(spec: EnsembleSpec, x0: np.ndarray,
                 resolution: int) -> np.ndarray:
    m = spec.m
    sub = 1.0 / (10.0 * resolution)
    offsets = np.stack(np.meshgrid(*([np.arange(-10, 11)] * (m - 1)),
                                   indexing="ij"), axis=-1).reshape(-1, m - 1)
    cand = np.empty((offsets.shape[0], m))
    cand[:, : m - 1] = x0[: m - 1] + offsets * sub
    cand[:, m - 1] = 1.0 - cand[:, : m - 1].sum(axis=1)
    feasible = ((cand > 0.0).all(axis=1)
                & (cand @ energies_float(spec)
                   <= float(spec.energy_cap) + 1e-12))
    cand = cand[feasible]
    if cand.shape[0] == 0:
        return x0
    return cand[int(np.argmax(_rows_limit_entropy(spec, cand)))]
