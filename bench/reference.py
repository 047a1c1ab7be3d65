"""Reference values computed apart from the occens package.

Nothing here imports occens.  Every quantity the benchmark checks a CLI
output against is derived from the model's definition:

* the support is a brute-force filter of all compositions of N over m
  levels by the integer energy cap floor(q*E*N), in 1/q energy units;
* log-weights are sums of per-level ln C(k+G_i-1, k) from scipy's gammaln,
  normalised as w/sum(w) with w = exp(lw - max lw);
* the limit point x* and multipliers (lam, nu) come from scalar root finds
  with scipy's brentq on the stationarity conditions of each regime;
* predicted fluctuation columns come from the closed-form Hessians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import mpmath
import numpy as np
from scipy.optimize import brentq
from scipy.special import gammaln

# Unit roundoff of IEEE double precision.
U = 2.0 ** -53
# Candidate rows expanded at once when enumerating a support.
CHUNK_ROWS = 2_000_000


@dataclass(frozen=True)
class Spec:
    """A model instance in the same flat form as a CLI config."""

    energies: tuple[str, ...]
    weights: tuple[float, ...]
    cap: str
    regime: str
    c: float | None = None

    def config(self) -> dict:
        cfg = {"energies": list(self.energies), "weights": list(self.weights),
               "energy_cap": self.cap, "regime": self.regime}
        if self.c is not None:
            cfg["c"] = self.c
        return cfg

    @property
    def m(self) -> int:
        return len(self.energies)

    @cached_property
    def q(self) -> int:
        return math.lcm(*(Fraction(e).denominator for e in self.energies))

    @cached_property
    def units(self) -> np.ndarray:
        return np.array([int(Fraction(e) * self.q) for e in self.energies],
                        dtype=np.int64)

    @cached_property
    def eps(self) -> np.ndarray:
        return np.array([float(Fraction(e)) for e in self.energies])

    @cached_property
    def g(self) -> np.ndarray:
        return np.array(self.weights, dtype=float)

    @property
    def boundary(self) -> bool:
        threshold = sum(Fraction(w) * Fraction(e)
                        for w, e in zip(self.weights, self.energies))
        return Fraction(self.cap) < threshold

    def cap_units(self, n: int) -> int:
        return math.floor(self.q * Fraction(self.cap) * n)

    def total_degeneracy(self, n: int) -> int:
        """G(N): N^2, ceil(c*N) or ceil(sqrt(N)) for the default schedules."""
        if self.regime == "high_degeneracy":
            return n * n
        if self.regime == "proportional":
            return math.ceil(Fraction(self.c) * n)
        r = math.isqrt(n)
        return r if r * r == n else r + 1

    def h(self, n: int) -> int:
        """Entropy scale h(N): N, or G(N) in the low-degeneracy regime."""
        return self.total_degeneracy(n) if self.regime == "low_degeneracy" else n

    def degeneracies(self, n: int) -> np.ndarray:
        """Largest-remainder split of G(N) by weight, each level at least 1."""
        total = self.total_degeneracy(n)
        target = [Fraction(w) * total for w in self.weights]
        base = [math.floor(t) for t in target]
        order = sorted(range(self.m), key=lambda i: -(target[i] - base[i]))
        for i in order[: total - sum(base)]:
            base[i] += 1
        while min(base) == 0:
            base[base.index(max(base))] -= 1
            base[base.index(min(base))] += 1
        return np.array(base, dtype=np.int64)


def _extend(prefix: np.ndarray, n: int) -> np.ndarray:
    """Every way to append one more count to each prefix row."""
    reps = n - prefix.sum(axis=1) + 1
    base = np.repeat(prefix, reps, axis=0)
    starts = np.repeat(np.cumsum(reps) - reps, reps)
    k = np.arange(base.shape[0], dtype=np.int64) - starts
    return np.column_stack([base, k])


def enumerate_support(spec: Spec, n: int) -> np.ndarray:
    """Every count vector with sum N and energy within the cap, by filtering.

    Row order is lexicographic.  The last level takes what is left; the
    two last levels are expanded in chunks to bound memory.
    """
    cap = spec.cap_units(n)
    prefix = np.zeros((1, 0), dtype=np.int64)
    for level in range(spec.m - 2):
        prefix = _extend(prefix, n)
        prefix = prefix[prefix @ spec.units[: level + 1] <= cap]
    sizes = n - prefix.sum(axis=1) + 1
    bounds = np.searchsorted(np.cumsum(sizes),
                             np.arange(CHUNK_ROWS, sizes.sum(), CHUNK_ROWS))
    blocks = []
    for part in np.split(prefix, np.unique(bounds)):
        if part.shape[0] == 0:
            continue
        rows = _extend(part, n)
        rows = np.column_stack([rows, n - rows.sum(axis=1)])
        blocks.append(rows[rows @ spec.units <= cap])
    return np.concatenate(blocks, axis=0)


@dataclass
class Distribution:
    """Reference finite-N distribution and the moments the checks need."""

    spec: Spec
    n: int
    counts: np.ndarray
    pmf: np.ndarray
    log_scale: float   # largest |ln Gamma| value entering the log-weights

    @cached_property
    def fractions(self) -> np.ndarray:
        return self.counts / self.n

    @cached_property
    def mean(self) -> np.ndarray:
        return self.pmf @ self.fractions

    @cached_property
    def cov(self) -> np.ndarray:
        d = self.fractions - self.mean
        return (d * self.pmf[:, None]).T @ d

    def mgf(self, xi) -> float:
        return float(self.pmf @ np.exp(self.fractions @ np.asarray(xi)))

    def weighted_cov(self, y: np.ndarray) -> np.ndarray:
        d = y - self.pmf @ y
        return (d * self.pmf[:, None]).T @ d

    def layer_masses(self) -> np.ndarray:
        slack = self.spec.cap_units(self.n) - self.counts @ self.spec.units
        _, inverse = np.unique(slack, return_inverse=True)
        return np.bincount(inverse, weights=self.pmf)

    @property
    def eta(self) -> float:
        """Bound on the spread of log-weight rounding errors over the support.

        A log-weight is a sum of 3m log-factorial or log-gamma values of
        magnitude at most log_scale.  A value read from a cumulative table
        of ln k carries the rounding of the additions that built it; over a
        window of N consecutive entries that drift grows like sqrt(N)
        units of its last place.  Two states differ by at most N in each
        count, so their log-weight errors differ by at most
        3m*(sqrt(N)+2) ulps of log_scale, for either the program's table
        or this module's gammaln calls.
        """
        return 3 * self.spec.m * (math.sqrt(self.n) + 2) * 2 * U * self.log_scale


def build(spec: Spec, n: int) -> Distribution:
    counts = enumerate_support(spec, n)
    degs = spec.degeneracies(n)
    k = np.arange(n + 1, dtype=float)
    lw = np.zeros(counts.shape[0])
    scale = 0.0
    for i, g_i in enumerate(degs):
        level = gammaln(k + g_i) - gammaln(k + 1.0) - gammaln(float(g_i))
        scale = max(scale, float(gammaln(n + float(g_i))))
        lw += level[counts[:, i]]
    w = np.exp(lw - lw.max())
    return Distribution(spec, n, counts, w / w.sum(), max(scale, 1.0))


# ----------------------------------------------------------------------------
# Limit statistics


def limit_point(spec: Spec) -> tuple[np.ndarray, float, float]:
    """x*, lam, nu with grad s_l(x*) = lam*eps + nu, x* >= 0, sum x* = 1."""
    g, eps, cap = spec.g, spec.eps, float(Fraction(spec.cap))
    if not spec.boundary:
        nu = {"high_degeneracy": 0.0, "proportional": math.log1p(spec.c or 0.0),
              "low_degeneracy": 1.0}[spec.regime]
        return g.copy(), 0.0, nu
    if spec.regime == "high_degeneracy":
        def energy(lam):
            a = -lam * eps
            w = g * np.exp(a - a.max())
            return float(eps @ w / w.sum()) - cap
        lam = brentq(energy, 0.0, 200.0, xtol=1e-15, rtol=1e-15)
        nu = math.log(float(g @ np.exp(-lam * eps)))
    elif spec.regime == "proportional":
        gc = g * spec.c

        def fractions(lam, nu):
            with np.errstate(over="ignore"):
                return gc / np.expm1(lam * eps + nu)

        def nu_for(lam):
            floor = -lam * eps[0]
            return brentq(lambda nu: fractions(lam, nu).sum() - 1.0,
                          floor + 1e-300 + 1e-15 * max(1.0, abs(floor)),
                          floor + 200.0, xtol=1e-15, rtol=1e-15)

        lam = brentq(lambda lam: float(eps @ fractions(lam, nu_for(lam))) - cap,
                     1e-9, 200.0, xtol=1e-15, rtol=1e-15)
        nu = nu_for(lam)
    else:
        def energy(alpha):
            w = g / (eps + alpha)
            return float(eps @ w / w.sum()) - cap
        alpha = brentq(energy, -eps[0] + 1e-12, 1e6, xtol=1e-15, rtol=1e-15)
        lam = float((g / (eps + alpha)).sum())
        nu = lam * alpha
    return x_from_multipliers(spec, lam, nu), lam, nu


def x_from_multipliers(spec: Spec, lam: float, nu: float) -> np.ndarray:
    t = lam * spec.eps + nu
    if spec.regime == "high_degeneracy":
        return spec.g * np.exp(-t)
    if spec.regime == "proportional":
        return spec.g * spec.c / np.expm1(t)
    return spec.g / t


def limit_gradient(spec: Spec, x) -> np.ndarray:
    """Gradient of the regime's limit entropy s_l at x > 0."""
    x = np.asarray(x, dtype=float)
    if spec.regime == "high_degeneracy":
        return np.log(spec.g / x)
    if spec.regime == "proportional":
        return np.log1p(spec.g * spec.c / x)
    return spec.g / x


def hessian_diag(spec: Spec, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if spec.regime == "high_degeneracy":
        return -1.0 / x
    if spec.regime == "proportional":
        gc = spec.g * spec.c
        return -gc / (x * (x + gc))
    return -spec.g / (x * x)


def reduced_neg_hessian(spec: Spec, x) -> np.ndarray:
    """-Hessian of s_l in the first m-1 coordinates, x_m = 1 - sum."""
    d = hessian_diag(spec, x)
    return -(np.diag(d[:-1]) + d[-1])


def in_plane_direction(spec: Spec) -> np.ndarray:
    """Unit vector of the reduced m=3 plane orthogonal to the cap normal."""
    if spec.m != 3:
        raise ValueError("the in-plane reference is written for m = 3")
    w = spec.eps[:-1] - spec.eps[-1]
    v = np.array([-w[1], w[0]])
    return v / np.linalg.norm(v)


def predicted_interior_cov(spec: Spec) -> np.ndarray:
    return np.linalg.inv(reduced_neg_hessian(spec, spec.g))


def predicted_in_plane_var(spec: Spec, x_star) -> float:
    v = in_plane_direction(spec)
    return 1.0 / float(v @ reduced_neg_hessian(spec, x_star) @ v)


def predicted_layer_ratio(spec: Spec, lam: float, n: int) -> float:
    d = math.gcd(*(int(u - spec.units[0]) for u in spec.units[1:]))
    return math.exp(-lam * d / spec.q * spec.h(n) / n)


# ----------------------------------------------------------------------------
# Entropy approximation error at 40 digits


def approximation_error(spec: Spec, n: int, tenths: tuple[int, ...]
                        ) -> tuple[float, float]:
    """|S(x)/h - s_l(x) - (S(g)/h - s_l(g))| and its double-rounding bound.

    The probe is x = tenths/10 and the reference point is x = g, with
    S(x) = sum ln Gamma(N x_i + G_i) - ln Gamma(N x_i + 1) - ln Gamma(G_i).
    The bound covers what a double computation of the same expression can
    lose: each ln Gamma value and each partial sum rounds by a few units of
    the last place of the largest term, and the terms cancel down to a
    difference far smaller than themselves.  It is 8u times the sum of the
    absolute terms, divided by h, plus 8u times the limit-entropy terms.
    """
    with mpmath.workdps(40):
        degs = [mpmath.mpf(int(v)) for v in spec.degeneracies(n)]
        h = mpmath.mpf(spec.h(n))
        g = [mpmath.mpf(w) for w in spec.weights]
        c = mpmath.mpf(spec.c) if spec.c is not None else None
        probe = [mpmath.mpf(t) / 10 for t in tenths]
        magnitude = mpmath.mpf(0)
        limit_magnitude = mpmath.mpf(0)

        def gap(x):
            nonlocal magnitude, limit_magnitude
            s = mpmath.mpf(0)
            for x_i, g_i in zip(x, degs):
                terms = (mpmath.loggamma(n * x_i + g_i),
                         -mpmath.loggamma(n * x_i + 1), -mpmath.loggamma(g_i))
                s += sum(terms)
                magnitude += sum(abs(t) for t in terms)
            limit = []
            for x_i, w_i in zip(x, g):
                if spec.regime == "high_degeneracy":
                    limit.append(x_i * mpmath.log(w_i / x_i) + x_i)
                elif spec.regime == "proportional":
                    limit.append((x_i + w_i * c) * mpmath.log(x_i + w_i * c)
                                 - x_i * mpmath.log(x_i))
                else:
                    limit.append(w_i * mpmath.log(x_i) + w_i)
            limit_magnitude += sum(abs(t) for t in limit)
            return s / h - sum(limit)

        value = abs(gap(probe) - gap(g))
        bound = 8 * U * (magnitude / h + limit_magnitude)
        return float(value), float(bound)


# ----------------------------------------------------------------------------
# Chain diagnostics


def sokal_iat(series: np.ndarray, c: float = 5.0) -> float:
    """Integrated autocorrelation time with Sokal's automatic window.

    tau(M) = 1 + 2 sum_{t=1..M} rho(t), with M the smallest lag such that
    M >= c * tau(M) (Sokal 1997).  Units are the series' own spacing.
    """
    x = np.asarray(series, dtype=float)
    x = x - x.mean()
    n = x.size
    if n < 2 or not np.any(x):
        return 1.0
    f = np.fft.rfft(x, 2 * n)
    acf = np.fft.irfft(f * np.conj(f))[:n]
    rho = acf / acf[0]
    taus = 2.0 * np.cumsum(rho) - 1.0
    lags = np.arange(n)
    window = np.nonzero(lags >= c * taus)[0]
    m = int(window[0]) if window.size else n - 1
    return max(float(taus[m]), 1.0)
