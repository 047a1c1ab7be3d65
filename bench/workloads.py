"""The benchmark's workloads: fixed sequences of occens CLI invocations.

Each invocation is an Op.  `prepare()` computes its reference values with
the independent code in reference.py, before any timing starts; `check()`
reads the invocation's output file and returns the list of problems found
(empty when the output is correct).  The seed only picks chain seeds, the
exact-sampling seed, mgf probes and the entropy probe point, so every seed
asks for the same amount of work.
"""

from __future__ import annotations

import io
import json
import math
from fractions import Fraction

import numpy as np

import reference as ref

M3_ENERGIES = ("1", "2", "3")
M3_WEIGHTS = (0.3, 0.4, 0.3)
BOUNDARY_CAP = "8/5"
INTERIOR_CAP = "5/2"
REGIMES = ("high_degeneracy", "proportional", "low_degeneracy")

# Exact rows of high_degeneracy stop at N=1000: past log Z ~ 8192 the
# program's pmf-sum check can reject the spec (see CHANGES.md).
HD_LADDER = [250, 500, 1000]
LADDER = [500, 1000, 2000, 3000]
# Interior rows at N=3000 hold 3.9M states; stopping at 2000 keeps a round
# of exact-fluct near 10 s.
INTERIOR_LADDER = [500, 1000, 2000]
M4_LADDER = [50, 100, 200, 250]
PROBE_LADDER = [10, 100, 1_000, 10_000, 100_000, 1_000_000]
EXACT_BUDGET = 100_000_000
FALLBACK_BUDGET = 1_000

# Chain blocks: burn-in is at least 15 integrated autocorrelation times
# (about 6.5e3 steps for high_degeneracy at N=5000, 1.3e4 for proportional
# at N=5000, 4e3 for low_degeneracy at N=300) and every chain keeps some
# 40 to 150 effective samples.
HD_CHAIN = {"steps": 600_000, "burn_in": 100_000, "thinning": 100}
PROP_CHAIN = {"steps": 1_200_000, "burn_in": 200_000, "thinning": 100}
LOW_CHAIN = {"steps": 600_000, "burn_in": 100_000, "thinning": 100}
HD_CHAIN_NS = [5000, 2500]
LOW_CHAIN_N = 300

# A draw mean may sit this many standard errors from the exact mean.  On
# 8 seeds x 4 chain blocks the observed |z| had rms 0.8 and max 2.1 (the
# windowed IAT errs high), so a false failure at 6 is not expected.
Z_BOUND = 6.0
# Tolerances on limit-point identities (solve output).
SOLVE_TOL = 1e-10
LSQ_TOL = 1e-8
# Allowance for the two independent x* solves to differ (brentq vs the
# program's bisection/Newton; both converge to ~1e-14).
X_STAR_TOL = 1e-12


def m3(regime: str, cap: str) -> ref.Spec:
    return ref.Spec(M3_ENERGIES, M3_WEIGHTS, cap, regime,
                    1.0 if regime == "proportional" else None)


M4 = ref.Spec(("1", "2", "3", "4"), (0.1, 0.2, 0.3, 0.4), "5/2",
              "proportional", 1.0)


def read_csv(path) -> tuple[list[str], np.ndarray]:
    lines = [ln for ln in open(path, encoding="utf-8").read().splitlines()
             if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    body = np.loadtxt(io.StringIO("\n".join(lines[1:])), delimiter=",",
                      ndmin=2) if len(lines) > 1 else np.empty((0, len(header)))
    return header, body


def _close(name: str, got: float, want: float, tol: float) -> list[str]:
    if not abs(got - want) <= tol:
        return [f"{name}: got {got!r}, reference {want!r}, tolerance {tol:.3e}"]
    return []


class Op:
    """One CLI invocation with its config and output checks."""

    command = ""
    jobs = 1

    def __init__(self, label: str, spec: ref.Spec, **config):
        self.label = label
        self.spec = spec
        self.config = {**spec.config(), **config}

    def prepare(self) -> None:
        """Compute reference values; called once, before timing starts."""

    def start(self) -> None:
        """Forget results of the previous round; called before each run."""

    def check(self, path) -> list[str]:
        raise NotImplementedError


class Solve(Op):
    command = "solve"

    def prepare(self):
        self.x_star, self.lam, self.nu = ref.limit_point(self.spec)

    def check(self, path):
        rep = json.load(open(path, encoding="utf-8"))
        x = np.array(rep["x_star"], dtype=float)
        spec = self.spec
        out = []
        if x.shape != (spec.m,) or np.any(x < 0):
            return [f"x_star {x} is not a point of the simplex"]
        out += _close("sum x_star", float(x.sum()), 1.0, SOLVE_TOL)
        if spec.boundary:
            out += _close("eps.x_star", float(spec.eps @ x),
                          float(Fraction(spec.cap)), SOLVE_TOL)
        elif not np.array_equal(x, spec.g):
            out.append(f"interior x_star {x.tolist()} differs from g")
        # grad s_l(x*) = lam*eps + nu: fit (lam, nu) by least squares.
        design = np.column_stack([spec.eps, np.ones(spec.m)])
        grad = ref.limit_gradient(spec, x)
        (lam, nu), *_ = np.linalg.lstsq(design, grad, rcond=None)
        resid = float(np.max(np.abs(design @ [lam, nu] - grad)))
        if not resid <= LSQ_TOL:
            out.append(f"gradient not affine in eps: residual {resid:.3e}")
        out += _close("lam", rep["lam"], lam, LSQ_TOL * max(1.0, abs(lam)))
        out += _close("nu", rep["nu"], nu, LSQ_TOL * max(1.0, abs(nu)))
        err = float(np.max(np.abs(x - self.x_star)))
        if not err <= X_STAR_TOL:
            out.append(f"x_star differs from the independent solve by {err:.3e}")
        return out


class ExactRows(Op):
    """A sweep over an N ladder, one CSV row per N.

    prepare() fills self.expect[n] with one (reference, tolerance) pair per
    column between N and wall_time_s.
    """

    def __init__(self, label, spec, n_list, **config):
        super().__init__(label, spec, N_list=list(n_list), **config)
        self.n_list = list(n_list)

    def _rows(self, path, columns):
        header, body = read_csv(path)
        if header != columns:
            raise ValueError(f"header {header}, expected {columns}")
        if body.shape[0] != len(self.n_list) or list(body[:, 0]) != self.n_list:
            raise ValueError(f"N column {body[:, 0].tolist()}, expected {self.n_list}")
        return dict(zip(self.n_list, body))

    def check(self, path):
        columns = self.columns()
        out = []
        for n, row in self._rows(path, columns).items():
            for (want, tol), got, name in zip(self.expect[n], row[1:-1],
                                              columns[1:-1]):
                out += _close(f"N={n} {name}", float(got), want, tol)
        return out


def mean_tolerance(dist: ref.Distribution, f: np.ndarray) -> float:
    """Bound on the difference of two double-rounded means of f.

    Log-weights perturbed by at most eta (spread over the support) move a
    mean by at most (exp(2 eta) - 1) E|f - Ef| <= 2.0001 eta sd(f); the
    program and the reference each contribute one such error, and the sums
    themselves round by a few ulps of max|f|.
    """
    mean = dist.pmf @ f
    sd = math.sqrt(max(float(dist.pmf @ (f - mean) ** 2), 0.0))
    return 4.001 * dist.eta * sd + 64 * ref.U * float(np.max(np.abs(f)))


class LlnSweep(ExactRows):
    command = "lln-sweep"

    def __init__(self, label, spec, n_list, xi_list, **config):
        super().__init__(label, spec, n_list, xi_list=xi_list, **config)
        self.xi = [np.array(v, dtype=float) for v in xi_list]

    def prepare(self):
        x_star, _, _ = ref.limit_point(self.spec)
        self.expect = {}
        for n in self.n_list:
            dist = ref.build(self.spec, n)
            # The reported max may sit on another coordinate than the
            # reference's, so allow the largest per-coordinate tolerance.
            tol = max(mean_tolerance(dist, dist.fractions[:, i])
                      for i in range(self.spec.m))
            row = [(float(np.max(np.abs(dist.mean - x_star))), tol + X_STAR_TOL)]
            for xi in self.xi:
                a = np.exp(dist.fractions @ xi)
                target = math.exp(float(xi @ x_star))
                row.append((abs(dist.mgf(xi) - target),
                            mean_tolerance(dist, a)
                            + target * np.abs(xi).sum() * X_STAR_TOL))
            self.expect[n] = row

    def columns(self):
        return (["N", "mean_abs_err"]
                + [f"mgf_abs_err_{k}" for k in range(len(self.xi))]
                + ["wall_time_s"])



class FluctCheck(ExactRows):
    command = "fluct-check"

    def prepare(self):
        spec = self.spec
        x_star, lam, _ = ref.limit_point(spec)
        self.expect = {}
        for n in self.n_list:
            dist = ref.build(spec, n)
            if spec.boundary:
                masses = dist.layer_masses()
                v = ref.in_plane_direction(spec)
                y = math.sqrt(n) * (dist.fractions[:, :2] - x_star[:2]) @ v
                emp = float(dist.weighted_cov(y[:, None])[0, 0])
                sd_y = math.sqrt(emp)
                self.expect[n] = [
                    (masses[1] / masses[0], 8.001 * dist.eta * masses[1] / masses[0]),
                    (masses[2] / masses[1], 8.001 * dist.eta * masses[2] / masses[1]),
                    (ref.predicted_layer_ratio(spec, lam, n), 1e-12),
                    (emp, 8.001 * dist.eta * sd_y * sd_y
                     + 64 * ref.U * float(np.max(y * y))),
                    (ref.predicted_in_plane_var(spec, x_star), 1e-12),
                ]
            else:
                y = math.sqrt(spec.h(n)) * (dist.fractions[:, :2] - x_star[:2])
                cov = dist.weighted_cov(y)
                pred = ref.predicted_interior_cov(spec)
                sd = np.sqrt(np.diag(cov))
                pairs = [(0, 0), (0, 1), (1, 1)]
                emp = [(cov[i, j], 8.001 * dist.eta * sd[i] * sd[j]
                        + 64 * ref.U * float(np.max(y * y))) for i, j in pairs]
                self.expect[n] = emp + [(pred[i, j], 1e-12) for i, j in pairs]

    def columns(self):
        if self.spec.boundary:
            return ["N", "ratio_1_0", "ratio_2_1", "pred_ratio",
                    "emp_inplane_cov_0_0", "pred_inplane_cov_0_0", "wall_time_s"]
        pairs = ["0_0", "0_1", "1_1"]
        return (["N"] + [f"emp_cov_{p}" for p in pairs]
                + [f"pred_cov_{p}" for p in pairs] + ["wall_time_s"])



class EntropyProbe(ExactRows):
    command = "entropy-probe"

    def __init__(self, label, spec, n_list, tenths):
        super().__init__(label, spec, n_list,
                         x_probe=[t / 10 for t in tenths])
        self.tenths = tuple(tenths)

    def prepare(self):
        self.expect = {n: ref.approximation_error(self.spec, n, self.tenths)
                       for n in self.n_list}

    def check(self, path):
        rows = self._rows(path, ["N", "h", "approx_error", "wall_time_s"])
        out = []
        for n, (_, h, err, _) in rows.items():
            if h != self.spec.h(n):
                out.append(f"N={n} h: got {h!r}, exact {self.spec.h(n)}")
            want, bound = self.expect[n]
            out += _close(f"N={n} approx_error", float(err), want, bound)
        return out


def _draw_problems(spec: ref.Spec, n: int, draws: np.ndarray) -> list[str]:
    if draws.ndim != 2 or draws.shape[1] != spec.m:
        return [f"draws have shape {draws.shape}"]
    out = []
    if np.any(draws < 0) or np.any(draws.sum(axis=1) != n):
        out.append("a draw has a negative count or does not sum to N")
    if np.any(draws.astype(np.int64) @ spec.units > spec.cap_units(n)):
        out.append("a draw exceeds the energy cap")
    return out


class ExactSample(Op):
    command = "sample"

    def __init__(self, label, spec, n, count, seed):
        super().__init__(label, spec, N=n, method="exact", count=count,
                         seed=seed, budget=EXACT_BUDGET)
        self.n, self.count = n, count

    def prepare(self):
        dist = ref.build(self.spec, self.n)
        self.mean = dist.mean
        self.se = np.sqrt(np.diag(dist.cov) / self.count)

    def check(self, path):
        _, draws = read_csv(path)
        out = _draw_problems(self.spec, self.n, draws)
        if draws.shape[0] != self.count:
            out.append(f"{draws.shape[0]} draws, expected {self.count}")
        if out:
            return out
        mean = draws.mean(axis=0) / self.n
        for i in range(self.spec.m):
            out += _close(f"mean x_{i}", float(mean[i]), float(self.mean[i]),
                          Z_BOUND * float(self.se[i]))
        return out


class ChainSample(Op):
    """Metropolis draws; remembers its last IAT for a paired fallback row."""

    command = "sample"

    def __init__(self, label, spec, n, chain):
        super().__init__(label, spec, N=n, method="metropolis", chain=chain)
        self.n, self.chain = n, chain
        self.iat = None

    def prepare(self):
        dist = ref.build(self.spec, self.n)
        self.mean = dist.mean
        self.sd = np.sqrt(np.diag(dist.cov))

    def kept(self) -> int:
        c = self.chain
        return len(range(c["burn_in"], c["steps"], c["thinning"]))

    def start(self):
        self.iat = None

    def check(self, path):
        _, draws = read_csv(path)
        out = _draw_problems(self.spec, self.n, draws)
        if draws.shape[0] != self.kept():
            out.append(f"{draws.shape[0]} draws, expected {self.kept()}")
        if out:
            return out
        x = draws / self.n
        self.iat = np.array([ref.sokal_iat(x[:, i]) for i in range(self.spec.m)])
        mcse = self.sd * np.sqrt(self.iat / x.shape[0])
        for i in range(self.spec.m):
            out += _close(f"mean x_{i}", float(x[:, i].mean()),
                          float(self.mean[i]), Z_BOUND * float(mcse[i]))
        return out


class FallbackSweep(ExactRows):
    """lln-sweep whose rows all come from the chain.

    A fallback row at N runs the same chain as the ChainSample paired with
    it (same spec, N and chain block), so that sample's Sokal IAT gives the
    row's MCSE.  max_i |mean_i - x*_i| then lies within Z_BOUND*max MCSE of
    the exact max_i |mu_i - x*_i| by the triangle inequality.
    """

    command = "lln-sweep"
    jobs = 2

    def __init__(self, label, spec, pairs, chain):
        super().__init__(label, spec, [p.n for p in pairs],
                         sampler_fallback=True, budget=FALLBACK_BUDGET,
                         chain=chain)
        self.pairs = pairs

    def prepare(self):
        x_star, _, _ = ref.limit_point(self.spec)
        self.expect = {p.n: float(np.max(np.abs(p.mean - x_star)))
                       for p in self.pairs}

    def check(self, path):
        rows = self._rows(path, ["N", "mean_abs_err", "wall_time_s"])
        out = []
        for pair in self.pairs:
            if pair.iat is None:
                out.append(f"N={pair.n}: paired sample gave no IAT")
                continue
            mcse = pair.sd * np.sqrt(pair.iat / pair.kept())
            out += _close(f"N={pair.n} mean_abs_err", float(rows[pair.n][1]),
                          self.expect[pair.n],
                          Z_BOUND * float(mcse.max()) + X_STAR_TOL)
        return out


def _xi(rng, m):
    return [round(float(v), 3) for v in rng.uniform(-1.0, 1.0, size=m)]


def _tenths(rng):
    """A random composition of 10 into three positive parts."""
    a, b = sorted(int(v) for v in rng.choice(np.arange(1, 10), 2, replace=False))
    return (a, b - a, 10 - b)


def _solves(specs) -> list[Op]:
    return [Solve(f"solve {s.regime} m={s.m} cap={s.cap}", s) for s in specs]


def exact_lln(seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    specs = [m3(r, BOUNDARY_CAP) for r in REGIMES]
    ops = _solves(specs + [M4])
    for spec in specs:
        ladder = HD_LADDER if spec.regime == "high_degeneracy" else LADDER
        ops.append(LlnSweep(f"lln-sweep {spec.regime}", spec, ladder,
                            [_xi(rng, 3)], budget=EXACT_BUDGET))
    ops.append(LlnSweep("lln-sweep m=4 proportional", M4, M4_LADDER,
                        [_xi(rng, 4)], budget=EXACT_BUDGET))
    tenths = _tenths(rng)
    ops += [EntropyProbe(f"entropy-probe {s.regime}", s, PROBE_LADDER, tenths)
            for s in specs]
    ops.append(ExactSample("sample exact proportional", specs[1], 1000, 20_000,
                           int(rng.integers(1, 2**31))))
    return ops


def exact_fluct(seed: int) -> list[Op]:
    # The low_degeneracy boundary case is left out: the program scales its
    # in-plane coordinates by sqrt(N) where the prediction uses sqrt(h(N))
    # (see CHANGES.md).
    cases = [("high_degeneracy", BOUNDARY_CAP), ("proportional", BOUNDARY_CAP),
             ("high_degeneracy", INTERIOR_CAP), ("proportional", INTERIOR_CAP),
             ("low_degeneracy", INTERIOR_CAP)]
    specs = [m3(r, cap) for r, cap in cases]
    ops = _solves(specs)
    for spec in specs:
        ladder = (HD_LADDER if spec.regime == "high_degeneracy"
                  else LADDER if spec.boundary else INTERIOR_LADDER)
        ops.append(FluctCheck(f"fluct-check {spec.regime} cap={spec.cap}",
                              spec, ladder, budget=EXACT_BUDGET))
    return ops


def chain(seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 3])
    hd, prop, low = (m3(r, BOUNDARY_CAP) for r in REGIMES)
    hd_chain = dict(HD_CHAIN, seed=int(rng.integers(1, 2**31)))
    pairs = [ChainSample(f"sample metropolis {hd.regime} N={n}", hd, n, hd_chain)
             for n in HD_CHAIN_NS]
    ops = _solves([hd, prop, low]) + pairs
    ops.append(ChainSample(f"sample metropolis {prop.regime} N=5000", prop,
                           5000, dict(PROP_CHAIN, seed=int(rng.integers(1, 2**31)))))
    ops.append(ChainSample(f"sample metropolis {low.regime} N={LOW_CHAIN_N}",
                           low, LOW_CHAIN_N,
                           dict(LOW_CHAIN, seed=int(rng.integers(1, 2**31)))))
    ops.append(FallbackSweep(f"lln-sweep fallback {hd.regime} --jobs 2", hd,
                             sorted(pairs, key=lambda p: p.n), hd_chain))
    return ops


WORKLOADS = {"exact-lln": exact_lln, "exact-fluct": exact_fluct, "chain": chain}
