"""Command-line driver for solve / sweep / verification workflows.

Experiment configs are flat JSON files; energies (and the energy cap) may
be given as exact rational strings like "3/2" to keep the constraint
lattice exact.  Results are persisted as JSON (solve) or CSV with a
`# schema=1` first line.  Exit status: 0 success, 1 numeric failure,
2 config error.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .core import EnumerationBudgetError, SolverError, SpecValidationError, make_spec
from .ensemble import DEFAULT_STATE_BUDGET, build_distribution, exact_mean, mgf
from .entropy import approximation_error, scaling_factor
from .fluctuations import (
    MaximumKind,
    empirical_fluctuations,
    predict_boundary,
    predict_interior,
    rotation_basis,
)
from .maxent import classify_maximum, solve
from .sampler import ChainConfig, exact_sample, metropolis_chain

CSV_SCHEMA_LINE = "# schema=1"


class ConfigError(ValueError):
    """Invalid experiment configuration (exit status 2)."""


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    return config


def _require(config: dict, key: str):
    if key not in config:
        raise ConfigError(f"config key {key!r} is required")
    return config[key]


def _spec_from_config(config: dict):
    try:
        return make_spec(
            energies=_require(config, "energies"),
            weights=_require(config, "weights"),
            energy_cap=_require(config, "energy_cap"),
            regime=_require(config, "regime"),
            c=config.get("c"),
            p=config.get("p"),
        )
    except (SpecValidationError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"invalid spec: {exc}") from exc


def _n_list(config: dict) -> list[int]:
    ns = _require(config, "N_list")
    if (not isinstance(ns, list) or not ns
            or any(not isinstance(n, int) or n < 1 for n in ns)):
        raise ConfigError("N_list must be a nonempty list of positive integers")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ConfigError("N_list must be strictly increasing")
    return ns


def _format_cell(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_lines(out: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _write_csv(out: str | None, comments: list[str], header: list[str],
               rows: list[list]) -> None:
    lines = [CSV_SCHEMA_LINE,
             f"# generated={datetime.now(timezone.utc).isoformat()}"]
    lines.extend(f"# {c}" for c in comments)
    lines.append(",".join(header))
    lines.extend(",".join(_format_cell(v) for v in row) for row in rows)
    _write_lines(out, lines)


def _map_ordered(fn, items, jobs: int):
    """[fn(item) for item in items], over up to `jobs` forked processes.

    Rows are closures over the parsed spec, solution and config, which cannot
    be pickled; forked workers inherit `fn` instead (see _run_row), and skip
    the re-import a spawned worker would pay, which is as long as a short
    row.  A row's exception is raised here, the first in item order.
    """
    workers = min(jobs, len(items))
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=multiprocessing.get_context("fork"),
                             initializer=_set_row, initargs=(fn,)) as pool:
        return list(pool.map(_run_row, items))


# Set only inside forked workers: the initializer's arguments reach a forked
# child by inheritance, not by pickling, so the parent's globals never change.
_row = None


def _set_row(fn) -> None:
    global _row
    _row = fn


def _run_row(item):
    return _row(item)


def _chain_config(config: dict, seed_flag: int | None) -> ChainConfig:
    chain = config.get("chain", {})
    if not isinstance(chain, dict):
        raise ConfigError("chain must be a JSON object")
    seed = chain.get("seed", seed_flag if seed_flag is not None
                     else config.get("seed", 0))
    steps = chain.get("steps")
    return ChainConfig(steps=None if steps is None else int(steps),
                       seed=int(seed), burn_in=chain.get("burn_in"),
                       thinning=chain.get("thinning"))


def _run_chain(spec, n: int, cfg: ChainConfig) -> np.ndarray:
    try:
        return metropolis_chain(spec, n, cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_solve(args) -> int:
    config = _load_config(args.config)
    spec = _spec_from_config(config)
    sol = solve(spec)
    report = {
        "regime": sol.regime.value,
        "kind": sol.kind.value,
        "x_star": [float(v) for v in sol.x_star],
        "lam": sol.lam,
        "nu": sol.nu,
        "residual_norm": sol.residual_norm,
        "residual_energy": sol.residual_energy,
    }
    _write_lines(args.out, [json.dumps(report, indent=2, sort_keys=True)])
    return 0


def cmd_lln_sweep(args) -> int:
    config = _load_config(args.config)
    spec = _spec_from_config(config)
    ns = _n_list(config)
    probes = [np.asarray(xi, dtype=float) for xi in config.get("xi_list", [])]
    for xi in probes:
        if xi.shape != (spec.m,):
            raise ConfigError(f"xi probe {xi.tolist()} must have length {spec.m}")
    sol = solve(spec)
    budget = args.budget or config.get("budget", DEFAULT_STATE_BUDGET)
    fallback = bool(config.get("sampler_fallback", False))
    chain_cfg = _chain_config(config, args.seed) if fallback else None

    def one(n):
        start = time.perf_counter()
        try:
            dist = build_distribution(spec, n, budget=budget)
            mean = exact_mean(dist)
            mgfs = [mgf(dist, xi) for xi in probes]
        except EnumerationBudgetError:
            if not fallback:
                raise
            frac = _run_chain(spec, n, chain_cfg) / n
            mean = frac.mean(axis=0)
            mgfs = [float(np.exp(frac @ xi).mean()) for xi in probes]
        mean_err = float(np.max(np.abs(mean - sol.x_star)))
        mgf_errs = [abs(v - math.exp(float(xi @ sol.x_star)))
                    for v, xi in zip(mgfs, probes)]
        return [n, mean_err, *mgf_errs, time.perf_counter() - start]

    rows = _map_ordered(one, ns, args.jobs)
    header = (["N", "mean_abs_err"]
              + [f"mgf_abs_err_{k}" for k in range(len(probes))]
              + ["wall_time_s"])
    comments = ["columns: max-norm |exact_mean - x_star|, then "
                "|mgf(xi) - exp(xi.x_star)| per probe; wall_time_s varies "
                "between runs"]
    if fallback:
        comments.append("sampler fallback enabled for N beyond the budget")
    comments += [f"xi_{k}={probes[k].tolist()}" for k in range(len(probes))]
    _write_csv(args.out, comments, header, rows)
    return 0


def cmd_fluct_check(args) -> int:
    config = _load_config(args.config)
    spec = _spec_from_config(config)
    ns = _n_list(config)
    kind = classify_maximum(spec)
    budget = args.budget or config.get("budget", DEFAULT_STATE_BUDGET)
    sol = solve(spec)
    m = spec.m
    if kind is MaximumKind.BOUNDARY:
        bad = [n for n in ns if n % spec.q != 0]
        if bad:
            raise ConfigError(
                f"boundary fluctuation runs need every N divisible by "
                f"q={spec.q}; offending N: {bad}")

    fallback = bool(config.get("sampler_fallback", False))
    chain_cfg = _chain_config(config, args.seed) if fallback else None

    def sampled_cov(n, project=None):
        frac = _run_chain(spec, n, chain_cfg) / n
        scale = math.sqrt(scaling_factor(spec, n))
        y = scale * (frac[:, : m - 1] - sol.x_star[: m - 1])
        if project is not None:
            y = y @ project
        centered = y - y.mean(axis=0)
        return frac, centered.T @ centered / centered.shape[0]

    if kind is MaximumKind.INTERIOR:
        pred = predict_interior(spec)
        pairs = [(i, j) for i in range(m - 1) for j in range(i, m - 1)]

        def one(n):
            start = time.perf_counter()
            try:
                dist = build_distribution(spec, n, budget=budget)
                cov = empirical_fluctuations(dist, sol, spec).scaled_covariance
            except EnumerationBudgetError:
                if not fallback:
                    raise
                _, cov = sampled_cov(n)
            emp = [float(cov[i, j]) for i, j in pairs]
            prd = [float(pred.covariance[i, j]) for i, j in pairs]
            return [n, *emp, *prd, time.perf_counter() - start]

        header = (["N"]
                  + [f"emp_cov_{i}_{j}" for i, j in pairs]
                  + [f"pred_cov_{i}_{j}" for i, j in pairs]
                  + ["wall_time_s"])
        comments = ["interior: covariance of sqrt(h(N))*(X - x_star), "
                    "reduced coordinates"]
    else:
        pairs = [(i, j) for i in range(m - 2) for j in range(i, m - 2)]
        in_plane = rotation_basis(spec)[:, 1:] if m > 2 else None

        def one(n):
            start = time.perf_counter()
            pred = predict_boundary(spec, n)
            try:
                dist = build_distribution(spec, n, budget=budget)
                summary = empirical_fluctuations(dist, sol, spec)
                masses = summary.layer_masses
                cov = summary.scaled_covariance
            except EnumerationBudgetError:
                if not fallback:
                    raise
                frac, cov = sampled_cov(n, project=in_plane)
                e = np.array(spec.energy_units, dtype=np.int64)
                slack = (spec.energy_cap_units(n)
                         - np.round(frac * n).astype(np.int64) @ e)
                _, tallies = np.unique(slack, return_counts=True)
                masses = tallies / tallies.sum()
            ratio10 = float(masses[1] / masses[0]) if masses.size > 1 else math.nan
            ratio21 = float(masses[2] / masses[1]) if masses.size > 2 else math.nan
            emp = [float(cov[i, j]) for i, j in pairs]
            prd = [float(pred.covariance[i, j]) for i, j in pairs]
            return [n, ratio10, ratio21, math.exp(pred.layer_log_ratio),
                    *emp, *prd, time.perf_counter() - start]

        header = (["N", "ratio_1_0", "ratio_2_1", "pred_ratio"]
                  + [f"emp_inplane_cov_{i}_{j}" for i, j in pairs]
                  + [f"pred_inplane_cov_{i}_{j}" for i, j in pairs]
                  + ["wall_time_s"])
        comments = ["boundary: adjacent layer-mass ratios vs "
                    "exp(layer_log_ratio); in-plane sqrt(h(N))-scaled covariance"]
    if fallback:
        comments.append("sampler fallback enabled for N beyond the budget")
    rows = _map_ordered(one, ns, args.jobs)
    _write_csv(args.out, comments, header, rows)
    return 0


def cmd_entropy_probe(args) -> int:
    config = _load_config(args.config)
    spec = _spec_from_config(config)
    ns = _n_list(config)
    x = np.asarray(_require(config, "x_probe"), dtype=float)
    if x.shape != (spec.m,):
        raise ConfigError(f"x_probe must have length {spec.m}")
    for n in ns:
        counts = x * n
        if np.max(np.abs(counts - np.round(counts))) > 1e-9:
            raise ConfigError(f"x_probe {x.tolist()} not representable at N={n}")

    def one(n):
        start = time.perf_counter()
        err = approximation_error(spec, n, x)
        return [n, scaling_factor(spec, n), err, time.perf_counter() - start]

    rows = _map_ordered(one, ns, args.jobs)
    _write_csv(args.out,
               [f"x_probe={x.tolist()}",
                "columns: h(N) and |S/h - s_l| offset-differenced at x_ref=g"],
               ["N", "h", "approx_error", "wall_time_s"], rows)
    return 0


def cmd_sample(args) -> int:
    config = _load_config(args.config)
    spec = _spec_from_config(config)
    n = config.get("N")
    if not isinstance(n, int) or n < 1:
        raise ConfigError("sample command needs a positive integer N")
    method = config.get("method", "exact")
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    budget = args.budget or config.get("budget", DEFAULT_STATE_BUDGET)
    if method == "exact":
        count = config.get("count", 1000)
        if not isinstance(count, int) or count < 1:
            raise ConfigError("exact sampling needs a positive integer count")
        dist = build_distribution(spec, n, budget=budget)
        draws = exact_sample(dist, count, seed)
        comments = [f"method=exact count={count} seed={seed}"]
    elif method == "metropolis":
        chain = config.get("chain")
        if not isinstance(chain, dict) or "steps" not in chain:
            raise ConfigError("metropolis sampling needs chain:{steps,...}")
        cfg = _chain_config(config, args.seed)
        draws = _run_chain(spec, n, cfg)
        comments = [f"method=metropolis steps={cfg.steps} seed={cfg.seed}"]
    else:
        raise ConfigError(f"unknown sampling method {method!r}")
    header = [f"N{k + 1}" for k in range(spec.m)]
    _write_csv(args.out, comments, header, [list(map(int, row)) for row in draws])
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="occens",
        description="occupancy-ensemble solver and verification workflows")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "solve": ("solve the limiting maximum-entropy problem", cmd_solve),
        "lln-sweep": ("mean/mgf convergence sweep over N_list", cmd_lln_sweep),
        "fluct-check": ("fluctuation predictions vs exact enumeration",
                        cmd_fluct_check),
        "entropy-probe": ("limit-entropy approximation error sweep",
                          cmd_entropy_probe),
        "sample": ("draw occupancies (exact inverse-CDF or Metropolis)",
                   cmd_sample),
    }
    for name, (help_text, handler) in specs.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to JSON config")
        cmd.add_argument("--out", default=None, help="output path (default stdout)")
        cmd.add_argument("--jobs", type=int, default=1,
                         help="per-N rows run in this many forked worker "
                              "processes")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the config seed")
        cmd.add_argument("--budget", type=int, default=None,
                         help="enumeration state budget")
        cmd.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, SpecValidationError) as exc:
        json.dump({"error": "config", "detail": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except (SolverError, EnumerationBudgetError, ArithmeticError,
            np.linalg.LinAlgError) as exc:
        json.dump({"error": "numeric", "detail": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
