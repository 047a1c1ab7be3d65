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
import numbers
import sys
import time
from datetime import datetime, timezone

from . import __version__
from .core import (
    WEIGHT_SUM_TOL,
    EnumerationBudgetError,
    SolverError,
    SpecValidationError,
    has_finite_float,
    make_spec,
)
from .entropy import approximation_error, scaling_factor
from .maxent import MaximumKind, classify_maximum, solve

# The array side (ensemble, fluctuations, sampler) and NumPy are imported
# inside the commands that use them, so `solve` and `entropy-probe` run on
# the standard library alone.
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
    for key in ("energies", "weights"):
        if not isinstance(_require(config, key), list):
            raise ConfigError(f"{key} must be a list, got {config[key]!r}")
    for key in ("c", "p"):
        value = config.get(key)
        if value is not None and (isinstance(value, bool)
                                  or not isinstance(value, (int, float))):
            raise ConfigError(f"{key} must be a number, got {value!r}")
    for key in ("energies", "weights", "energy_cap"):
        value = config.get(key)
        if any(isinstance(v, bool)
               for v in (value if isinstance(value, list) else [value])):
            raise ConfigError(f"{key} must be numbers or strings, not "
                              f"booleans, got {value!r}")
    try:
        return make_spec(
            energies=config["energies"],
            weights=config["weights"],
            energy_cap=_require(config, "energy_cap"),
            regime=_require(config, "regime"),
            c=config.get("c"),
            p=config.get("p"),
        )
    except (SpecValidationError, ValueError, TypeError,
            ArithmeticError) as exc:
        raise ConfigError(f"invalid spec: {exc}") from exc


def _integer(name: str, value, minimum: int) -> int:
    """value if it is an integer >= minimum (a boolean is not), else a
    config error."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, "
                          f"got {value!r}")
    return value


def _vector(name: str, value, m: int) -> tuple[float, ...]:
    """value as m finite floats; booleans and strings are config errors."""
    if (not isinstance(value, list) or len(value) != m
            or any(isinstance(v, bool) or not isinstance(v, (int, float))
                   for v in value)
            or not all(map(has_finite_float, value))):
        raise ConfigError(f"{name} must be a list of {m} finite numbers, "
                          f"got {value!r}")
    return tuple(float(v) for v in value)


def _n_list(config: dict) -> list[int]:
    ns = _require(config, "N_list")
    if (not isinstance(ns, list) or not ns
            or any(isinstance(n, bool) or not isinstance(n, int) or n < 1
                   for n in ns)):
        raise ConfigError("N_list must be a nonempty list of positive integers")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ConfigError("N_list must be strictly increasing")
    return ns


def _budget(args, config: dict) -> int:
    from .ensemble import DEFAULT_STATE_BUDGET
    budget = (args.budget if args.budget is not None
              else config.get("budget", DEFAULT_STATE_BUDGET))
    return _integer("budget", budget, 1)


def _seed(args, config: dict) -> int:
    return _integer("seed", args.seed if args.seed is not None
                    else config.get("seed", 0), 0)


def _format_cell(value) -> str:
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
        return repr(float(value))
    return str(value)


def _write_lines(out: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


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
    if workers > 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=multiprocessing.get_context("fork"),
                    initializer=_set_row, initargs=(fn,)) as pool:
                return list(pool.map(_run_row, items))
    return [fn(item) for item in items]


# Set only inside forked workers: the initializer's arguments reach a forked
# child by inheritance, not by pickling, so the parent's globals never change.
_row = None


def _set_row(fn) -> None:
    global _row
    _row = fn


def _run_row(item):
    return _row(item)


def _chain_config(config: dict, args):
    from .sampler import ChainConfig
    chain = config.get("chain", {})
    if not isinstance(chain, dict):
        raise ConfigError("chain must be a JSON object")
    minimum = {"steps": 1, "burn_in": 0, "thinning": 1}
    fields = {key: chain.get(key) for key in minimum}
    for key, value in fields.items():
        if value is not None:
            _integer(f"chain.{key}", value, minimum[key])
    seed = (_integer("chain.seed", chain["seed"], 0) if "seed" in chain
            else _seed(args, config))
    return ChainConfig(seed=seed, **fields)


def _fallback_chain(config: dict, args):
    """The chain config for rows past the budget, or None when the config
    does not set sampler_fallback."""
    fallback = config.get("sampler_fallback", False)
    if not isinstance(fallback, bool):
        raise ConfigError(f"sampler_fallback must be true or false, "
                          f"got {fallback!r}")
    return _chain_config(config, args) if fallback else None


def _run_chain(spec, n: int, cfg):
    from .sampler import metropolis_chain
    try:
        return metropolis_chain(spec, n, cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _distribution(spec, n: int, budget: int, chain_cfg):
    """The enumerated distribution at N; past the budget, chain draws when
    chain_cfg is given, else the budget error."""
    from .ensemble import build_distribution, draws_distribution
    try:
        return build_distribution(spec, n, budget=budget)
    except EnumerationBudgetError:
        if chain_cfg is None:
            raise
        return draws_distribution(spec, n, _run_chain(spec, n, chain_cfg))


def cmd_solve(args) -> int:
    config = _load_config(args.config)
    spec = _spec_from_config(config)
    sol = solve(spec)
    report = {
        "regime": sol.regime.value,
        "kind": sol.kind.value,
        "x_star": list(sol.x_star),
        "lam": sol.lam,
        "nu": sol.nu,
        "residual_norm": sol.residual_norm,
        "residual_energy": sol.residual_energy,
    }
    _write_lines(args.out, [json.dumps(report, indent=2, sort_keys=True)])
    return 0


def cmd_lln_sweep(args) -> int:
    import numpy as np

    from .ensemble import exact_mean, mgf

    config = _load_config(args.config)
    spec = _spec_from_config(config)
    ns = _n_list(config)
    xi_list = config.get("xi_list", [])
    if not isinstance(xi_list, list):
        raise ConfigError("xi_list must be a list of probes")
    probes = [np.array(_vector("xi probe", xi, spec.m)) for xi in xi_list]
    sol = solve(spec)
    x_star = np.array(sol.x_star)
    budget = _budget(args, config)
    chain_cfg = _fallback_chain(config, args)

    def one(n):
        start = time.perf_counter()
        dist = _distribution(spec, n, budget, chain_cfg)
        mean_err = float(np.max(np.abs(exact_mean(dist) - x_star)))
        mgf_errs = [abs(mgf(dist, xi) - math.exp(float(xi @ x_star)))
                    for xi in probes]
        return [n, mean_err, *mgf_errs, time.perf_counter() - start]

    rows = _map_ordered(one, ns, args.jobs)
    header = (["N", "mean_abs_err"]
              + [f"mgf_abs_err_{k}" for k in range(len(probes))]
              + ["wall_time_s"])
    comments = ["columns: max-norm |exact_mean - x_star|, then "
                "|mgf(xi) - exp(xi.x_star)| per probe; wall_time_s varies "
                "between runs"]
    if chain_cfg is not None:
        comments.append("sampler fallback enabled for N beyond the budget")
    comments += [f"xi_{k}={probes[k].tolist()}" for k in range(len(probes))]
    _write_csv(args.out, comments, header, rows)
    return 0


def cmd_fluct_check(args) -> int:
    from .fluctuations import (
        empirical_fluctuations,
        predict_boundary,
        predict_interior,
    )

    config = _load_config(args.config)
    spec = _spec_from_config(config)
    ns = _n_list(config)
    kind = classify_maximum(spec)
    budget = _budget(args, config)
    sol = solve(spec)
    m = spec.m
    if kind is MaximumKind.BOUNDARY:
        bad = [n for n in ns if n % spec.q != 0]
        if bad:
            raise ConfigError(
                f"boundary fluctuation runs need every N divisible by "
                f"q={spec.q}; offending N: {bad}")

    chain_cfg = _fallback_chain(config, args)

    def empirical(n):
        dist = _distribution(spec, n, budget, chain_cfg)
        return empirical_fluctuations(dist, sol, spec)

    if kind is MaximumKind.INTERIOR:
        pred = predict_interior(spec)
        pairs = [(i, j) for i in range(m - 1) for j in range(i, m - 1)]

        def one(n):
            start = time.perf_counter()
            cov = empirical(n).scaled_covariance
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

        def one(n):
            start = time.perf_counter()
            pred = predict_boundary(spec, n)
            got = empirical(n)
            masses, cov = got.layer_masses, got.scaled_covariance
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
    if chain_cfg is not None:
        comments.append("sampler fallback enabled for N beyond the budget")
    rows = _map_ordered(one, ns, args.jobs)
    _write_csv(args.out, comments, header, rows)
    return 0


def cmd_entropy_probe(args) -> int:
    config = _load_config(args.config)
    spec = _spec_from_config(config)
    ns = _n_list(config)
    x = _vector("x_probe", _require(config, "x_probe"), spec.m)
    if min(x) < 0.0 or abs(math.fsum(x) - 1.0) > WEIGHT_SUM_TOL:
        raise ConfigError(f"x_probe {list(x)} is not a point of the simplex: "
                          f"it needs x_i >= 0 summing to 1")
    for n in ns:
        if max(abs(v * n - round(v * n)) for v in x) > 1e-9:
            raise ConfigError(f"x_probe {list(x)} not representable at N={n}")

    def one(n):
        start = time.perf_counter()
        err = approximation_error(spec, n, x)
        return [n, scaling_factor(spec, n), err, time.perf_counter() - start]

    rows = _map_ordered(one, ns, args.jobs)
    _write_csv(args.out,
               [f"x_probe={list(x)}",
                "columns: h(N) and |S/h - s_l| offset-differenced at x_ref=g"],
               ["N", "h", "approx_error", "wall_time_s"], rows)
    return 0


def cmd_sample(args) -> int:
    from .ensemble import build_distribution
    from .sampler import exact_sample

    config = _load_config(args.config)
    spec = _spec_from_config(config)
    n = _integer("N", config.get("N"), 1)
    method = config.get("method", "exact")
    seed = _seed(args, config)
    budget = _budget(args, config)
    if method == "exact":
        count = _integer("count", config.get("count", 1000), 1)
        dist = build_distribution(spec, n, budget=budget)
        draws = exact_sample(dist, count, seed)
        comments = [f"method=exact count={count} seed={seed}"]
    elif method == "metropolis":
        chain = config.get("chain")
        if not isinstance(chain, dict) or "steps" not in chain:
            raise ConfigError("metropolis sampling needs chain:{steps,...}")
        cfg = _chain_config(config, args)
        draws = _run_chain(spec, n, cfg)
        comments = [f"method=metropolis steps={cfg.steps} seed={cfg.seed}"]
    else:
        raise ConfigError(f"unknown sampling method {method!r}")
    header = [f"N{k + 1}" for k in range(spec.m)]
    _write_csv(args.out, comments, header, draws.tolist())
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
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        return args.handler(args)
    except (ConfigError, SpecValidationError) as exc:
        json.dump({"error": "config", "detail": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except (SolverError, EnumerationBudgetError, ArithmeticError) as exc:
        json.dump({"error": "numeric", "detail": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
