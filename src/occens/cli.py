"""Command-line driver for solve / sweep / verification workflows.

Every command reads one flat JSON config, the only source of its settings,
whose keys are those of CONFIG_KEYS: the table gives what each value must
be and its default, and the whole config is checked against it before any
command runs.  Energies (and the energy cap) may be exact rational strings
like "3/2" to keep the constraint lattice exact.  Results are persisted as
JSON (solve) or CSV with a `# schema=1` first line.  Exit status: 0
success, 1 numeric failure or failed allocation, 2 config error (a
command-line error included), found before any row or draw runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from datetime import datetime, timezone

from . import __version__
from .core import (
    DEFAULT_STATE_BUDGET,
    WEIGHT_SUM_TOL,
    EnumerationBudgetError,
    Regime,
    SolverError,
    SpecValidationError,
    degeneracies_for,
    has_finite_float,
    make_spec,
)
from .entropy import approximation_error, scaling_factor
from .maxent import MaximumKind, solve

# The array side (ensemble, fluctuations, sampler) and NumPy are imported
# inside the commands that use them, so `solve` and `entropy-probe` run on
# the standard library alone.
CSV_SCHEMA_LINE = "# schema=1"


class ConfigError(ValueError):
    """Invalid experiment configuration (exit status 2)."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def _is_exact(value) -> bool:
    """A number or a rational string: what make_spec reads as a Fraction."""
    return _is_number(value) or isinstance(value, str)


def _is_vector(value, m: int) -> bool:
    """m numbers that each have a finite float."""
    return (isinstance(value, list) and len(value) == m
            and all(map(_is_number, value))
            and all(map(has_finite_float, value)))


def _at_least(minimum: int, default=None):
    return (f"an integer >= {minimum}",
            lambda v, m: _is_int(v) and v >= minimum, default)


def _check_chain(chain: dict, m: int) -> bool:
    """The chain block's keys, then burn_in < steps <= sys.maxsize (the most
    steps a chain indexes) for those given; ChainConfig.resolve fills in
    the rest without conflict."""
    _check(CHAIN_KEYS, chain, m, "chain.")
    steps = chain.get("steps", sys.maxsize)
    if not chain.get("burn_in", -1) < steps <= sys.maxsize:
        raise ConfigError(f"chain needs burn_in < steps <= {sys.maxsize}, "
                          f"got {chain}")
    return True


# Every config key: (what its value must be, its test of a value v for a spec
# of m levels, its default).  A default of ... marks a key every command
# needs; None leaves the key unset: c and p then default by regime, the chain
# fields from (N, m), and N_list, x_probe and N are required by the commands
# that read them.  The spec keys come first, in make_spec's order.
_REGIMES = tuple(regime.value for regime in Regime)
_EXACT_LIST = ("a list of numbers or rational strings",
               lambda v, m: isinstance(v, list) and all(map(_is_exact, v)), ...)
_NUMBER = ("a number, or null", lambda v, m: v is None or _is_number(v), None)
CHAIN_KEYS = {"steps": _at_least(1), "burn_in": _at_least(0),
              "thinning": _at_least(1), "seed": _at_least(0)}
CONFIG_KEYS = {
    "energies": _EXACT_LIST,
    "weights": _EXACT_LIST,
    "energy_cap": ("a number or a rational string", lambda v, m: _is_exact(v), ...),
    "regime": (f"one of {', '.join(_REGIMES)}", lambda v, m: v in _REGIMES, ...),
    "c": _NUMBER,
    "p": _NUMBER,
    "N_list": ("a strictly increasing nonempty list of positive integers",
               lambda v, m: isinstance(v, list) and v and all(map(_is_int, v))
               and v[0] >= 1 and all(a < b for a, b in zip(v, v[1:])), None),
    "xi_list": ("a list of lists of m finite numbers", lambda v, m:
                isinstance(v, list) and all(_is_vector(x, m) for x in v), []),
    "x_probe": ("a point of the simplex: m finite numbers >= 0 summing to 1",
                lambda v, m: _is_vector(v, m) and all(x >= 0 for x in v)
                and abs(math.fsum(v) - 1.0) <= WEIGHT_SUM_TOL, None),
    "budget": _at_least(1, DEFAULT_STATE_BUDGET),
    "seed": _at_least(0, 0),
    "sampler_fallback": ("true or false", lambda v, m: isinstance(v, bool), False),
    "chain": (f"an object with keys among {', '.join(CHAIN_KEYS)}", lambda v, m:
              isinstance(v, dict) and _check_chain(v, m), {}),
    "N": _at_least(1),
    "count": ("an integer >= 1 whose count*m int64 draws fit one array",
              lambda v, m: _is_int(v) and v >= 1 and v * m * 8 <= sys.maxsize,
              1000),
    "method": ("exact or metropolis",
               lambda v, m: v in ("exact", "metropolis"), "exact"),
}
_SPEC_KEYS = list(CONFIG_KEYS)[:6]


def _check(table: dict, values: dict, m: int, prefix: str = "",
           required=()) -> bool:
    """True if values holds the keys defaulting to ..., those `required`
    and no others, each passing its test; else the config error naming the
    first that does not."""
    unknown = [prefix + key for key in sorted(set(values) - set(table))]
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown}; the keys are "
                          f"{[prefix + key for key in table]}")
    for key, (what, test, default) in table.items():
        if key not in values:
            if default is ... or key in required:
                raise ConfigError(f"config key {key!r} is required")
        elif not test(values[key], m):
            raise ConfigError(f"{prefix}{key} must be {what}, "
                              f"got {values[key]!r}")
    return True


def _read_config(args):
    """The spec and the config, its defaults filled in, from --config."""
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8 or JSON
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    energies = config.get("energies")
    _check(CONFIG_KEYS, config,
           len(energies) if isinstance(energies, list) else 0,
           required=args.required)
    config = {**{key: default for key, (_, _, default)
                 in CONFIG_KEYS.items()}, **config}
    try:
        spec = make_spec(**{key: config[key] for key in _SPEC_KEYS})
    except (ValueError, TypeError, ArithmeticError) as exc:
        raise ConfigError(f"invalid spec: {exc}") from exc
    return spec, config


def _check_out(out: str | None) -> None:
    """Fail on an --out that cannot be written before any work is done; a
    file that is there is neither truncated nor removed, and one that was
    not is removed again."""
    if out is None:
        return
    existed = os.path.lexists(out)
    try:
        with open(out, "a", encoding="utf-8"):
            pass
        if not existed:
            os.remove(out)
    except OSError as exc:
        raise ConfigError(f"cannot write --out {out}: {exc}") from exc


def _write_lines(out: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write --out {out}: {exc}") from exc


def _write_csv(out: str | None, comments: list[str], header: list[str],
               rows: list[list]) -> None:
    lines = [CSV_SCHEMA_LINE,
             f"# generated={datetime.now(timezone.utc).isoformat()}"]
    lines.extend(f"# {c}" for c in comments)
    lines.append(",".join(header))
    # every cell is a Python int or float, whose str is its shortest repr
    lines.extend(",".join(map(str, row)) for row in rows)
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


def _accumulate(spec, n: int, config: dict, acc) -> None:
    """Add the enumerated support at N to acc; past the budget, `count`
    i.i.d. draws each weighted 1 when the config sets sampler_fallback, else
    the budget error, raised before any block is weighed."""
    from .ensemble import accumulate_support
    try:
        accumulate_support(acc, budget=config["budget"])
    except EnumerationBudgetError:
        if not config["sampler_fallback"]:
            raise
        import numpy as np

        from .sampler import iid_draws
        draws = iid_draws(spec, n, config["count"], config["seed"])
        acc.add(draws, np.ones(draws.shape[0]))


def cmd_solve(args, spec, config) -> int:
    # the enums are str subclasses, so they are written as their values
    report = dataclasses.asdict(solve(spec))
    _write_lines(args.out, [json.dumps(report, indent=2, sort_keys=True)])
    return 0


def _sweep(setup):
    """A per-N command: setup(spec, config, ns) gives the columns between N
    and wall_time_s, a row(n) giving their cells, and the comment lines;
    each N's degeneracy split and setup's checks run before any row."""
    def command(args, spec, config) -> int:
        ns = config["N_list"]
        for n in ns:
            degeneracies_for(spec, n)
        columns, row, comments = setup(spec, config, ns)

        def timed(n):
            start = time.perf_counter()
            return [n, *row(n), time.perf_counter() - start]

        _write_csv(args.out, comments, ["N", *columns, "wall_time_s"],
                   _map_ordered(timed, ns, args.jobs))
        return 0
    return command


@_sweep
def cmd_lln_sweep(spec, config, ns):
    import numpy as np

    from .ensemble import Accumulator

    probes = [np.array(xi, dtype=float) for xi in config["xi_list"]]
    x_star = np.array(solve(spec).x_star)

    def row(n):
        # the coordinates are X - x*, so their mean is the error itself
        acc = Accumulator(spec, n, centre=x_star, basis=np.eye(spec.m),
                          probes=probes)
        _accumulate(spec, n, config, acc)
        mean_err = float(np.max(np.abs(acc.mean())))
        return [mean_err, *(abs(acc.mgf(p) - math.exp(math.fsum(xi * x_star)))
                            for p, xi in enumerate(probes))]

    comments = ["columns: max-norm |exact_mean - x_star|, then "
                "|mgf(xi) - exp(xi.x_star)| per probe; wall_time_s varies "
                "between runs"]
    if config["sampler_fallback"]:
        comments.append("sampler fallback enabled for N beyond the budget")
    comments += [f"xi_{k}={xi.tolist()}" for k, xi in enumerate(probes)]
    columns = ["mean_abs_err", *(f"mgf_abs_err_{k}" for k in range(len(probes)))]
    return columns, row, comments


# Per maximum kind: the covariance columns' infix and the CSV comment.
_FLUCT_LABELS = {
    MaximumKind.INTERIOR: ("", "interior: covariance of sqrt(h(N))*(X - x_star), "
                               "reduced coordinates"),
    MaximumKind.BOUNDARY: ("inplane_", "boundary: adjacent layer-mass ratios vs "
                                       "exp(layer_log_ratio); in-plane "
                                       "sqrt(h(N))-scaled covariance"),
}


@_sweep
def cmd_fluct_check(spec, config, ns):
    from .fluctuations import (
        fluctuation_accumulator,
        predict_boundary,
        predict_interior,
    )

    sol = solve(spec)
    boundary = sol.kind is MaximumKind.BOUNDARY
    if boundary:
        bad = [n for n in ns if n % spec.q != 0]
        if bad:
            raise ConfigError(
                f"boundary fluctuation runs need every N divisible by "
                f"q={spec.q}; offending N: {bad}")
    # the Gaussian block: all m-1 reduced coordinates at an interior
    # maximum, the m-2 in-plane ones at a boundary maximum
    k = spec.m - 1 - boundary
    pairs = [(i, j) for i in range(k) for j in range(i, k)]
    infix, comment = _FLUCT_LABELS[sol.kind]
    interior = None if boundary else predict_interior(spec)

    def row(n):
        pred = predict_boundary(spec, n) if boundary else interior
        acc = fluctuation_accumulator(spec, n, sol)
        _accumulate(spec, n, config, acc)
        covs = (acc.covariance(), pred.covariance)
        cells = [float(cov[i, j]) for cov in covs for i, j in pairs]
        if not boundary:
            return cells
        masses = acc.layers().masses
        ratios = [float(masses[a + 1] / masses[a]) if masses.size > a + 1
                  else math.nan for a in (0, 1)]
        return [*ratios, math.exp(pred.layer_log_ratio), *cells]

    columns = ((["ratio_1_0", "ratio_2_1", "pred_ratio"] if boundary else [])
               + [f"{side}_{infix}cov_{i}_{j}" for side in ("emp", "pred")
                  for i, j in pairs])
    comments = [comment]
    if config["sampler_fallback"]:
        comments.append("sampler fallback enabled for N beyond the budget")
    return columns, row, comments


@_sweep
def cmd_entropy_probe(spec, config, ns):
    x = [float(v) for v in config["x_probe"]]
    if spec.regime is Regime.LOW_DEGENERACY and 0.0 in x:  # g_i ln x_i
        raise ConfigError(f"x_probe {x} has a zero coordinate, at level "
                          f"{x.index(0.0) + 1}, where s_l is -inf")
    for n in ns:
        if max(abs(v * n - round(v * n)) for v in x) > 1e-9:
            raise ConfigError(f"x_probe {x} not representable at N={n}")

    def row(n):
        return [scaling_factor(spec, n), approximation_error(spec, n, x)]

    return ["h", "approx_error"], row, [
        f"x_probe={x}",
        "columns: h(N) and |S/h - s_l| offset-differenced at x_ref=g"]


def cmd_sample(args, spec, config) -> int:
    n = config["N"]
    degeneracies_for(spec, n)
    if config["method"] == "exact":
        from .sampler import iid_draws
        draws = iid_draws(spec, n, config["count"], config["seed"])
        comments = [f"method=exact count={config['count']} seed={config['seed']}"]
    else:
        from .sampler import ChainConfig, metropolis_chain
        # the chain block's seed defaults to the run seed
        cfg = ChainConfig(**{"steps": None, "seed": config["seed"],
                             **config["chain"]})
        steps = cfg.resolve(n, spec.m)[0]
        draws = metropolis_chain(spec, n, cfg)
        comments = [f"method=metropolis steps={steps} seed={cfg.seed}"]
    header = [f"N{k + 1}" for k in range(spec.m)]
    _write_csv(args.out, comments, header, draws.tolist())
    return 0


class _Parser(argparse.ArgumentParser):
    """A command-line mistake is a config error, reported as JSON like every
    other; the subcommand parsers are of this class too."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="occens",
        description="occupancy-ensemble solver and verification workflows")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # command: (help, handler, the config keys it needs beyond the spec)
    specs = {
        "solve": ("solve the limiting maximum-entropy problem", cmd_solve, ()),
        "lln-sweep": ("mean/mgf convergence sweep over N_list", cmd_lln_sweep,
                      ("N_list",)),
        "fluct-check": ("fluctuation predictions vs exact enumeration",
                        cmd_fluct_check, ("N_list",)),
        "entropy-probe": ("limit-entropy approximation error sweep",
                          cmd_entropy_probe, ("N_list", "x_probe")),
        "sample": ("draw occupancies (exact i.i.d. or Metropolis)",
                   cmd_sample, ("N",)),
    }
    for name, (help_text, handler, required) in specs.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to JSON config")
        cmd.add_argument("--out", default=None, help="output path (default stdout)")
        cmd.add_argument("--jobs", type=int, default=1,
                         help="per-N rows run in this many forked worker "
                              "processes")
        cmd.set_defaults(handler=handler, required=required)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        spec, config = _read_config(args)
        _check_out(args.out)
        return args.handler(args, spec, config)
    except (ConfigError, SpecValidationError) as exc:
        error, status, detail = "config", 2, str(exc)
    except (SolverError, EnumerationBudgetError, ArithmeticError) as exc:
        error, status, detail = "numeric", 1, str(exc)
    except MemoryError as exc:
        error, status, detail = "memory", 1, str(exc) or "allocation failed"
    json.dump({"error": error, "detail": detail}, sys.stderr)
    sys.stderr.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
