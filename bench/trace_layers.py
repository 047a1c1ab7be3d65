"""Traced run: per-layer metrics from in-process calls into occens.

The layers are the package's modules (core, entropy, ensemble, maxent,
fluctuations, sampler, cli).  The run calls their public functions on the
same specs, N ladders and chain blocks as the workloads' CLI invocations
and times each call from outside, as a span with a name, start, end,
parent and workload.  Spans stay in memory and are written as JSON lines
to .bench_run/traces/ when the run ends.  Peak memory comes from
tracemalloc in a separate pass before the timed calls, because tracing
allocations slows them.

One process runs the layer programs of all three workloads in a fixed
order, so that every traced run reports every per-layer metric: a layer
that the requested workload runs is reported from that workload's spans,
and any other layer from the first workload that runs it.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import reference as ref
import workloads as wl

UNITS = {
    "cli.import_s": "s",
    "cli.jobs_speedup": "ratio",
    "maxent.solve_s": "s",
    "entropy.log_multiplicity_s": "s",
    "entropy.approximation_error_s": "s",
    "ensemble.enumerate_states_s": "s",
    "ensemble.states_per_s": "states/s",
    "ensemble.normalise_s": "s",
    "ensemble.build_distribution_peak_mb": "MB",
    "ensemble.moments_s": "s",
    "ensemble.layer_decomposition_s": "s",
    "fluctuations.empirical_self_s": "s",
    "fluctuations.predict_s": "s",
    "sampler.exact_sample_s": "s",
    "sampler.chain_steps_per_s": "steps/s",
    "sampler.metropolis_chain_peak_mb": "MB",
    "sampler.acceptance": "ratio",
    "sampler.iat_steps": "steps",
    "sampler.ess_per_s": "1/s",
}

SOLVE_REPEATS = 20
ROW_REPEATS = 3
IMPORT_REPEATS = 5
# Steps of the tracemalloc pass over a chain config.  Allocation tracing
# makes the Python step loop ~40x slower, so the pass is bounded; a full
# call's two draw buffers grow by 16 bytes per step beyond this.
PEAK_STEPS = 5_000
# Post-burn-in steps of the thinning=1 replay that counts accepted moves.
REPLAY_STEPS = 100_000
MIB = float(2 ** 20)


class Tracer:
    """In-memory spans; parent links follow the nesting of span() blocks."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.workload = None
        self.attempted = 0
        self.failed = 0

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "workload": self.workload, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args):
        with self.span(name):
            return fn(*args)

    def timed(self, name, took: dict, fn, *args):
        """call(), also appending the span's duration to took[name]."""
        with self.span(name) as rec:
            value = fn(*args)
        took[name].append(rec["end"] - rec["start"])
        return value

    @contextmanager
    def operation(self, name: str, **attrs):
        """A unit that counts as attempted, and as failed if it raises."""
        self.attempted += 1
        try:
            with self.span(name, **attrs) as rec:
                yield rec
        except Exception:  # one failed unit must not end the traced run
            self.failed += 1
            print(f"FAILED {name} {attrs}:\n{traceback.format_exc()}",
                  file=sys.stderr)

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAILED {message}", file=sys.stderr)

    def total(self, *names: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] in names and s["workload"] == self.workload)


def _peak_mb(fn, *args) -> float:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()


def _spec(op):
    from occens import make_spec
    s = op.spec
    return make_spec(s.energies, s.weights, s.cap, s.regime, c=s.c)


def _of(ops, kind):
    return [op for op in ops if isinstance(op, kind)]


def _solves(tr, ops) -> dict:
    """maxent.solve_s: the sum over specs of the median of repeated solves."""
    from occens import solve
    total = 0.0
    for op in _of(ops, wl.Solve):
        spec = _spec(op)
        with tr.operation("solve", op=op.label):
            for _ in range(SOLVE_REPEATS):
                tr.call("maxent.solve", solve, spec)
            total += statistics.median(
                s["end"] - s["start"] for s in tr.spans[-SOLVE_REPEATS:])
    return {"maxent.solve_s": total}


def _rows(tr, sweeps, per_row) -> dict:
    """Time the exact-distribution pipeline on every row of every sweep.

    build_distribution runs enumerate_states, degeneracies_for and
    log_multiplicity inside; each is also timed alone on the same input,
    and normalisation is what build_distribution spends beyond them.  The
    whole and the parts are timed ROW_REPEATS times and each row counts
    its fastest repeat, so the difference is not swamped by run-to-run
    noise.  per_row(op, n, dist) adds the workload's own calls on the result.
    """
    from occens import (build_distribution, degeneracies_for, enumerate_states,
                        exact_mean)
    from occens.entropy import log_multiplicity
    peak = max(_peak_mb(build_distribution, _spec(op), n, wl.EXACT_BUDGET)
               for op in sweeps for n in op.n_list)
    parts = ("ensemble.enumerate_states", "core.degeneracies_for",
             "entropy.log_multiplicity")
    build = "ensemble.build_distribution"
    best = dict.fromkeys(parts + (build,), 0.0)
    states = 0
    for op in sweeps:
        spec = _spec(op)
        for n in op.n_list:
            with tr.operation("row", op=op.label, N=n):
                took = {name: [] for name in best}
                for _ in range(ROW_REPEATS):
                    counts = tr.timed(parts[0], took, enumerate_states, spec, n,
                                      wl.EXACT_BUDGET)
                    degs = tr.timed(parts[1], took, degeneracies_for, spec, n)
                    tr.timed(parts[2], took, log_multiplicity, counts,
                             degs.as_array)
                    del counts
                    dist = tr.timed(build, took, build_distribution, spec, n,
                                    wl.EXACT_BUDGET)
                for name, times in took.items():
                    best[name] += min(times)
                states += dist.size
                want = ref.build(op.spec, n)
                err = float(np.max(np.abs(exact_mean(dist) - want.mean)))
                tol = max(wl.mean_tolerance(want, want.fractions[:, i])
                          for i in range(op.spec.m))
                del want
                if not err <= tol:
                    tr.fail(f"{op.label} N={n}: exact_mean off by {err:.3e}")
                per_row(op, n, dist)
    return {
        "entropy.log_multiplicity_s": best["entropy.log_multiplicity"],
        "ensemble.enumerate_states_s": best["ensemble.enumerate_states"],
        "ensemble.states_per_s": states / best[build],
        "ensemble.normalise_s": best[build] - sum(best[k] for k in parts),
        "ensemble.build_distribution_peak_mb": peak,
    }


def exact_lln(tr, seed, work) -> dict:
    from occens import (approximation_error, build_distribution,
                        exact_covariance, exact_mean, exact_sample, mgf)
    ops = wl.exact_lln(seed)
    metrics = _solves(tr, ops)

    def moments(op, n, dist):
        tr.call("ensemble.exact_mean", exact_mean, dist)
        for xi in op.xi:
            tr.call("ensemble.mgf", mgf, dist, xi)
        tr.call("ensemble.exact_covariance", exact_covariance, dist)

    metrics.update(_rows(tr, _of(ops, wl.LlnSweep), moments))
    for op in _of(ops, wl.EntropyProbe):
        spec = _spec(op)
        x = np.array(op.config["x_probe"])
        for n in op.n_list:
            with tr.operation("probe", op=op.label, N=n):
                got = tr.call("entropy.approximation_error", approximation_error,
                              spec, n, x)
                want, bound = ref.approximation_error(op.spec, n, op.tenths)
                if not abs(got - want) <= bound:
                    tr.fail(f"{op.label} N={n}: approx_error {got!r} vs {want!r}")
    for op in _of(ops, wl.ExactSample):
        with tr.operation("exact sample", op=op.label):
            dist = build_distribution(_spec(op), op.n, wl.EXACT_BUDGET)
            tr.call("sampler.exact_sample", exact_sample, dist, op.count,
                    op.config["seed"])
    metrics["entropy.approximation_error_s"] = tr.total(
        "entropy.approximation_error")
    metrics["ensemble.moments_s"] = tr.total(
        "ensemble.exact_mean", "ensemble.mgf", "ensemble.exact_covariance")
    metrics["sampler.exact_sample_s"] = tr.total("sampler.exact_sample")
    return metrics


def exact_fluct(tr, seed, work) -> dict:
    from occens import (empirical_fluctuations, layer_decomposition,
                        predict_boundary, predict_interior, solve)
    ops = wl.exact_fluct(seed)
    metrics = _solves(tr, ops)

    def fluctuations(op, n, dist):
        spec = dist.spec
        if op.spec.boundary:
            tr.call("ensemble.layer_decomposition", layer_decomposition, dist)
            tr.call("fluctuations.predict_boundary", predict_boundary, spec, n)
        else:
            tr.call("fluctuations.predict_interior", predict_interior, spec)
        tr.call("fluctuations.empirical_fluctuations", empirical_fluctuations,
                dist, solve(spec), spec)

    metrics.update(_rows(tr, _of(ops, wl.FluctCheck), fluctuations))
    layers = tr.total("ensemble.layer_decomposition")
    # On boundary rows empirical_fluctuations runs layer_decomposition
    # inside; the call timed alone on the same input stands for that child.
    metrics["ensemble.layer_decomposition_s"] = layers
    metrics["fluctuations.empirical_self_s"] = (
        tr.total("fluctuations.empirical_fluctuations") - layers)
    metrics["fluctuations.predict_s"] = tr.total(
        "fluctuations.predict_boundary", "fluctuations.predict_interior")
    return metrics


def chain(tr, seed, work) -> dict:
    from occens import ChainConfig, cli, metropolis_chain
    ops = wl.chain(seed)
    metrics = _solves(tr, ops)
    samples = _of(ops, wl.ChainSample)
    metrics["sampler.metropolis_chain_peak_mb"] = max(
        _peak_mb(metropolis_chain, _spec(op), op.n,
                 ChainConfig(steps=PEAK_STEPS, seed=op.chain["seed"], burn_in=0,
                             thinning=op.chain["thinning"]))
        for op in samples)
    steps = seconds = 0.0
    accepted = proposed = 0
    iats, ess_rates = [], []
    for op in samples:
        spec, c = _spec(op), op.chain
        with tr.operation("chain", op=op.label):
            op.prepare()
            with tr.span("sampler.metropolis_chain") as rec:
                draws = metropolis_chain(spec, op.n, ChainConfig(**c))
            took = rec["end"] - rec["start"]
            steps += c["steps"]
            seconds += took
            x = draws / op.n
            tau = np.array([ref.sokal_iat(x[:, i]) for i in range(op.spec.m)])
            off = np.abs(x.mean(axis=0) - op.mean) / (op.sd * np.sqrt(tau / len(x)))
            if not np.all(off <= wl.Z_BOUND):
                tr.fail(f"{op.label}: draw mean {off.max():.1f} MCSE off")
            iats.append(float(tau.max()) * c["thinning"])
            ess_rates.append(len(x) / float(tau.max()) / took)
        with tr.operation("acceptance replay", op=op.label):
            replay = ChainConfig(steps=c["burn_in"] + REPLAY_STEPS, seed=c["seed"],
                                 burn_in=c["burn_in"], thinning=1)
            states = tr.call("sampler.metropolis_chain replay", metropolis_chain,
                             spec, op.n, replay)
            accepted += int(np.any(np.diff(states, axis=0) != 0, axis=1).sum())
            proposed += len(states) - 1
    metrics["sampler.chain_steps_per_s"] = steps / seconds
    metrics["sampler.acceptance"] = accepted / proposed
    # The slowest-mixing chain bounds what the workload can report.
    metrics["sampler.iat_steps"] = max(iats)
    metrics["sampler.ess_per_s"] = min(ess_rates)

    sweep = _of(ops, wl.FallbackSweep)[0]
    config = work / "fallback.json"
    config.write_text(json.dumps(sweep.config), encoding="utf-8")
    walls = {}
    for jobs in (1, 2):
        with tr.operation("cli.main", jobs=jobs) as rec:
            status = cli.main(["lln-sweep", "--config", str(config), "--out",
                               str(work / f"fallback-{jobs}.csv"),
                               "--jobs", str(jobs)])
            if status != 0:
                tr.fail(f"fallback sweep --jobs {jobs}: exit status {status}")
        walls[jobs] = rec["end"] - rec["start"]
    metrics["cli.jobs_speedup"] = walls[1] / walls[2]
    return metrics


def import_seconds(root: Path) -> float:
    """Median time to import occens.cli in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import occens.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                              capture_output=True, text=True, timeout=60,
                              check=True)
        times.append(float(done.stdout.strip()))
    return statistics.median(times)


PROGRAMS = {"exact-lln": exact_lln, "exact-fluct": exact_fluct, "chain": chain}


def run(workload: str, seed: int, root: Path, work: Path) -> dict:
    sys.path.insert(0, str(root / "src"))
    tr = Tracer()
    found = {}
    for name, program in PROGRAMS.items():
        tr.workload = name
        with tr.span("workload") as rec:
            found[name] = program(tr, seed, work)
        print(f"traced {name}: {rec['end'] - rec['start']:.3f} s", flush=True)
    tr.workload = workload
    with tr.span("cli.import"):
        found[workload]["cli.import_s"] = import_seconds(root)

    metrics = {}
    for name, unit in UNITS.items():
        source = workload if name in found[workload] else next(
            w for w in PROGRAMS if name in found[w])
        metrics[name] = {"value": found[source][name], "unit": unit}

    traces = root / ".bench_run" / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    path = traces / f"{workload}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for span in tr.spans:
            fh.write(json.dumps(span) + "\n")
    print(f"spans written to {path.relative_to(root)}", flush=True)
    return {"correct": tr.failed == 0, "attempted": tr.attempted,
            "failed": tr.failed, "metrics": metrics}
