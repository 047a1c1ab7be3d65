#!/usr/bin/env python3
"""Self-test of the benchmark; run from the repository root:

    python3 bench/selftest.py

1. Runs each workload once, untraced and traced, with every ladder cut to
   its smallest N, and checks that the printed metric names and units are
   those of BENCHMARK.json and that no operation failed.
2. Feeds the checks outputs whose mean is shifted by 1e-3 (an exact
   lln-sweep row and a set of exact draws) and confirms they fail.
3. Runs the benchmark in a directory that holds only BENCHMARK.json and
   the benchmark's files, and confirms it exits non-zero without a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import trace_layers  # noqa: E402
import workloads as wl  # noqa: E402


def shrink() -> None:
    """Cut every ladder of the workloads to its smallest N."""
    wl.HD_LADDER = wl.HD_LADDER[:1]
    wl.LADDER = wl.LADDER[:1]
    wl.INTERIOR_LADDER = wl.INTERIOR_LADDER[:1]
    wl.M4_LADDER = wl.M4_LADDER[:1]
    wl.PROBE_LADDER = wl.PROBE_LADDER[:1]
    wl.HD_CHAIN_NS = sorted(wl.HD_CHAIN_NS)[:1]


def expect(condition: bool, message: str, problems: list[str]) -> None:
    print(("ok   " if condition else "FAIL ") + message, flush=True)
    if not condition:
        problems.append(message)


def check_metrics(result: dict, declared: list[dict], label: str,
                  problems: list[str]) -> None:
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    expect(got == want, f"{label}: metric names and units match BENCHMARK.json",
           problems)
    expect(result["failed"] == 0 and result["attempted"] > 0 and result["correct"],
           f"{label}: {result['attempted']} attempted, {result['failed']} failed",
           problems)


def run_cli(op, root: Path, work: Path, name: str) -> Path:
    config = work / f"{name}.json"
    out = work / f"{name}.out"
    config.write_text(json.dumps(op.config), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    subprocess.run([sys.executable, "-m", "occens.cli", op.command, "--config",
                    str(config), "--out", str(out)], cwd=root, env=env,
                   check=True, timeout=120)
    return out


def shifted_outputs(root: Path, work: Path, problems: list[str]) -> None:
    spec = wl.m3("proportional", wl.BOUNDARY_CAP)
    sweep = wl.LlnSweep("shift lln", spec, [500], [[0.5, 0.0, -0.5]],
                        budget=wl.EXACT_BUDGET)
    sweep.prepare()
    out = run_cli(sweep, root, work, "shift-lln")
    expect(sweep.check(out) == [], "unshifted lln-sweep row passes", problems)
    lines = out.read_text().splitlines()
    row = lines[-1].split(",")
    row[1] = repr(float(row[1]) + 1e-3)
    out.write_text("\n".join(lines[:-1] + [",".join(row)]) + "\n")
    expect(sweep.check(out) != [], "lln-sweep row with mean shifted by 1e-3 fails",
           problems)

    sample = wl.ExactSample("shift sample", spec, 1000, 20_000, 7)
    sample.prepare()
    out = run_cli(sample, root, work, "shift-sample")
    expect(sample.check(out) == [], "unshifted exact draws pass", problems)
    header, draws = wl.read_csv(out)
    draws = draws.astype(int)
    # Move one particle from level 2 down to level 1 in every draw: the
    # energy only drops, and the mean of x_1 rises by 1/N = 1e-3.
    movable = draws[:, 1] > 0
    expect(bool(movable.all()), "every draw has a particle on level 2", problems)
    draws[:, 1] -= 1
    draws[:, 0] += 1
    out.write_text(",".join(header) + "\n"
                   + "\n".join(",".join(map(str, r)) for r in draws) + "\n")
    found = sample.check(out)
    expect(found != [] and all("mean" in p for p in found),
           "draws with mean shifted by 1e-3 fail on the mean check", problems)


def bare_directory(root: Path, work: Path, problems: list[str]) -> None:
    bare = work / "bare"
    bare.mkdir()
    shutil.copy(root / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    command = json.loads((root / "BENCHMARK.json").read_text())["command"]
    done = subprocess.run(command + ["--workload", "exact-lln", "--seed", "1",
                                     "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    expect(done.returncode != 0 and '"metrics"' not in done.stdout,
           f"without the program the benchmark exits {done.returncode} "
           "and prints no result", problems)


def main() -> int:
    root = Path.cwd()
    declared = json.loads((root / "BENCHMARK.json").read_text())
    work = root / ".bench_run" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    problems: list[str] = []
    try:
        shrink()
        for name, build in wl.WORKLOADS.items():
            result = run.measure(build(1), root, work, 0.0)
            check_metrics(result, declared["end_to_end"], f"{name} untraced",
                          problems)
        for name in wl.WORKLOADS:
            result = trace_layers.run(name, 1, root, work)
            check_metrics(result, declared["per_layer"], f"{name} traced",
                          problems)
        shifted_outputs(root, work, problems)
        bare_directory(root, work, problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
