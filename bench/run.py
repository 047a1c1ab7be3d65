#!/usr/bin/env python3
"""Benchmark entry point: run one workload of occens CLI invocations.

    python3 bench/run.py --workload exact-lln --seed 1 --seconds 30 --trace 0

Run it from the repository root; the CLI is started as
`python -m occens.cli` with PYTHONPATH=src.  With --trace 0 the workload's
fixed sequence of invocations (a round) is repeated, one invocation at a
time, for the whole number of rounds that best fills --seconds (at least
one); every output is checked against reference.py and the end-to-end
metrics are printed.  With --trace 1 the per-layer metrics are measured
in-process instead (trace_layers.py).  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

# An invocation that has not ended after this long is killed and failed.
INVOCATION_TIMEOUT_S = 120.0


def invoke(argv, cwd, env, out_dir, index):
    """Run one CLI invocation; return (wall seconds, peak RSS KiB, status, stderr)."""
    err_path = out_dir / f"{index}.err"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            # wait4 gives this child's own peak RSS, unlike RUSAGE_CHILDREN.
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss, proc.returncode, err_path.read_text(errors="replace")


def measure(ops, root: Path, work: Path, seconds: float) -> dict:
    for op in ops:
        op.prepare()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    argvs = []
    for i, op in enumerate(ops):
        config = work / f"{i}.json"
        config.write_text(json.dumps(op.config), encoding="utf-8")
        argvs.append([sys.executable, "-m", "occens.cli", op.command,
                      "--config", str(config), "--out", str(work / f"{i}.out"),
                      "--jobs", str(op.jobs)])

    rounds, solve_times = [], []
    peak_kib = 0
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        round_s = 0.0
        for i, (op, argv) in enumerate(zip(ops, argvs)):
            op.start()
            wall, rss, status, stderr = invoke(argv, root, env, work, i)
            round_s += wall
            peak_kib = max(peak_kib, rss)
            if op.command == "solve":
                solve_times.append(wall)
            if status != 0:
                problems = [f"exit status {status}: {stderr.strip()[-500:]}"]
            else:
                try:
                    problems = op.check(work / f"{i}.out")
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    problems = [f"unreadable output: {exc!r}"]
            attempted += 1
            if problems:
                failed += 1
                print(f"FAILED {op.label}: " + "; ".join(problems), file=sys.stderr)
        rounds.append(round_s)
        print(f"round {len(rounds)}: {round_s:.3f} s for {len(ops)} invocations",
              flush=True)
        # Stop at the round count whose total comes closest to --seconds.
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(rounds) >= seconds:
            break
    metrics = {
        "run_s": {"value": statistics.median(rounds), "unit": "s"},
        "setup_s": {"value": statistics.median(solve_times), "unit": "s"},
        "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MB"},
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "occens" / "cli.py").is_file():
        print("bench: src/occens/cli.py not found; run from the repository root",
              file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work = root / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            import trace_layers
            result = trace_layers.run(args.workload, args.seed, root, work)
        else:
            ops = workloads.WORKLOADS[args.workload](args.seed)
            result = measure(ops, root, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
