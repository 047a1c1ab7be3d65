"""Command CSVs stay byte-identical to the committed golden files.

Each case runs one command in-process and compares its output with
tests/golden/<case>.csv byte for byte, apart from the `# generated=` line
and the `wall_time_s` cells, which change between runs.  The cases cover
fluct-check at m = 2, 3, 4 at interior and boundary maxima, with exact
rows and fallback rows of i.i.d. draws, lln-sweep with mgf probes and
entropy-probe, each at N <= 200, and sample by both methods, with a full
chain block and with steps alone; the Metropolis cases pin the chain's
step loop.  solve's JSON, which has no timestamp, is pinned whole in
tests/golden/<case>.json at one boundary and one interior maximum.  Every
CSV case also runs with every energy and the cap shifted by one constant
(-10**18, -7, 10**18, 7/3 and -5/6) against the same file:
every path measures energies from eps_1, and q, which boundary N must be
divisible by, is the common denominator of the heights eps_i - eps_1, so
no output byte depends on where energy zero sits.

No cell goes through BLAS or LAPACK, so the goldens hold under every
OpenBLAS kernel; test_goldens_hold_on_other_openblas_kernels reruns them in
a child interpreter with OPENBLAS_CORETYPE=Haswell and Prescott.  NumPy's
SIMD np.exp and np.log1p still dispatch on the CPU's features, so the
mgf_abs_err_*, ratio_*, emp_cov_* and emp_inplane_cov_* cells are promised
only on a host with the same dispatch as the one that wrote the files (an
x86-64 host with AVX-512): with NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL
AVX512_SPR", the SIMD_DEPENDENT goldens, 6 of the 19, fail on those cells,
and test_goldens_hold_without_avx512 reruns the cases in a child
interpreter that way to check that no other golden does.

After a declared change of output bytes, rewrite the golden files with

    PYTHONPATH=src python tests/test_golden.py

which writes only the files whose cells moved, and prints for each the
columns whose cells moved, how many, and their largest relative change:
the cell diff to quote with the change.
"""

import json
import math
import os
import platform
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from occens.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

M2 = {"energies": ["1", "2"], "weights": [0.5, 0.5]}
M3 = {"energies": ["1", "2", "3"], "weights": [0.3, 0.4, 0.3]}
M4 = {"energies": ["1", "2", "3", "4"], "weights": [0.1, 0.2, 0.3, 0.4]}
PROPORTIONAL = {"regime": "proportional", "c": 1.0}
HIGH = {"regime": "high_degeneracy"}
LOW = {"regime": "low_degeneracy"}
CHAIN = {"sampler_fallback": True, "chain": {"steps": 20_000, "seed": 3}}

# case: (command, config).  A fallback case's budget lets its first row
# enumerate and sends the later ones to the i.i.d. sampler, which checks the
# chain block and does not read it.
CASES = {
    "fluct_m2_interior_high": ("fluct-check", {
        **M2, **HIGH, "energy_cap": "2", "N_list": [32, 64, 128]}),
    "fluct_m2_boundary_high": ("fluct-check", {
        **M2, **HIGH, "energy_cap": "7/5", "N_list": [64, 128, 200]}),
    "fluct_m2_boundary_q2_low": ("fluct-check", {
        "energies": ["1/2", "1"], "weights": [0.5, 0.5], **LOW,
        "energy_cap": "7/10", "N_list": [10, 50, 100]}),
    "fluct_m3_interior_proportional": ("fluct-check", {
        **M3, **PROPORTIONAL, "energy_cap": "5/2", "N_list": [20, 60, 120]}),
    "fluct_m3_boundary_low": ("fluct-check", {
        **M3, **LOW, "energy_cap": "8/5", "N_list": [50, 100, 200]}),
    # 16 states at N=10 and 169 at N=40, so the N=40 row is i.i.d. draws
    "fluct_m3_boundary_high_fallback": ("fluct-check", {
        **M3, **HIGH, "energy_cap": "8/5", "N_list": [10, 40], "budget": 100,
        **CHAIN}),
    "fluct_m3_interior_low_fallback": ("fluct-check", {
        **M3, **LOW, "energy_cap": "5/2", "N_list": [10, 40], "budget": 300,
        **CHAIN}),
    "fluct_m4_interior_proportional": ("fluct-check", {
        **M4, **PROPORTIONAL, "energy_cap": "7/2", "N_list": [10, 20, 40]}),
    "fluct_m4_boundary_high": ("fluct-check", {
        **M4, **HIGH, "energy_cap": "5/2", "N_list": [10, 20, 40]}),
    "fluct_m4_boundary_proportional_fallback": ("fluct-check", {
        **M4, **PROPORTIONAL, "energy_cap": "5/2", "N_list": [10, 30],
        "budget": 1000, **CHAIN}),
    "lln_m3_proportional_xi": ("lln-sweep", {
        **M3, **PROPORTIONAL, "energy_cap": "8/5", "N_list": [20, 80, 200],
        "xi_list": [[0.5, 0.0, -0.5], [0.0, 0.25, 0.0]]}),
    "lln_m3_high_fallback": ("lln-sweep", {
        **M3, **HIGH, "energy_cap": "5/2", "N_list": [10, 40], "budget": 300,
        "xi_list": [[0.5, 0.0, -0.5]], **CHAIN}),
    "entropy_m3_low": ("entropy-probe", {
        **M3, **LOW, "energy_cap": "8/5", "N_list": [10, 100, 200],
        "x_probe": [0.5, 0.3, 0.2]}),
    "entropy_m2_high": ("entropy-probe", {
        **M2, **HIGH, "energy_cap": "7/5", "N_list": [10, 20, 200],
        "x_probe": [0.6, 0.4]}),
    "lln_m3_low_fallback_steps_only": ("lln-sweep", {
        **M3, **LOW, "energy_cap": "5/2", "N_list": [10, 40], "budget": 300,
        "sampler_fallback": True, "chain": {"steps": 20_000}}),
    "sample_m2_exact": ("sample", {
        **M2, **PROPORTIONAL, "energy_cap": "7/5", "N": 30, "count": 40,
        "seed": 4}),
    "sample_m3_exact_high": ("sample", {
        **M3, **HIGH, "energy_cap": "8/5", "N": 50, "count": 50, "seed": 11,
        "method": "exact"}),
    "sample_m3_metropolis": ("sample", {
        **M3, **HIGH, "energy_cap": "8/5", "N": 20, "method": "metropolis",
        "chain": {"steps": 5000, "burn_in": 500, "thinning": 100, "seed": 7}}),
    "sample_m3_metropolis_steps_only": ("sample", {
        **M3, **PROPORTIONAL, "energy_cap": "5/2", "N": 20, "seed": 5,
        "method": "metropolis", "chain": {"steps": 6000}}),
}


# solve's JSON, pinned byte for byte at a boundary and an interior maximum
SOLVE_CASES = {
    "solve_m3_boundary_proportional": {**M3, **PROPORTIONAL, "energy_cap": "8/5"},
    "solve_m3_interior_proportional": {**M3, **PROPORTIONAL, "energy_cap": "5/2"},
}

SHIFTS = (-10**18, -7, 10**18, Fraction(7, 3), Fraction(-5, 6))


def run_case(name: str, tmp: Path, shift: int = 0) -> str:
    """The case's output, with `shift` added to every energy and the cap."""
    command, config = CASES[name]
    config = {**config,
              "energies": [str(Fraction(e) + shift) for e in config["energies"]],
              "energy_cap": str(Fraction(config["energy_cap"]) + shift)}
    path, out = tmp / f"{name}.json", tmp / f"{name}.csv"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main([command, "--config", str(path), "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


def normalise(text: str) -> list[str]:
    """The CSV's lines without `# generated=` and with wall_time_s blanked."""
    lines = [ln for ln in text.split("\n") if not ln.startswith("# generated=")]
    header = next(ln for ln in lines if not ln.startswith("#")).split(",")
    if "wall_time_s" not in header:  # sample draws are not timed
        return lines
    col = header.index("wall_time_s")
    start = lines.index(",".join(header)) + 1
    for k in range(start, len(lines)):
        if lines[k]:
            cells = lines[k].split(",")
            cells[col] = ""
            lines[k] = ",".join(cells)
    return lines


@pytest.mark.parametrize("name, shift", [
    pytest.param(name, shift, id=f"{name}-shift{shift}" if shift else name)
    for name in CASES for shift in (0, *SHIFTS)])
def test_output_matches_golden(name, shift, tmp_path):
    want = (GOLDEN / f"{name}.csv").read_text(encoding="utf-8")
    assert normalise(run_case(name, tmp_path, shift)) == normalise(want)


@pytest.mark.parametrize("name", SOLVE_CASES)
def test_solve_matches_golden(name, tmp_path):
    path, out = tmp_path / "config.json", tmp_path / "solve.json"
    path.write_text(json.dumps(SOLVE_CASES[name]), encoding="utf-8")
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


def _openblas_cores() -> list[str]:
    """The OpenBLAS kernels this host can be switched to by
    OPENBLAS_CORETYPE: none unless NumPy's BLAS is OpenBLAS built with
    DYNAMIC_ARCH on x86-64; Haswell only where the CPU has AVX2."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return []
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        return []
    simd = config.get("SIMD Extensions", {})
    found = {*simd.get("baseline", ()), *simd.get("found", ())}
    return ["Prescott", *(["Haswell"] if found & {"AVX2", "X86_V3"} else [])]


@pytest.mark.parametrize("core", ["Haswell", "Prescott"])
def test_goldens_hold_on_other_openblas_kernels(core):
    # No output cell goes through BLAS or LAPACK, so forcing another OpenBLAS
    # kernel in a child interpreter moves no golden cell.
    if core not in _openblas_cores():
        pytest.skip(f"needs x86-64 NumPy on OpenBLAS built with DYNAMIC_ARCH "
                    f"and a CPU that runs its {core} kernel")
    env = {**os.environ, "OPENBLAS_CORETYPE": core}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::test_output_matches_golden"],
        env=env, cwd=Path(__file__).resolve().parent.parent,
        capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]


# The goldens whose cells move when NumPy dispatches its AVX2 loops in place
# of the AVX-512 ones (NumPy 2.4, x86-64); every other golden holds on both.
SIMD_DEPENDENT = {
    "fluct_m2_boundary_high", "fluct_m2_interior_high", "fluct_m3_boundary_low",
    "fluct_m4_interior_proportional", "fluct_m4_boundary_high",
    "fluct_m4_boundary_proportional_fallback"}
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"


def _dispatches_x86_v4() -> bool:
    """Whether NumPy can dispatch its X86_V4 (AVX-512) loops on this host,
    so that NO_AVX512 switches them off."""
    try:
        from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                                   __cpu_features__)
    except ImportError:  # NumPy before 2.0
        return False
    return "X86_V4" in __cpu_dispatch__ and __cpu_features__.get("X86_V4", False)


def test_goldens_hold_without_avx512():
    # Only the SIMD_DEPENDENT goldens may fail with NumPy's AVX-512 loops
    # switched off in a child interpreter; the others hold on either path.
    if not _dispatches_x86_v4():
        pytest.skip("needs NumPy >= 2 dispatching X86_V4 loops on this CPU")
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": NO_AVX512}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
         f"{__file__}::test_output_matches_golden"],
        env=env, cwd=Path(__file__).resolve().parent.parent,
        capture_output=True, text=True, timeout=600)
    assert run.returncode in (0, 1) and " passed" in run.stdout, (
        run.stdout[-3000:] + run.stderr[-3000:])
    failed = set(re.findall(r"^FAILED \S*test_output_matches_golden"
                            r"\[([a-z0-9_]+)", run.stdout, re.MULTILINE))
    assert failed <= SIMD_DEPENDENT, sorted(failed - SIMD_DEPENDENT)


def cell_diff(old: str, new: str) -> str:
    """What moved from the CSV text `old` to `new`: per column, the cells
    that differ, out of the rows compared, and their largest relative
    change |new - old|/|old|; then any comment lines, header or row count
    that changed.  The `# generated=` line and wall_time_s are left out."""
    parts = []
    (old_notes, old_rows), (new_notes, new_rows) = (
        ([ln for ln in lines if ln.startswith("#")],
         [ln.split(",") for ln in lines if ln and not ln.startswith("#")])
        for lines in (normalise(old), normalise(new)))
    header = new_rows[0]
    pairs = list(zip(old_rows[1:], new_rows[1:]))
    for col, name in enumerate(header):
        moved = [(float(a[col]), float(b[col])) for a, b in pairs
                 if col < len(a) and a[col] != b[col]]
        if moved:
            rel = max(abs(b - a) / abs(a) if a else math.inf for a, b in moved)
            parts.append(f"{name} {len(moved)} of {len(pairs)} cells, "
                         f"max rel {rel:.3g}")
    if old_notes != new_notes:
        parts.append("comment lines changed")
    if old_rows[0] != header:
        parts.append(f"header was {','.join(old_rows[0])}")
    if len(old_rows) != len(new_rows):
        parts.append(f"rows {len(old_rows) - 1} -> {len(new_rows) - 1}")
    return "; ".join(parts)


def regenerate(golden: Path, tmp: Path) -> list[str]:
    """Rerun every case and rewrite the golden files in `golden` whose
    normalised lines differ from the new output, or that are missing, so
    that a file whose cells did not move keeps its `# generated=` line and
    timings.  Prints one line per file written, with its cell_diff for a
    file that was there, and returns the cases written."""
    written = []
    for case in CASES:
        path, text = golden / f"{case}.csv", run_case(case, tmp)
        if not path.exists():
            change = "new file"
        else:
            old = path.read_text(encoding="utf-8")
            if normalise(old) == normalise(text):
                continue
            change = cell_diff(old, text)
        path.write_text(text, encoding="utf-8")
        print(f"wrote {case}.csv: {change}", file=sys.stderr)
        written.append(case)
    return written


def test_regenerate_writes_only_moved_files(tmp_path, capsys):
    # The first pass brings the copy to this host's bits (it writes nothing
    # where the goldens pass); a second pass on the unchanged copy must
    # write nothing.
    copy, runs = tmp_path / "golden", tmp_path / "runs"
    shutil.copytree(GOLDEN, copy)
    runs.mkdir()
    regenerate(copy, runs)
    before = {p.name: p.read_bytes() for p in copy.iterdir()}
    capsys.readouterr()
    assert regenerate(copy, runs) == []
    assert capsys.readouterr().err == ""
    assert {p.name: p.read_bytes() for p in copy.iterdir()} == before
    # a moved cell and a missing file are written, and nothing else
    moved = copy / "lln_m3_proportional_xi.csv"
    text = moved.read_text(encoding="utf-8")
    assert "\n200," in text
    moved.write_text(text.replace("\n200,", "\n201,"), encoding="utf-8")
    (copy / "entropy_m2_high.csv").unlink()
    assert regenerate(copy, runs) == ["lln_m3_proportional_xi",
                                      "entropy_m2_high"]
    # the one moved cell, 201 back to 200 in the N column of 3 rows
    assert capsys.readouterr().err.splitlines() == [
        "wrote lln_m3_proportional_xi.csv: N 1 of 3 cells, max rel 0.00498",
        "wrote entropy_m2_high.csv: new file"]
    for case in ("lln_m3_proportional_xi", "entropy_m2_high"):
        assert normalise((copy / f"{case}.csv").read_text(
            encoding="utf-8")) == normalise(before[f"{case}.csv"].decode())
    unchanged = set(before) - {"lln_m3_proportional_xi.csv",
                               "entropy_m2_high.csv"}
    assert all((copy / name).read_bytes() == before[name]
               for name in unchanged)


if __name__ == "__main__":
    import tempfile
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        regenerate(GOLDEN, Path(tmp))
