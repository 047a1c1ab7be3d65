import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import occens
from occens.cli import CHAIN_KEYS, CONFIG_KEYS, main

BOUNDARY_CONFIG = {
    "energies": ["1", "2"],
    "weights": [0.5, 0.5],
    "energy_cap": "7/5",
    "regime": "high_degeneracy",
}

M3_CONFIG = {
    "energies": ["1", "2", "3"],
    "weights": [0.3, 0.4, 0.3],
    "energy_cap": "8/5",
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def read_csv(path):
    lines = path.read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if not ln.startswith("#")]
    header = data[0].split(",")
    rows = [ln.split(",") for ln in data[1:]]
    return comments, header, rows


class TestSolveCommand:
    def test_boundary_report(self, tmp_path, capsys):
        config = write_config(tmp_path, BOUNDARY_CONFIG)
        assert main(["solve", "--config", config]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kind"] == "boundary"
        assert report["x_star"] == pytest.approx([0.6, 0.4], abs=1e-10)
        assert report["lam"] == pytest.approx(math.log(1.5), abs=1e-10)

    def test_interior_report(self, tmp_path, capsys):
        config = write_config(tmp_path, {**BOUNDARY_CONFIG, "energy_cap": 2})
        assert main(["solve", "--config", config]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kind"] == "interior"
        assert report["x_star"] == [0.5, 0.5]

    def test_invalid_config_exit_2(self, tmp_path, capsys):
        config = write_config(tmp_path, {**BOUNDARY_CONFIG, "energy_cap": 0.5})
        assert main(["solve", "--config", config]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert "empty domain" in err["detail"]

    def test_missing_config_exit_2(self, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path / "nope.json")]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"

    @pytest.mark.parametrize("content", [None, b"\xff\xfe", b"{", b"[1, 2]"],
                             ids=["directory", "not-utf8", "not-json",
                                  "not-object"])
    def test_unreadable_config_exit_2(self, tmp_path, capsys, content):
        # a directory and non-UTF-8 bytes escaped as tracebacks
        path = tmp_path / "config.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        assert_config_error(capsys, main(["solve", "--config", str(path)]))

    def test_output_file(self, tmp_path):
        config = write_config(tmp_path, BOUNDARY_CONFIG)
        out = tmp_path / "sol.json"
        assert main(["solve", "--config", config, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["kind"] == "boundary"


class TestLlnSweep:
    def config(self, tmp_path, **extra):
        payload = {
            "energies": ["1", "2"],
            "weights": [0.5, 0.5],
            "energy_cap": "7/5",
            "regime": "proportional",
            "c": 1.0,
            "N_list": [16, 32, 64],
            "xi_list": [[0.0, 0.0], [0.5, 0.0]],
        }
        payload.update(extra)
        return write_config(tmp_path, payload)

    def test_csv_shape_and_schema(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["lln-sweep", "--config", self.config(tmp_path),
                     "--out", str(out)]) == 0
        comments, header, rows = read_csv(out)
        assert out.read_text().startswith("# schema=1\n")
        assert header[:2] == ["N", "mean_abs_err"]
        assert len(rows) == 3
        assert [r[0] for r in rows] == ["16", "32", "64"]

    def test_zero_probe_column_is_zero(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["lln-sweep", "--config", self.config(tmp_path), "--out", str(out)])
        _, header, rows = read_csv(out)
        col = header.index("mgf_abs_err_0")
        assert all(float(r[col]) <= 1e-12 for r in rows)

    def test_error_column_positive_decreasing(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["lln-sweep", "--config",
              self.config(tmp_path, N_list=[16, 32, 64, 128]),
              "--out", str(out)])
        _, header, rows = read_csv(out)
        errs = [float(r[header.index("mean_abs_err")]) for r in rows]
        assert all(e > 0 for e in errs)
        assert all(b < a for a, b in zip(errs, errs[1:]))
        # measured decay ~N^-0.7 on this instance; assert a clear power law
        ns = [float(r[0]) for r in rows]
        slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
        assert slope < -0.5

    def test_deterministic_apart_from_timestamp_and_walltime(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        config = self.config(tmp_path)
        main(["lln-sweep", "--config", config, "--out", str(out1)])
        main(["lln-sweep", "--config", config, "--out", str(out2)])

        def normalize(path):
            rows = []
            for line in path.read_text().splitlines():
                if line.startswith("# generated="):
                    continue
                if not line.startswith("#") and "," in line:
                    line = ",".join(line.split(",")[:-1])  # drop wall_time_s
                rows.append(line)
            return rows

        assert normalize(out1) == normalize(out2)

    def test_budget_exceeded_exit_1(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["lln-sweep", "--config", self.config(tmp_path, budget=10),
                     "--out", str(out)])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "numeric"

    def test_non_increasing_n_list_exit_2(self, tmp_path):
        assert main(["lln-sweep", "--config",
                     self.config(tmp_path, N_list=[32, 16])]) == 2

    def test_sampler_fallback_when_budget_exceeded(self, tmp_path):
        out = tmp_path / "sweep.csv"
        # N=16 already has 7 states
        config = self.config(tmp_path, N_list=[16, 32], budget=5,
                             sampler_fallback=True, count=2000, seed=5)
        assert main(["lln-sweep", "--config", config, "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        errs = [float(r[header.index("mean_abs_err")]) for r in rows]
        assert all(0 < e < 0.5 for e in errs)


    def test_large_log_z_normalizes(self, tmp_path, capsys):
        # log Z exceeds 8192 at N=2000; exp(lw - log_z) used to lose half an
        # ulp of log Z and fail the 1e-12 pmf-sum check.
        config = write_config(tmp_path, {
            **M3_CONFIG, "regime": "high_degeneracy", "budget": 10**8,
            "N_list": [2000]})
        assert main(["lln-sweep", "--config", config]) == 0, \
            capsys.readouterr().err

    def test_fallback_chain_error_is_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            **M3_CONFIG, "regime": "proportional", "c": 1.0,
            "sampler_fallback": True, "budget": 1000,
            "chain": {"steps": 1000, "burn_in": 1000}, "N_list": [7000]})
        assert main(["lln-sweep", "--config", config]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert "burn_in" in err["detail"]

    def test_bad_chain_block_rejected_before_rows(self, tmp_path, capsys):
        # every row fits the budget, so no row would read the chain block
        config = self.config(tmp_path, sampler_fallback=True, chain=5)
        assert main(["lln-sweep", "--config", config]) == 2
        assert "chain" in json.loads(capsys.readouterr().err)["detail"]

    def test_default_chain_runs_at_large_n(self, tmp_path, capsys):
        # the default burn-in 10*N*m exceeds 200000 steps here; the default
        # steps grow with it.  Metropolis sampling reads the chain block; a
        # fallback row at the same N reads its defaults, 1000 i.i.d. draws.
        config = write_config(tmp_path, {
            **M3_CONFIG, "regime": "proportional", "c": 1.0, "N": 7000,
            "method": "metropolis", "sampler_fallback": True, "budget": 1000,
            "N_list": [7000]})
        out = tmp_path / "draws.csv"
        assert main(["sample", "--config", config, "--out", str(out)]) == 0, \
            capsys.readouterr().err
        comments, _, rows = read_csv(out)
        assert "# method=metropolis steps=420000 seed=0" in comments
        assert len(rows) == len(range(210_000, 420_000, 7000))
        assert all(sum(map(int, row)) == 7000 for row in rows)
        out = tmp_path / "sweep.csv"
        assert main(["lln-sweep", "--config", config, "--out", str(out)]) == 0, \
            capsys.readouterr().err
        _, header, rows = read_csv(out)
        assert 0 < float(rows[0][header.index("mean_abs_err")]) < 0.05

    def test_fallback_trial_cap_exit_1(self, tmp_path, capsys, monkeypatch):
        # a fallback row whose draws are not made within the cap on level
        # draws is a numeric failure that names the acceptance it measured
        import occens.sampler
        monkeypatch.setattr(occens.sampler, "_MAX_LEVEL_DRAWS", 100)
        out = tmp_path / "sweep.csv"
        config = self.config(tmp_path, N_list=[16, 32], budget=5,
                             sampler_fallback=True)
        assert main(["lln-sweep", "--config", config, "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "numeric"
        assert "acceptance" in err["detail"] and "of 1000 draws" in err["detail"]
        assert not out.exists()

    def test_jobs_preserve_sampled_rows(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        config = self.config(tmp_path, N_list=[16, 32, 48], budget=5,
                             sampler_fallback=True, seed=5)
        for out, jobs in ((out1, "1"), (out2, "2")):
            assert main(["lln-sweep", "--config", config, "--out", str(out),
                         "--jobs", jobs]) == 0
        _, _, rows1 = read_csv(out1)
        _, _, rows2 = read_csv(out2)
        assert [r[:-1] for r in rows1] == [r[:-1] for r in rows2]

    def test_jobs_run_rows_at_once(self, tmp_path, monkeypatch):
        # each row waits on one barrier of two before it enumerates, so the
        # sweep ends only if both rows run at once and share the barrier
        import threading

        import occens.ensemble
        barrier = threading.Barrier(2, timeout=10)
        accumulate = occens.ensemble.accumulate_support

        def accumulate_together(*args, **kwargs):
            barrier.wait()
            return accumulate(*args, **kwargs)

        monkeypatch.setattr(occens.ensemble, "accumulate_support",
                            accumulate_together)
        config = self.config(tmp_path, N_list=[16, 32])
        assert main(["lln-sweep", "--config", config, "--out",
                     str(tmp_path / "sweep.csv"), "--jobs", "2"]) == 0

    @pytest.mark.parametrize("extra, code", [
        ({}, 1),
        ({"sampler_fallback": True,
          "chain": {"steps": 100, "burn_in": 100}}, 2),
        # G(N) = ceil(sqrt(N)) < m=2 at N=1: the spec is invalid at that N
        ({"regime": "low_degeneracy", "N_list": [1, 16, 32]}, 2),
    ])
    def test_worker_failure_reported_as_in_serial(self, tmp_path, capsys,
                                                  extra, code):
        config = self.config(tmp_path, **{"N_list": [16, 32, 48], "budget": 5,
                                          **extra})
        errs = []
        for jobs in ("1", "2"):
            assert main(["lln-sweep", "--config", config,
                         "--jobs", jobs]) == code
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        json.loads(errs[0])


class TestFluctCheck:
    def test_interior_columns(self, tmp_path):
        config = write_config(tmp_path, {
            **BOUNDARY_CONFIG, "energy_cap": 2, "N_list": [32, 64]})
        out = tmp_path / "fl.csv"
        assert main(["fluct-check", "--config", config, "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert "emp_cov_0_0" in header and "pred_cov_0_0" in header
        pred = [float(r[header.index("pred_cov_0_0")]) for r in rows]
        assert pred == pytest.approx([0.25, 0.25], abs=1e-12)

    def test_boundary_ratio_columns(self, tmp_path):
        config = write_config(tmp_path, {**BOUNDARY_CONFIG,
                                         "N_list": [64, 128, 256]})
        out = tmp_path / "fl.csv"
        assert main(["fluct-check", "--config", config, "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert len(rows) == 3
        pred = [float(r[header.index("pred_ratio")]) for r in rows]
        assert pred == pytest.approx([2 / 3] * 3, abs=1e-10)
        gaps = [abs(float(r[header.index("ratio_1_0")]) - 2 / 3) for r in rows]
        assert gaps[0] > gaps[-1]

    def test_boundary_in_plane_scaled_by_h(self, tmp_path):
        # low_degeneracy has h(N) = G(N) << N; the in-plane covariance must
        # use the same sqrt(h(N)) scale as its prediction.
        config = write_config(tmp_path, {
            **M3_CONFIG, "regime": "low_degeneracy", "N_list": [500, 1000]})
        out = tmp_path / "fl.csv"
        assert main(["fluct-check", "--config", config, "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        for row in rows:
            emp = float(row[header.index("emp_inplane_cov_0_0")])
            pred = float(row[header.index("pred_inplane_cov_0_0")])
            assert emp == pytest.approx(pred, rel=0.10)

    def test_boundary_sampler_fallback(self, tmp_path):
        # N=64 has 26 states
        config = write_config(tmp_path, {
            **BOUNDARY_CONFIG, "N_list": [64], "budget": 20,
            "sampler_fallback": True, "seed": 9})
        out = tmp_path / "fl.csv"
        assert main(["fluct-check", "--config", config, "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        r10 = float(rows[0][header.index("ratio_1_0")])
        assert 0.3 < r10 < 1.0  # sampled estimate of the ~2/3 geometric ratio

    def test_boundary_requires_divisible_n(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "energies": ["1/2", "1"],
            "weights": [0.5, 0.5],
            "energy_cap": "7/10",
            "regime": "high_degeneracy",
            "N_list": [3, 4],
        })
        assert main(["fluct-check", "--config", config]) == 2
        assert "divisible" in json.loads(capsys.readouterr().err)["detail"]


class TestEntropyProbe:
    def test_zero_column_at_reference(self, tmp_path):
        config = write_config(tmp_path, {
            **BOUNDARY_CONFIG, "N_list": [10, 20, 40], "x_probe": [0.5, 0.5]})
        out = tmp_path / "probe.csv"
        assert main(["entropy-probe", "--config", config, "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert all(float(r[header.index("approx_error")]) == 0.0 for r in rows)

    def test_negative_fitted_slope(self, tmp_path):
        config = write_config(tmp_path, {
            **BOUNDARY_CONFIG, "N_list": [50, 100, 200, 400],
            "x_probe": [0.6, 0.4]})
        out = tmp_path / "probe.csv"
        assert main(["entropy-probe", "--config", config, "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        errs = np.array([float(r[header.index("approx_error")]) for r in rows])
        ns = np.array([float(r[0]) for r in rows])
        slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
        assert slope < 0

    def test_unrepresentable_probe_exit_2(self, tmp_path):
        config = write_config(tmp_path, {
            **BOUNDARY_CONFIG, "N_list": [10], "x_probe": [0.55, 0.45]})
        assert main(["entropy-probe", "--config", config]) == 2


class TestSample:
    def test_exact_rows(self, tmp_path):
        config = write_config(tmp_path, {
            **BOUNDARY_CONFIG, "N": 6, "count": 25, "seed": 4,
            "method": "exact"})
        out = tmp_path / "draws.csv"
        assert main(["sample", "--config", config, "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert header == ["N1", "N2"]
        assert len(rows) == 25
        assert all(int(a) + int(b) == 6 for a, b in rows)

    def test_metropolis_method(self, tmp_path):
        config = write_config(tmp_path, {
            **BOUNDARY_CONFIG, "N": 6, "method": "metropolis",
            "chain": {"steps": 2000, "seed": 8}})
        out = tmp_path / "chain.csv"
        assert main(["sample", "--config", config, "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert rows and all(int(a) + int(b) == 6 for a, b in rows)

    def test_unknown_method_exit_2(self, tmp_path):
        config = write_config(tmp_path, {
            **BOUNDARY_CONFIG, "N": 6, "method": "bogus"})
        assert main(["sample", "--config", config]) == 2

    def test_exact_draws_read_no_budget(self, tmp_path):
        # The exact draws enumerate nothing: at N=10000 (9.0M states) a
        # budget of 10 does not stop them, and they hold the draws, not the
        # support (some 580 MB for the support and its pmf).
        config = write_config(tmp_path, {
            **M3_CONFIG, "regime": "proportional", "c": 1.0, "N": 10_000,
            "count": 1000, "budget": 10, "method": "exact"})
        out = tmp_path / "draws.csv"
        tracemalloc.start()
        try:
            code = main(["sample", "--config", config, "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and peak < 20 * 2**20
        _, _, rows = read_csv(out)
        draws = np.array(rows, dtype=np.int64)
        assert draws.shape == (1000, 3) and draws.min() >= 0
        assert np.all(draws.sum(axis=1) == 10_000)
        # heights 0, 1, 2 above eps_1 = 1, under the cap height 3/5 * N
        assert np.all(draws @ [0, 1, 2] <= 6000)


def test_commands_import_only_what_they_use(tmp_path):
    # NumPy is imported only by code that holds arrays over states: the
    # package, the CLI, `solve` and `entropy-probe` load none of it (nor
    # SciPy, which no command needs), and so none of what NumPy loads
    # (inspect, datetime); `solve` does not load occens.entropy either, and
    # a Metropolis `sample` loads no NumPy, but an exact one does.  No
    # command loads dataclasses, whose import chain (inspect, ast, dis)
    # outweighs what `solve` runs.  Neither sampling method loads the
    # enumerator; an exact sweep at --jobs 1 loads neither the thread pool
    # nor the sampler, which only the fallback needs, and no command loads
    # multiprocessing: --jobs 2 loads concurrent.futures alone.  Every
    # exported name still imports lazily.
    env = dict(os.environ, PYTHONPATH=str(Path(occens.__file__).parents[1]))
    solve_config = write_config(tmp_path, BOUNDARY_CONFIG, "solve.json")
    probe_config = write_config(tmp_path, {
        **BOUNDARY_CONFIG, "N_list": [10, 100, 1000], "x_probe": [0.6, 0.4]},
        "probe.json")
    sweep_config = write_config(tmp_path, {
        **BOUNDARY_CONFIG, "N_list": [16, 32]}, "sweep.json")
    # 7 states at N=16 and 13 at N=32, so the second row falls back
    fallback_config = write_config(tmp_path, {
        **BOUNDARY_CONFIG, "N_list": [16, 32], "budget": 10,
        "sampler_fallback": True}, "fallback.json")
    chain_config = write_config(tmp_path, {
        **BOUNDARY_CONFIG, "N": 16, "method": "metropolis",
        "chain": {"steps": 1000}}, "chain.json")
    exact_config = write_config(tmp_path, {
        **BOUNDARY_CONFIG, "N": 16, "method": "exact"}, "exact.json")
    probe_out = tmp_path / "probe.csv"
    code = f"""
import sys
def loaded(*names):
    return [name for name in names if name in sys.modules]
BARE = ('numpy', 'scipy', 'dataclasses', 'datetime', 'inspect',
        'multiprocessing', 'concurrent')
import occens
print('import occens', loaded(*BARE, 'occens.entropy'))
import occens.cli
print('import occens.cli', loaded(*BARE, 'occens.entropy'))
from occens.cli import main
assert main(['solve', '--config', {solve_config!r}, '--out', {str(tmp_path / 'sol.json')!r}]) == 0
print('solve', loaded(*BARE, 'occens.entropy'))
assert main(['entropy-probe', '--config', {probe_config!r}, '--out', {str(probe_out)!r}]) == 0
print('entropy-probe', loaded(*BARE))
assert main(['lln-sweep', '--config', {sweep_config!r}, '--out', {str(tmp_path / 'sweep.csv')!r}, '--jobs', '1']) == 0
print('lln-sweep', loaded('scipy', 'dataclasses', 'multiprocessing', 'concurrent', 'occens.sampler'))
assert main(['lln-sweep', '--config', {sweep_config!r}, '--out', {str(tmp_path / 'sweep2.csv')!r}, '--jobs', '2']) == 0
print('lln-sweep --jobs 2', loaded('multiprocessing', 'concurrent'))
assert main(['fluct-check', '--config', {fallback_config!r}, '--out', {str(tmp_path / 'fluct.csv')!r}]) == 0
print('fluct-check', loaded('scipy', 'dataclasses', 'occens.sampler'))
for name in occens.__all__:
    exec(f'from occens import {{name}}')
    assert name in dir(occens), name
print('exports', len(occens.__all__))
"""
    # Both sampling methods run in an interpreter of their own, where no
    # sweep has loaded the enumerator
    chain_code = f"""
import sys
def loaded(*names):
    return [name for name in names if name in sys.modules]
from occens.cli import main
assert main(['sample', '--config', {chain_config!r}, '--out', {str(tmp_path / 'chain.csv')!r}]) == 0
print('sample metropolis', loaded('numpy', 'occens.ensemble', 'dataclasses', 'multiprocessing', 'concurrent'))
assert main(['sample', '--config', {exact_config!r}, '--out', {str(tmp_path / 'exact.csv')!r}]) == 0
print('sample exact', loaded('numpy', 'occens.ensemble', 'dataclasses', 'multiprocessing', 'concurrent'))
"""
    lines = []
    for script in (code, chain_code):
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        lines += done.stdout.splitlines()
    assert lines == [
        "import occens []", "import occens.cli []", "solve []",
        "entropy-probe []", "lln-sweep []", "lln-sweep --jobs 2 ['concurrent']",
        "fluct-check ['occens.sampler']",
        f"exports {len(occens.__all__)}", "sample metropolis []",
        "sample exact ['numpy']"]
    _, header, rows = read_csv(probe_out)
    assert len(rows) == 3 and float(rows[-1][header.index("approx_error")]) > 0


def test_generated_stamp_is_utc(tmp_path, monkeypatch):
    # The stamp is written from `time` alone; it reads back with datetime
    # as the UTC instant of the run, offset 0, to the microsecond, at a
    # whole second too.
    from datetime import datetime, timedelta, timezone

    def stamp():
        config = write_config(tmp_path, {**BOUNDARY_CONFIG, "N": 5, "count": 2})
        out = tmp_path / "draws.csv"
        assert main(["sample", "--config", config, "--out", str(out)]) == 0
        line = out.read_text(encoding="utf-8").splitlines()[1]
        assert line.startswith("# generated=")
        text = line.removeprefix("# generated=")
        value = datetime.fromisoformat(text)
        assert value.utcoffset() == timedelta(0)
        assert value.isoformat(timespec="microseconds") == text
        return value

    before = datetime.now(timezone.utc)
    value = stamp()
    assert before - timedelta(milliseconds=1) <= value <= datetime.now(
        timezone.utc)
    epoch = datetime(1970, 1, 1, tzinfo=timezone.utc)
    for ns in (1_700_000_000_000_000_000, 1_700_000_000_999_999_999,
               4_102_444_800_000_123_456):
        monkeypatch.setattr("time.time_ns", lambda ns=ns: ns)
        assert stamp() == epoch + timedelta(microseconds=ns // 1000)


M3_PROPORTIONAL = {**M3_CONFIG, "regime": "proportional", "c": 1.0}


# Every per-N command, with fluct-check at both kinds of maximum.
SWEEPS = {
    "lln-sweep": ("lln-sweep", {
        "energies": ["1", "2"], "weights": [0.5, 0.5], "energy_cap": "7/5",
        "regime": "proportional", "c": 1.0, "N_list": [16, 32, 64],
        "xi_list": [[0.0, 0.0], [0.5, 0.0]]}),
    "fluct-check-interior": ("fluct-check", {
        **M3_PROPORTIONAL, "energy_cap": "5/2", "N_list": [10, 20, 30]}),
    "fluct-check-boundary": ("fluct-check", {
        **M3_PROPORTIONAL, "N_list": [10, 20, 30]}),
    "entropy-probe": ("entropy-probe", {
        **M3_PROPORTIONAL, "N_list": [10, 20, 30], "x_probe": [0.5, 0.3, 0.2]}),
}


@pytest.mark.parametrize("command, payload", SWEEPS.values(), ids=SWEEPS)
def test_jobs_preserve_row_order(tmp_path, command, payload):
    config = write_config(tmp_path, payload)
    outputs = []
    for jobs in ("1", "3"):
        out = tmp_path / f"jobs{jobs}.csv"
        assert main([command, "--config", config, "--out", str(out),
                     "--jobs", jobs]) == 0
        comments, header, rows = read_csv(out)
        assert header[-1] == "wall_time_s"
        assert [int(r[0]) for r in rows] == payload["N_list"]
        outputs.append(([c for c in comments if "generated=" not in c],
                        header, [r[:-1] for r in rows]))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("m, boundary, columns", [
    (2, False, ["emp_cov_0_0", "pred_cov_0_0"]),
    (2, True, ["ratio_1_0", "ratio_2_1", "pred_ratio"]),
    (3, False, ["emp_cov_0_0", "emp_cov_0_1", "emp_cov_1_1",
                "pred_cov_0_0", "pred_cov_0_1", "pred_cov_1_1"]),
    (3, True, ["ratio_1_0", "ratio_2_1", "pred_ratio",
               "emp_inplane_cov_0_0", "pred_inplane_cov_0_0"]),
    (4, False, [f"{side}_cov_{p}" for side in ("emp", "pred")
                for p in ("0_0", "0_1", "0_2", "1_1", "1_2", "2_2")]),
    (4, True, ["ratio_1_0", "ratio_2_1", "pred_ratio",
               "emp_inplane_cov_0_0", "emp_inplane_cov_0_1",
               "emp_inplane_cov_1_1", "pred_inplane_cov_0_0",
               "pred_inplane_cov_0_1", "pred_inplane_cov_1_1"]),
], ids=["m2-interior", "m2-boundary", "m3-interior", "m3-boundary",
        "m4-interior", "m4-boundary"])
def test_fluct_check_header(tmp_path, capsys, m, boundary, columns):
    # the weights' mean energy is (m+1)/2 at m = 2, 3 and 3 at m = 4
    mean = {2: 1.5, 3: 2.0, 4: 3.0}[m]
    config = write_config(tmp_path, {
        "energies": [str(e) for e in range(1, m + 1)],
        "weights": {2: [0.5, 0.5], 3: [0.3, 0.4, 0.3],
                    4: [0.1, 0.2, 0.3, 0.4]}[m],
        "energy_cap": mean - 0.25 if boundary else mean + 0.25,
        "regime": "high_degeneracy", "N_list": [4, 8]})
    out = tmp_path / "fl.csv"
    assert main(["fluct-check", "--config", config, "--out", str(out)]) == 0, \
        capsys.readouterr().err
    _, header, rows = read_csv(out)
    assert header == ["N", *columns, "wall_time_s"]
    assert all(len(r) == len(header) for r in rows)


def assert_config_error(capsys, code):
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err)["error"] == "config"  # exactly one JSON object
    return json.loads(err)["detail"]


MALFORMED = [
    ("entropy-probe", {"N_list": [10], "x_probe": [0.5, "a", 0.5]}),
    ("lln-sweep", {"N_list": [10], "xi_list": [["a", 1, 2]]}),
    ("lln-sweep", {"N_list": [10], "budget": "x"}),
    ("sample", {"N": 10, "seed": "abc"}),
    ("sample", {"N": 10, "method": "metropolis", "chain": {"steps": "x"}}),
    ("sample", {"N": 10, "method": "metropolis",
                "chain": {"steps": 100, "burn_in": "5"}}),
    ("solve", {"energies": 5}),
    ("solve", {"energies": "123"}),
    ("solve", {"energies": ["1", None, "2"]}),
    ("solve", {"weights": [0.3, None, 0.4]}),
    ("solve", {"energy_cap": None}),
    ("solve", {"c": [1]}),
    ("solve", {"regime": "high_degeneracy", "p": "x"}),
    ("solve", {"regime": "high_degeneracy", "p": [2]}),
    # every row is over the budget: a fallback read by truthiness would run
    # the chain and exit 0
    ("lln-sweep", {"N_list": [10], "budget": 2, "sampler_fallback": "false"}),
    ("fluct-check", {"N_list": [10], "budget": 2, "sampler_fallback": 0}),
    ("solve", {"energies": [1, 1e400, 3]}),
    ("solve", {"c": True}),
    ("solve", {"weights": [True, 0.4, 0.3]}),
    ("solve", {"energy_cap": True}),
    ("solve", {"regime": "high_degeneracy", "p": True}),
    # exact rationals with no float, and integers past the float range
    ("solve", {"energy_cap": "1e400"}),
    ("solve", {"energies": ["1", "2", "1e400"]}),
    ("entropy-probe", {"N_list": [10], "x_probe": [0.5, 10**400, 0.5]}),
    ("lln-sweep", {"N_list": [10], "xi_list": [[10**400, 1, 2]]}),
    # a subnormal c raised ZeroDivisionError (exit 1) or left residuals
    ("solve", {"c": 5e-324}),
    ("solve", {"c": 1e-320}),
    # every key is checked whichever command runs
    ("solve", {"N_list": "x"}),
    ("lln-sweep", {"N_list": [10], "chain": {"steps": 0}}),
    # more draws than an array can hold: count escaped as a ValueError
    # traceback, and steps must stay an error now that the chain draws a
    # block at a time
    ("sample", {"N": 10, "count": 10**400}),
    ("sample", {"N": 10, "method": "metropolis", "chain": {"steps": 10**400}}),
]
MALFORMED_IDS = [
    "x_probe", "xi_list", "budget", "seed", "chain.steps", "chain.burn_in",
    "energies-int", "energies-str", "energies-null", "weights-null",
    "energy_cap-null", "c-list", "p-str", "p-list", "fallback-str",
    "fallback-int", "energies-overflow", "c-bool", "weights-bool",
    "energy_cap-bool", "p-bool", "energy_cap-str-overflow",
    "energies-str-overflow", "x_probe-int-overflow", "xi_list-int-overflow",
    "c-min-subnormal", "c-subnormal", "N_list-unread",
    "chain-without-fallback", "count-overflow", "chain.steps-overflow"]


@pytest.mark.parametrize("command, extra", MALFORMED, ids=MALFORMED_IDS)
def test_malformed_value_is_config_error(tmp_path, capsys, command, extra):
    config = write_config(tmp_path, {**M3_PROPORTIONAL, **extra})
    assert_config_error(capsys, main([command, "--config", config]))


@pytest.mark.parametrize("weights", [["3/10", "2/5", "3/10"],
                                     ["0.3", "0.4", "0.3"]])
def test_string_weights_rejected_by_key(tmp_path, capsys, weights):
    # "3/10" passed the table and then failed in make_spec's float() as an
    # invalid spec; the error now names the key and what it must be
    config = write_config(tmp_path, {**M3_PROPORTIONAL, "weights": weights})
    detail = assert_config_error(capsys, main(["solve", "--config", config]))
    assert detail.startswith("weights must be a list of numbers, got ")


@pytest.mark.parametrize("key, value", [
    ("energies", ["a", "2", "3"]), ("energies", [1, 2, math.nan]),
    ("energies", [1, "2", "inf"]), ("energy_cap", "1/0"),
    ("energy_cap", math.inf), ("energy_cap", "x")],
    ids=["energies-str", "energies-nan", "energies-str-inf", "energy_cap-1/0",
         "energy_cap-inf", "energy_cap-str"])
def test_non_rational_spec_value_rejected_by_key(tmp_path, capsys, key, value):
    # each passed the table and failed in make_spec's Fraction() as an
    # invalid spec whose message named no key
    config = write_config(tmp_path, {**M3_PROPORTIONAL, key: value})
    detail = assert_config_error(capsys, main(["solve", "--config", config]))
    what = ("a list of finite numbers or rational strings"
            if key == "energies" else "a finite number or a rational string")
    assert detail.startswith(f"{key} must be {what}, got ")


@pytest.mark.parametrize("payload", [
    {**M3_CONFIG, "energy_cap": "1000001/1000000", "regime": "low_degeneracy"},
    {"energies": ["5/8", "1", "13/8", "53/8"],
     "weights": [0.000998, 0.0565, 0.941504, 0.000998],
     "energy_cap": "625001/1000000", "regime": "proportional", "c": 1.58e-5},
], ids=["low-cap-near-eps1", "proportional-small-c-tiny-weights"])
def test_solve_with_cap_near_eps1(tmp_path, capsys, payload):
    # both exited 1 (residuals above 1e-10) under the per-regime solvers
    config = write_config(tmp_path, payload)
    assert main(["solve", "--config", config]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kind"] == "boundary"
    assert report["residual_norm"] <= 1e-10
    assert report["residual_energy"] <= 1e-10


# The arguments after the command, {config} standing for the config's path.
WITH_CONFIG = ["--config", "{config}"]
REJECTED = [
    ("lln-sweep", {"N_list": [10]}, [*WITH_CONFIG, "--budget", "5"],
     "unrecognized arguments: --budget 5"),
    ("lln-sweep", {"N_list": [10], "budget": 0}, WITH_CONFIG, "budget must be"),
    ("lln-sweep", {"N_list": [10], "budget": True}, WITH_CONFIG,
     "budget must be"),
    ("lln-sweep", {"N_list": [10]}, [*WITH_CONFIG, "--jobs", "0"],
     "--jobs must be"),
    ("lln-sweep", {"N_list": [10]}, [*WITH_CONFIG, "--jobs", "x"],
     "argument --jobs"),
    ("lln-sweep", {"N_list": [True, 2]}, WITH_CONFIG, "N_list must be"),
    ("sample", {"N": True}, WITH_CONFIG, "N must be"),
    ("sample", {"N": 10, "count": True}, WITH_CONFIG, "count must be"),
    ("sample", {"N": 10}, [*WITH_CONFIG, "--seed", "4"],
     "unrecognized arguments: --seed 4"),
    ("sample", {"N": 10}, [], "--config"),
    # 257 levels make more ordered pairs than a 16-bit pair draw holds
    ("sample", {"energies": list(range(1, 258)), "weights": [1 / 257] * 257,
                "N": 1000, "method": "metropolis"}, WITH_CONFIG,
     "method metropolis takes at most 256 levels, got 257"),
]
REJECTED_IDS = ["budget-flag", "budget-0", "budget-bool", "jobs-0",
                "jobs-not-int", "N_list-bool", "N-bool", "count-bool",
                "seed-flag", "no-config", "metropolis-past-256-levels"]


def run_args(tmp_path, command, extra, args):
    """main on the command's arguments, with the config M3_PROPORTIONAL
    updated by extra written to {config}, and {tmp} standing for tmp_path."""
    config = write_config(tmp_path, {**M3_PROPORTIONAL, **extra})
    return main([command, *(arg.format(config=config, tmp=tmp_path)
                            for arg in args)])


@pytest.mark.parametrize("command, extra, args, named", REJECTED,
                         ids=REJECTED_IDS)
def test_budget_jobs_and_booleans_rejected(tmp_path, capsys, command, extra,
                                           args, named):
    detail = assert_config_error(capsys, run_args(tmp_path, command, extra,
                                                  args))
    assert named in detail


@pytest.mark.parametrize("probe", [[1.5, -0.5, 0.0], [0.5, 0.5, 0.5],
                                   [0.5, 0.5, math.nan]])
def test_probe_off_simplex_rejected(tmp_path, capsys, probe):
    config = write_config(tmp_path, {**M3_PROPORTIONAL, "N_list": [10, 20],
                                     "x_probe": probe})
    assert_config_error(capsys, main(["entropy-probe", "--config", config]))


def test_probe_above_energy_cap_accepted(tmp_path):
    # mean energy 2.7 exceeds the 8/5 cap; the probe measures s_l anywhere
    # on the simplex, so the cap is not checked
    config = write_config(tmp_path, {**M3_PROPORTIONAL, "N_list": [10, 20],
                                     "x_probe": [0.1, 0.1, 0.8]})
    assert main(["entropy-probe", "--config", config,
                 "--out", str(tmp_path / "probe.csv")]) == 0



def test_least_normal_c_solves(tmp_path, capsys):
    config = write_config(tmp_path, {**M3_PROPORTIONAL, "c": sys.float_info.min})
    assert main(["solve", "--config", config]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["residual_norm"] <= 1e-10
    assert report["residual_energy"] <= 1e-10


@pytest.mark.parametrize("command", ["lln-sweep", "fluct-check",
                                     "entropy-probe"])
def test_degeneracy_split_past_float_precision(tmp_path, capsys, command):
    # G(106) = ceil(106**8) = 1.6e16: the floors of w*G(N) sum to G(N) + 3,
    # which escaped as a ValueError traceback
    config = write_config(tmp_path, {
        **M3_CONFIG, "regime": "high_degeneracy", "p": 8, "N_list": [106],
        "x_probe": [0.5, 0.5, 0.0]})
    detail = assert_config_error(capsys, main([command, "--config", config]))
    assert "G(N)=15938480745308416 at N=106" in detail


@pytest.mark.parametrize("command, extra, unknown", [
    ("lln-sweep", {"N_list": [10], "budgte": 5, "sampler_fallbak": True,
                   "xi_lst": [[0.5, 0.0, 0.0]]},
     ["budgte", "sampler_fallbak", "xi_lst"]),
    ("lln-sweep", {"N_list": [10], "sampler_fallback": True,
                   "chain": {"steps": 20_000, "burnin": 10, "thining": 3}},
     ["chain.burnin", "chain.thining"]),
    ("sample", {"N": 5, "cout": 5, "sed": 3}, ["cout", "sed"]),
], ids=["sweep-keys", "chain-keys", "sample-keys"])
def test_misspelt_key_is_config_error(tmp_path, capsys, command, extra,
                                      unknown):
    # each of these exited 0 with the key's default in place of its value
    config = write_config(tmp_path, {**M3_PROPORTIONAL, **extra})
    detail = assert_config_error(capsys, main([command, "--config", config]))
    assert all(repr(key) in detail for key in unknown)


EVERY_KEY = {
    **M3_CONFIG, "regime": "high_degeneracy", "c": 1.0, "p": 2,
    "N_list": [10, 20], "xi_list": [[0.1, 0.2, 0.3]],
    "x_probe": [0.5, 0.3, 0.2], "budget": 50, "seed": 3,
    "sampler_fallback": True,
    "chain": {"steps": 4000, "burn_in": 100, "thinning": 10, "seed": 4},
    "N": 10, "count": 20, "method": "metropolis"}


@pytest.mark.parametrize("command", ["solve", "lln-sweep", "fluct-check",
                                     "entropy-probe", "sample"])
def test_config_with_every_key_runs(tmp_path, capsys, command):
    # one config serves all five commands; N=20 is past the budget, so the
    # fallback chain runs too
    assert set(EVERY_KEY) == set(CONFIG_KEYS)
    assert set(EVERY_KEY["chain"]) == set(CHAIN_KEYS)
    config = write_config(tmp_path, EVERY_KEY)
    assert main([command, "--config", config,
                 "--out", str(tmp_path / "out")]) == 0, capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "lln-sweep", "fluct-check",
                                     "entropy-probe", "sample"])
@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_unwritable_out_is_config_error(tmp_path, capsys, command, target):
    # both escaped as FileNotFoundError/IsADirectoryError tracebacks, exit 1
    config = write_config(tmp_path, EVERY_KEY)
    out = tmp_path / "missing" / "out" if target == "missing-directory" \
        else tmp_path
    detail = assert_config_error(capsys, main([command, "--config", config,
                                               "--out", str(out)]))
    assert str(out) in detail


@pytest.mark.parametrize("command", ["solve", "lln-sweep", "fluct-check",
                                     "entropy-probe", "sample"])
def test_command_line_error_is_json(tmp_path, capsys, command):
    # each printed argparse usage text on stderr, not one JSON object; the
    # seed and budget come from the config alone
    config = write_config(tmp_path, EVERY_KEY)
    for args, named in [(["--config", config, "--seed", "4"], "--seed 4"),
                        (["--config", config, "--budget", "5"], "--budget 5"),
                        (["--config", config, "--jobs", "x"], "--jobs"),
                        ([], "--config")]:
        assert named in assert_config_error(capsys, main([command, *args]))
    with pytest.raises(SystemExit) as done:
        main([command, "--help"])
    out, err = capsys.readouterr()
    assert done.value.code == 0 and "--config" in out and not err


def test_version_and_missing_command(capsys):
    with pytest.raises(SystemExit) as done:
        main(["--version"])
    assert done.value.code == 0
    assert capsys.readouterr() == (occens.__version__ + "\n", "")
    assert "command" in assert_config_error(capsys, main([]))


def test_chain_seed_above_seed_flag(tmp_path):
    chain = {"steps": 3000, "burn_in": 0, "thinning": 100}
    outputs = []
    for extra in [{"seed": 4}, {"seed": 5},
                  {"seed": 4, "chain": {**chain, "seed": 9}},
                  {"seed": 6, "chain": {**chain, "seed": 9}}]:
        config = write_config(tmp_path, {
            **BOUNDARY_CONFIG, "N": 30, "method": "metropolis",
            "chain": chain, **extra})
        out = tmp_path / "chain.csv"
        assert main(["sample", "--config", config, "--out", str(out)]) == 0
        outputs.append([ln for ln in out.read_text().splitlines()
                        if not ln.startswith("# generated=")])
    assert outputs[0] != outputs[1]
    assert outputs[2] == outputs[3] not in (outputs[0], outputs[1])


# JSON values: null, booleans, strings, floats with NaN and +-inf, small
# integers, an integer past the float range, and lists and objects of these.
JSON_VALUES = st.recursive(
    st.one_of(st.sampled_from([None, True, False, "", "3/2", math.nan,
                               math.inf, -math.inf, 10**400]),
              st.text(max_size=4), st.floats(), st.integers(-3, 25)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=4), inner,
                                            max_size=3)),
    max_leaves=6)
FUZZ_BASE = {
    **M3_PROPORTIONAL, "N_list": [5, 10, 20], "x_probe": [0.4, 0.4, 0.2],
    "xi_list": [[0.5, 0.0, -0.5]], "N": 10, "count": 5, "budget": 100,
    "sampler_fallback": True,
    "chain": {"steps": 600, "burn_in": 100, "thinning": 10}}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["solve", "lln-sweep", "fluct-check", "entropy-probe",
                        "sample"]),
       st.sampled_from(["exact", "metropolis"]),
       st.sampled_from([*CONFIG_KEYS, *(f"chain.{k}" for k in CHAIN_KEYS)]),
       JSON_VALUES)
def test_any_single_key_value_exits_0_1_or_2(command, method, key, value):
    config = {**FUZZ_BASE, "method": method}
    if key.startswith("chain."):
        config["chain"] = {**config["chain"], key[len("chain."):]: value}
    else:
        config[key] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        with contextlib.redirect_stderr(err):
            status = main([command, "--config", str(path),
                           "--out", str(Path(tmp) / "out")])
    assert status in (0, 1, 2)
    if status:
        assert json.loads(err.getvalue())["error"] in ("config", "numeric")


def test_unwritable_out_fails_before_any_row(tmp_path, capsys, monkeypatch):
    # the boundary sweep that enumerated for 0.6 s before it found the
    # missing directory now fails before a distribution is built
    import occens.ensemble
    import occens.sampler

    def no_rows(*args, **kwargs):
        raise AssertionError("a row ran before --out was checked")

    monkeypatch.setattr(occens.ensemble, "accumulate_support", no_rows)
    monkeypatch.setattr(occens.sampler, "iid_draws", no_rows)
    config = write_config(tmp_path, {**M3_PROPORTIONAL,
                                     "N_list": [500, 1000, 2000, 3000]})
    out = tmp_path / "missing" / "x.csv"
    detail = assert_config_error(capsys, main(["fluct-check", "--config", config,
                                               "--out", str(out)]))
    assert str(out) in detail


@pytest.mark.parametrize("budget", [10**6, 10**4],
                         ids=["exact-count", "viable-prefixes"])
def test_budget_error_falls_back_before_any_block(tmp_path, monkeypatch,
                                                  budget):
    # m=4 at N=200 has 1,373,701 states; at a budget of 1e4 the error names
    # the viable prefixes of two levels instead.  Either comes before any
    # block is weighed and sends the row to the i.i.d. sampler.
    import occens.ensemble

    def weigh(*args):
        raise AssertionError("a block was weighed")

    monkeypatch.setattr(occens.ensemble, "table_log_multiplicity", weigh)
    config = write_config(tmp_path, {
        "energies": ["1", "2", "3", "4"], "weights": [0.25] * 4,
        "energy_cap": 5, "regime": "proportional", "c": 1.0,
        "N_list": [200], "budget": budget, "sampler_fallback": True,
        "seed": 1, "xi_list": [[0.5, 0, 0, 0]]})
    out = tmp_path / "sweep.csv"
    assert main(["lln-sweep", "--config", config, "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert len(rows) == 1
    assert 0 < float(rows[0][header.index("mean_abs_err")]) < 0.5


def test_out_checked_without_touching_it(tmp_path, capsys):
    # a run that fails after the check leaves a file that was there as it
    # was, and creates none that was not
    config = write_config(tmp_path, {**BOUNDARY_CONFIG, "N_list": [40],
                                     "budget": 2})
    kept, fresh = tmp_path / "kept.csv", tmp_path / "fresh.csv"
    kept.write_text("earlier results\n", encoding="utf-8")
    for out in (kept, fresh):
        assert main(["lln-sweep", "--config", config, "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "numeric"
    assert kept.read_text(encoding="utf-8") == "earlier results\n"
    assert not fresh.exists()


# Config errors the checks before the first row or draw must find: every
# exit-2 case above, and those that depend on N or on the command.
EARLY_CONFIG_ERRORS = [
    *((command, extra, WITH_CONFIG) for command, extra in MALFORMED),
    *((command, extra, args) for command, extra, args, _ in REJECTED),
    ("lln-sweep", {"N_list": [10, 20], "sampler_fallback": True,
                   "chain": {"steps": 100, "burn_in": 100}}, WITH_CONFIG),
    ("sample", {"N": 10, "method": "metropolis",
                "chain": {"burn_in": sys.maxsize}}, WITH_CONFIG),
    ("sample", {"N": 10, "count": sys.maxsize // 24 + 1}, WITH_CONFIG),
    # the split at N=106 loses its sum; rows 10 and 50 would run first
    ("lln-sweep", {"regime": "high_degeneracy", "p": 8,
                   "N_list": [10, 50, 106]}, WITH_CONFIG),
    ("sample", {"regime": "low_degeneracy", "N": 1}, WITH_CONFIG),
    ("fluct-check", {"energies": ["1/2", "1"], "weights": [0.5, 0.5],
                     "energy_cap": "7/10", "regime": "low_degeneracy",
                     "N_list": [10, 15]}, WITH_CONFIG),
    ("entropy-probe", {"N_list": [10, 20], "x_probe": [0.55, 0.25, 0.2]},
     WITH_CONFIG),
    ("entropy-probe", {"regime": "low_degeneracy", "N_list": [10, 20],
                       "x_probe": [0.5, 0.5, 0.0]}, WITH_CONFIG),
    ("fluct-check", {"N_list": [10, 20]},
     [*WITH_CONFIG, "--out", "{tmp}/missing/x.csv"]),
]
EARLY_IDS = [*MALFORMED_IDS, *REJECTED_IDS, "chain.burn_in-reaches-steps",
             "chain.burn_in-overflow", "count-past-one-array", "split-at-N106",
             "sample-split-at-N1", "boundary-N-not-divisible",
             "x_probe-unrepresentable", "x_probe-zero-low", "out-unwritable"]


def _no_work(monkeypatch):
    """Make the first unit of work of every command raise: a sweep row's
    enumeration and its fallback draws, entropy-probe's row, and both
    sampling methods."""
    import occens.ensemble
    import occens.entropy
    import occens.sampler

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the config was checked")

    for module, name in [(occens.ensemble, "accumulate_support"),
                         (occens.sampler, "metropolis_rows"),
                         (occens.sampler, "iid_draws"),
                         (occens.entropy, "approximation_error")]:
        monkeypatch.setattr(module, name, no_work)


@pytest.mark.parametrize("command, extra", [
    ("lln-sweep", {"N_list": [10]}),
    ("fluct-check", {"N_list": [10]}),
    ("entropy-probe", {"N_list": [10], "x_probe": [0.5, 0.3, 0.2]}),
    ("sample", {"N": 10}),
    ("sample", {"N": 10, "method": "metropolis"}),
], ids=["lln-sweep", "fluct-check", "entropy-probe", "sample-exact",
        "sample-metropolis"])
def test_no_work_patches_what_commands_call(tmp_path, monkeypatch, command,
                                            extra):
    # each patched name is on its command's path, so the test below guards
    # every command; a patch of a name no command calls would guard nothing
    _no_work(monkeypatch)
    with pytest.raises(AssertionError, match="work started"):
        run_args(tmp_path, command, extra, WITH_CONFIG)


@pytest.mark.parametrize("command, extra, args", EARLY_CONFIG_ERRORS,
                         ids=EARLY_IDS)
def test_config_error_before_any_work(tmp_path, capsys, monkeypatch, command,
                                      extra, args):
    _no_work(monkeypatch)
    assert_config_error(capsys, run_args(tmp_path, command, extra, args))


def test_low_degeneracy_zero_probe_named(tmp_path, capsys):
    # s_l = sum g_i ln x_i + g_i is -inf at x_3 = 0; the error column grew
    # from 0.76 to 2.42 as N grew
    config = write_config(tmp_path, {
        **M3_CONFIG, "regime": "low_degeneracy", "N_list": [100, 1000],
        "x_probe": [0.4, 0.6, 0.0]})
    detail = assert_config_error(capsys, main(["entropy-probe", "--config",
                                               config]))
    assert "zero coordinate, at level 3" in detail


def test_failed_allocation_is_json(tmp_path, capsys, monkeypatch):
    import occens.sampler

    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(occens.sampler, "iid_draws", no_memory)
    config = write_config(tmp_path, {**M3_PROPORTIONAL, "N": 10,
                                     "count": 10**12})
    assert main(["sample", "--config", config]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err) == {"error": "memory",
                               "detail": "Unable to allocate 7.28 TiB"}


@pytest.mark.parametrize("command, extra, kept", [
    # the default burn-in 10*N*m = 150000 reached the given steps and
    # exited 2; the burn-in is now half the steps
    ("sample", {"N": 5000, "method": "metropolis",
                "chain": {"steps": 100_000}}, 10),
    # a fallback sweep checks the chain block and reads count and seed
    ("lln-sweep", {"N_list": [10, 5000], "budget": 100,
                   "sampler_fallback": True, "chain": {"steps": 100_000}}, 2),
    # metropolis sampling needed chain.steps; it now has the default
    ("sample", {"N": 6, "method": "metropolis"}, 33304),
], ids=["sample-steps-only", "fallback-steps-only", "sample-no-chain"])
def test_partial_chain_block_runs(tmp_path, capsys, command, extra, kept):
    config = write_config(tmp_path, {**M3_PROPORTIONAL, **extra})
    out = tmp_path / "out.csv"
    assert main([command, "--config", config, "--out", str(out)]) == 0, \
        capsys.readouterr().err
    comments, _, rows = read_csv(out)
    assert len(rows) == kept
    if command == "sample":
        steps = extra.get("chain", {}).get("steps", 200_000)
        assert f"# method=metropolis steps={steps} seed=0" in comments


def _abc_format_cell(value) -> str:
    # the cell format through the number ABCs alone
    import numbers
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
        return repr(float(value))
    return str(value)


@pytest.mark.parametrize("value", [
    0, -7, 2**70, 0.1, -0.0, 1e300, 5e-324, math.inf, math.nan, "x", None,
    np.int64(-3), np.int32(12), np.float64(0.30000000000000004)])
def test_cell_format_unchanged(value):
    # the cells are written by str
    assert str(value) == _abc_format_cell(value)


@pytest.mark.parametrize("command", ["lln-sweep", "fluct-check", "sample"])
def test_cap_far_above_top_energy(tmp_path, capsys, command):
    # floor(q*E*N) overflowed the int64 prefix walk and exited 1, though
    # every composition is admissible, as it is at a cap of the top energy
    outputs = []
    for cap in ("1e30", "3"):
        config = write_config(tmp_path, {
            **M3_PROPORTIONAL, "energy_cap": cap, "N_list": [10, 20], "N": 10,
            "count": 20, "xi_list": [[0.5, 0.0, -0.5]]})
        out = tmp_path / "out.csv"
        assert main([command, "--config", config, "--out", str(out)]) == 0, \
            capsys.readouterr().err
        comments, header, rows = read_csv(out)
        if header[-1] == "wall_time_s":
            rows = [r[:-1] for r in rows]
        outputs.append(([c for c in comments if "generated=" not in c],
                        header, rows))
    assert outputs[0] == outputs[1]
