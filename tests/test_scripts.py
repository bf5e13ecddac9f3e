"""Smoke tests: each script under scripts/ runs to completion in a fresh interpreter."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from symform import dynamics

ROOT = Path(__file__).resolve().parent.parent


def script_env(blas_threads: str | None = None) -> dict:
    """This environment with ``src`` on the path and, if given, every BLAS thread count set."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    if blas_threads is not None:
        env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), blas_threads))
    return env


def run_script(name: str, *args: str, blas_threads: str | None = None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=script_env(blas_threads),
                          capture_output=True, text=True, timeout=120)


def test_decay_rate_study():
    result = run_script("decay_rate_study.py", "--n-from", "3", "--n-to", "5")
    assert result.returncode == 0, result.stderr
    assert "worst relative gap" in result.stdout


def test_solver_costs(tmp_path, monkeypatch, solver_costs):
    # a small grid in a fresh interpreter: the section is written beside the file's others
    out = tmp_path / "BENCH_scaling.json"
    out.write_text('{"other": [1]}')
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import solver_costs as s; "
            "s.SIZES = (4, 64); s.COUNTS = (1, 64); sys.exit(s.main(['--out', sys.argv[2], '--repeats', '1']))")
    result = subprocess.run([sys.executable, "-c", code, str(ROOT / "scripts"), str(out)], env=script_env(),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    data = json.loads(out.read_text())
    assert data["other"] == [1]
    section = data["solver_paths"]
    assert len(section["table"]) == section["summary"]["cells"] == 16
    # each row's rule is the pick under the fitted constant
    monkeypatch.setattr(dynamics, "STENCIL_STEP_MULADDS", section["stencil_step_muladds"])
    for row in section["table"]:
        assert set(row["seconds"]) == {"block", "stencil"}
        assert row["fastest"] == min(row["seconds"], key=row["seconds"].get)
        assert solver_costs.rule(row) == row["rule"]


@pytest.mark.parametrize("fastest", ["block", "stencil"])
@pytest.mark.parametrize("sizes", [(4,), (4, 64, 600)])
def test_solver_costs_fit_when_one_path_wins_every_cell(sizes, fastest, monkeypatch, solver_costs):
    # the fitted constant lies past every cell's threshold, on the side that picks that path,
    # also for a table of one threshold
    table = [{"dtype": "float64", "columns": 2, "m": m, "steps": 64, "fastest": fastest} for m in sizes]
    monkeypatch.setattr(dynamics, "STENCIL_STEP_MULADDS", solver_costs.fit(table))
    assert [solver_costs.rule(row) for row in table] == [fastest] * len(sizes)


def test_csv_costs(tmp_path):
    # one repeat, with this checkout as its own baseline: both kernels get every stage of
    # every trace, and the section is written beside the file's others
    out = tmp_path / "BENCH_layers.json"
    out.write_text('{"other": [1]}')
    result = run_script("csv_costs.py", "--out", str(out), "--repeats", "1",
                        "--baseline", str(ROOT / "src"), "--label", "same")
    assert result.returncode == 0, result.stderr
    data = json.loads(out.read_text())
    assert data["other"] == [1]
    kernels = data["csv_kernel"]["kernels"]
    assert set(kernels) == {"checkout", "same"}
    for kernel in kernels.values():
        assert set(kernel["traces"]) == {"maneuver_c6", "flow_n16", "wide_n600"}
        assert kernel["traces"]["wide_n600"]["row_values"] == 1801
        for row in kernel["traces"].values():
            assert set(row["ns_per_value"]) == {"decimal", "layout", "translate", "write"}
        assert set(kernel["tracemalloc_peak_bytes"]) == {"table_build", "maneuver_c6", "flow_n16", "wide_n600"}


def test_snapshot_outputs(tmp_path):
    # asked for two BLAS threads, the script still runs on one: its block-path run at n = 300
    # writes the bytes of a one-thread run
    result = run_script("snapshot_outputs.py", str(tmp_path), blas_threads="2")
    assert result.returncode == 0, result.stderr
    runs = tmp_path / "runs"
    assert sorted(p.name for p in runs.iterdir()) == [
        "cube", "cube_cross_edge", "cube_maneuver", "cube_reordered", "example2_c4", "example3_c6",
        "maneuver_20_runs", "maneuver_c6", "maneuver_n300", "maneuver_n600_scale", "maneuver_n64",
        "maneuver_one_step_runs", "planar_n16", "planar_n300_400", "planar_n600", "planar_n600_cut",
        "planar_n600_long", "planar_n6_one_step", "planar_tree_n9", "ticks_1e17"]
    assert all("runtime_seconds" not in p.read_text() for p in runs.glob("*/metrics.json"))
    log = (tmp_path / "log.txt").read_text()
    assert log.count("\nexit 0\n") == 30 and str(tmp_path) not in log
    assert log.count("\nexit 3\n") == 3
    assert log.count("\nexit 2\n") == 2 and "max |P(-dt mu)| = inf > 1" in log
    assert "1e+308 steps of 40000 coordinates need about inf MiB" in log
    assert "$ symform verify OUT/scenarios/verify_n256.json\nexit 0\n" in log
    assert "$ symform verify OUT/scenarios/verify_n600.json\nexit 0\n" in log
    assert (tmp_path / "sweep" / "sweep.json").is_file()
    scenario, trace = tmp_path / "scenarios" / "planar_n300_400.json", "planar_n300_400/trace.csv"
    single = subprocess.run([sys.executable, "-m", "symform", "run", str(scenario), "--out", str(tmp_path / "single")],
                            env=script_env("1"), capture_output=True, timeout=120)
    assert single.returncode == 0, single.stderr
    assert (runs / trace).read_bytes() == (tmp_path / "single" / trace).read_bytes()


def test_compare_snapshots(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root, states, potential, rate in ((a, "2,-4", 8, -0.5), (b, "2,-4.000000001", 8.0000001, -0.25)):
        (root / "runs" / "x").mkdir(parents=True)
        (root / "runs" / "x" / "trace.csv").write_text(
            f"t,p1_x,p1_y,err_1_2,potential\n0,1,-1,0.5,{potential}\n1,{states},0.25,0.5\n")
        (root / "runs" / "x" / "metrics.json").write_text(
            f'{{"fitted_rate": {rate}, "steps": 1, "checks": {{"psd": true}}, "spectrum": [1, 3]}}')
        (root / "runs" / "x" / "paths.svg").write_text("<svg/>")
    result = run_script("compare_snapshots.py", str(a), str(b))
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "runs/x/metrics.json: fitted_rate -0.5 -> -0.25 (0.5), 3 numbers unchanged",
        "runs/x/paths.svg: identical",
        "runs/x/trace.csv: t 0, p 2.5e-10, err 0, potential 1.2e-08",
    ]
    (b / "runs" / "x" / "errors.svg").write_text("<svg/>")
    result = run_script("compare_snapshots.py", str(a), str(b))
    assert result.returncode == 1 and "runs/x/errors.svg: only in B" in result.stdout


def test_compare_snapshots_json_keys(tmp_path):
    # a number only one file holds is named, and the numbers both hold are still compared
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    (a / "metrics.json").write_text('{"rate": 1, "solver": {"steps": 2}, "old": 3, "name": "x"}')
    (b / "metrics.json").write_text('{"rate": 1.5, "solver": {"steps": 2, "blocks": [4]}, "name": "x"}')
    result = run_script("compare_snapshots.py", str(a), str(b))
    assert result.returncode == 1
    assert result.stdout.splitlines() == [
        "metrics.json: old only in A, solver.blocks[0] only in B, rate 1 -> 1.5 (0.5), 1 numbers unchanged"]


LOG = """$ symform verify x
exit 0
--- stdout
  PASS gradient: max relative FD mismatch {gradient} (tol 1e-6)
  {verdict} solver_cross_check: |RK4 - closed form| = 9.005e-11 at t = 1.000 (tol 1e-6)
verification passed
--- stderr

$ symform run y
exit {code}
"""


def test_compare_snapshots_log(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    (a / "log.txt").write_text(LOG.format(gradient="1.302e-09", verdict="PASS", code=0))
    (b / "log.txt").write_text(LOG.format(gradient="1.726e-11", verdict="PASS", code=0))
    result = run_script("compare_snapshots.py", str(a), str(b))
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "log.txt: line 4 PASS gradient: max relative FD mismatch 1.302e-09 -> 1.726e-11 (0.99)"]
    # a changed exit code, or a verdict that turns from PASS to FAIL, fails the comparison
    for verdict, code, line in (("PASS", 4, "line 10 differs: 'exit 0' and 'exit 4'"),
                                ("FAIL", 0, "line 5 differs: 'PASS solver_cross_check")):
        (b / "log.txt").write_text(LOG.format(gradient="1.302e-09", verdict=verdict, code=code))
        result = run_script("compare_snapshots.py", str(a), str(b))
        assert result.returncode == 1
        assert result.stdout.startswith(f"log.txt: {line}")


def test_compare_snapshots_log_blocks(tmp_path):
    # B adds a check line to the verify block and a whole command block; both are named,
    # and the gradient line after the added line is still compared by its numbers
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    (a / "log.txt").write_text(LOG.format(gradient="1.302e-09", verdict="PASS", code=0))
    added = LOG.format(gradient="1.726e-11", verdict="PASS", code=0).replace(
        "--- stdout\n", "--- stdout\n  PASS tree_spectrum: max |run - eigh| = 2.220e-15\n")
    (b / "log.txt").write_text(added + "$ symform sweep\nexit 0\n")
    result = run_script("compare_snapshots.py", str(a), str(b))
    assert result.returncode == 1
    assert result.stdout.splitlines() == [
        "log.txt: block '$ symform sweep' only in B (2 lines), "
        "line 4 of B only in B: 'PASS tree_spectrum: max |run - eigh| = 2.220e-15', "
        "line 4 PASS gradient: max relative FD mismatch 1.302e-09 -> 1.726e-11 (0.99)"]
    result = run_script("compare_snapshots.py", str(b), str(a))
    assert result.returncode == 1
    assert result.stdout.splitlines() == [
        "log.txt: line 4 only in A: 'PASS tree_spectrum: max |run - eigh| = 2.220e-15', "
        "block '$ symform sweep' only in A (2 lines), "
        "line 5 PASS gradient: max relative FD mismatch 1.726e-11 -> 1.302e-09 (74)"]


def svg(*polylines: str) -> str:
    lines = ['<svg xmlns="http://www.w3.org/2000/svg" width="720" height="520">']
    lines += [f'<polyline points="{pts}" fill="none" stroke="#123456" stroke-width="1.5"/>'
              for pts in polylines]
    return "\n".join(lines + ['<circle cx="3.00" cy="4.00" r="4"/>', "</svg>"])


def test_compare_snapshots_svg(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    (a / "paths.svg").write_text(svg("0.00,0.00 1.00,0.30 2.00,0.00 3.00,4.00", "5.00,5.00"))
    # dropping (1.00, 0.30) leaves it 0.3 px from the segment (0, 0)-(2, 0)
    (b / "paths.svg").write_text(svg("0.00,0.00 2.00,0.00 3.00,4.00", "5.00,5.00"))
    result = run_script("compare_snapshots.py", str(a), str(b))
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["paths.svg: polyline 0.3 px"]
    (b / "paths.svg").write_text(svg("0.00,0.00 2.00,0.00 3.00,4.00", "5.00,5.60"))
    result = run_script("compare_snapshots.py", str(a), str(b))
    assert result.returncode == 1
    assert result.stdout.splitlines() == ["paths.svg: polyline 0.6 px exceeds 0.5 px"]
    (b / "paths.svg").write_text(svg("0.00,0.00 1.00,0.30 2.00,0.00 3.00,4.00"))
    result = run_script("compare_snapshots.py", str(a), str(b))
    assert result.returncode == 1
    assert result.stdout.splitlines() == ["paths.svg: polyline counts differ: 2 and 1"]
