"""Smoke tests: each script under scripts/ runs to completion in a fresh interpreter."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_decay_rate_study():
    result = run_script("decay_rate_study.py", "--n-from", "3", "--n-to", "5")
    assert result.returncode == 0, result.stderr
    assert "worst relative gap" in result.stdout


def test_snapshot_outputs(tmp_path):
    result = run_script("snapshot_outputs.py", str(tmp_path))
    assert result.returncode == 0, result.stderr
    runs = tmp_path / "runs"
    assert sorted(p.name for p in runs.iterdir()) == [
        "cube", "cube_maneuver", "example2_c4", "example3_c6", "maneuver_20_runs", "maneuver_c6",
        "maneuver_n64", "planar_n16", "planar_n600"]
    assert all("runtime_seconds" not in p.read_text() for p in runs.glob("*/metrics.json"))
    log = (tmp_path / "log.txt").read_text()
    assert log.count("\nexit 0\n") == 15 and str(tmp_path) not in log
    assert "$ symform verify OUT/scenarios/verify_n256.json\nexit 0\n" in log
    assert (tmp_path / "sweep" / "sweep.json").is_file()


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
        "runs/x/metrics.json: fitted_rate 0.5, 3 numbers unchanged",
        "runs/x/paths.svg: identical",
        "runs/x/trace.csv: t 0, p 2.5e-10, err 0, potential 1.2e-08",
    ]
    (b / "runs" / "x" / "errors.svg").write_text("<svg/>")
    result = run_script("compare_snapshots.py", str(a), str(b))
    assert result.returncode == 1 and "runs/x/errors.svg: only in B" in result.stdout


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
