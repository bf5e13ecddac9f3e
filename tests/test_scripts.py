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


def test_run_presets(tmp_path):
    result = run_script("run_presets.py", "--out", str(tmp_path))
    assert result.returncode == 0, result.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "cube", "example2_c4", "example3_c6", "maneuver_c6"]
    assert (tmp_path / "maneuver_c6" / "reference.csv").is_file()


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
        "planar_n600"]
    assert all("runtime_seconds" not in p.read_text() for p in runs.glob("*/metrics.json"))
    log = (tmp_path / "log.txt").read_text()
    assert log.count("\nexit 0\n") == 12 and str(tmp_path) not in log
    assert (tmp_path / "sweep" / "sweep.json").is_file()
