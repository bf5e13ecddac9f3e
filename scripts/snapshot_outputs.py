#!/usr/bin/env python3
"""Write a byte-comparable snapshot of symform's outputs into OUT.

Every command goes through ``symform.cli.main``: ``run`` of each bundled
preset and of five fixed scenarios (a planar n = 600 run, a planar n = 16 run
on the default grid, whose SVGs are the largest the benchmark's ``flow``
workload writes, a planar maneuver of 20 runs of constant input, a planar
n = 64 maneuver whose two runs of constant nonzero angular velocity are long
enough (200 steps each, at least 2n) for the complex block path, and a cube
maneuver, all three maneuvers with negative scale rates), ``verify`` of each
preset and of a planar n = 256 scenario (the shape of the benchmark's
``checks`` workload, so its check values land in the log), and
``sweep --n-from 3 --n-to 30``. The run files land in OUT/runs
and OUT/sweep, with ``runtime_seconds`` dropped from each metrics.json; each
command's exit code, stdout and stderr go to OUT/log.txt. Two snapshots, say
of two checkouts, are compared with ``diff -r``:

    PYTHONPATH=src python scripts/snapshot_outputs.py /tmp/new
    PYTHONPATH=../other/src python scripts/snapshot_outputs.py /tmp/old
    diff -r /tmp/old /tmp/new

or with ``scripts/compare_snapshots.py /tmp/old /tmp/new``, which reports how
far their numbers drift.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

from symform import cli

PRESETS = ("example2_c4", "example3_c6", "maneuver_c6", "cube")
TIMES = [2.0 * k for k in range(20)]
SCENARIOS = {
    "planar_n600": {"n": 600, "horizon": 5.0},
    "planar_n16": {"n": 16},
    "maneuver_20_runs": {
        "n": 12, "dt": 0.02, "horizon": 45.0,
        "reference": {
            "start": {"position": [0.5, -1.0], "angle": 0.4, "scale": 1.5},
            "velocity": [[t, [0.3 * (-1) ** k, 0.1 * k]] for k, t in enumerate(TIMES)],
            "angular_velocity": [[t, 0.05 * (k % 5) - 0.1] for k, t in enumerate(TIMES)],
            "scale_rate": [[t, 0.004 * (k % 3) - 0.006] for k, t in enumerate(TIMES)],
        },
    },
    "maneuver_n64": {
        "n": 64, "dt": 0.1, "horizon": 40,
        "reference": {"angular_velocity": [[0, 0.2], [20, -0.1]], "scale_rate": [[0, -0.005]]},
    },
    "cube_maneuver": {
        "formation": "cube", "dt": 0.03, "horizon": 60.0,
        "reference": {
            "start": {"position": [0.2, -0.4, 0.7], "angle": 1.1, "axis": [0.6, 0.0, 0.8], "scale": 0.8},
            "velocity": [[0.0, [0.2, -0.1, 0.3]], [20.0, [-0.4, 0.2, 0.0]], [40.0, [0.1, 0.1, -0.2]]],
            "angular_velocity": [[0.0, [0.1, 0.0, -0.2]], [20.0, [0.0, 0.25, 0.1]], [40.0, [-0.1, 0.1, 0.1]]],
            "scale_rate": [[0.0, 0.01], [20.0, -0.008], [40.0, 0.0]],
        },
    },
}

VERIFIED = {"verify_n256": {"n": 256}}


def write_scenario(scenarios: Path, name: str, scenario: dict) -> str:
    """Write ``scenario`` named ``name`` into the directory ``scenarios``; return its path."""
    path = scenarios / f"{name}.json"
    path.write_text(json.dumps({"name": name, **scenario}))
    return str(path)


def run_logged(argv: list[str], out: Path, log: io.TextIOBase) -> None:
    """Run one command, appending its exit code, stdout and stderr to ``log`` with
    ``out`` written as OUT, so snapshots taken into different directories compare."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    log.write(f"$ symform {' '.join(argv)}\nexit {code}\n--- stdout\n{stdout.getvalue()}"
              f"--- stderr\n{stderr.getvalue()}\n".replace(str(out), "OUT"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="directory to write the snapshot into")
    out = Path(parser.parse_args(argv).out).resolve()
    scenarios = out / "scenarios"
    scenarios.mkdir(parents=True, exist_ok=True)
    with open(out / "log.txt", "w") as log:
        for name, scenario in SCENARIOS.items():
            run_logged(["run", write_scenario(scenarios, name, scenario), "--out", str(out / "runs")], out, log)
        for name, scenario in VERIFIED.items():
            run_logged(["verify", write_scenario(scenarios, name, scenario)], out, log)
        for name in PRESETS:
            run_logged(["run", name, "--out", str(out / "runs")], out, log)
            run_logged(["verify", name], out, log)
        run_logged(["sweep", "--n-from", "3", "--n-to", "30", "--out", str(out / "sweep")], out, log)
    for path in (out / "runs").glob("*/metrics.json"):
        metrics = json.loads(path.read_text())
        del metrics["runtime_seconds"]
        path.write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
