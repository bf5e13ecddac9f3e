#!/usr/bin/env python3
"""Write a byte-comparable snapshot of symform's outputs into OUT.

Every command goes through ``symform.cli.main``: ``run`` of each bundled
preset and of sixteen fixed scenarios (a planar n = 600 run; the same run
with the interior edge (300, 301) removed instead of (600, 1); a planar n = 600
run of 1,200 steps, twice m = 600, which the path rule keeps on the stencil
rather than the block path; a planar n = 300 run of 400 steps, which it sends
down the block path, one step per product; a planar n = 600 maneuver with
ω = 0 and two scale rates, whose real L - αI takes the stencil; a planar n = 16 run
on the default grid, whose SVGs are the largest the benchmark's ``flow``
workload writes, a planar maneuver of 20 runs of constant input, a planar n = 6
run of one step and an n = 12 maneuver whose inputs switch at every step (20 runs
of one step), the shortest segments a run forms, a planar
n = 64 maneuver whose two runs of constant nonzero angular velocity (200 steps
each) take the complex block path, a planar
n = 300 maneuver whose runs of 300 and 600 steps apply its complex
L - (α + iω)I by the path stencil, and a
cube maneuver, all five maneuvers with negative scale rates; a cube whose cross
edge (2, 6) makes a tree that is not a path, so its spectrum comes from
``eigvalsh`` of L rather than the path formula; a cube whose top face runs
4-3-2-1 and whose cross edge points from 5 to 1, so the composed route must
place its blocks by the spec's labels; a planar n = 9 tree given
edge by edge, cut at (4, 5), with its own shifts and flipped edges; and a planar
n = 3 maneuver at x = 1e17, whose paths plot's x axis is two float spacings
wide),
``run`` of three scenarios that fail with exit 3 and write nothing (a planar
and a cube maneuver from reference scale 1e-306, whose frame coordinates
overflow the projection residual and, for the cube, the frame residual that
its run checks first, and a planar maneuver whose scale decays
below the smallest normal float), ``run`` of a planar n = 3 maneuver at
angular velocity 1e308, whose RK4 stability gain overflows, and of a planar
n = 20,000 run of 1e308 steps, whose trace bytes pass the float range, which
fail with exit 2 and write nothing, ``verify`` of each preset, of the last
three run scenarios that succeed, of a planar n = 256 scenario (the shape
of the benchmark's ``checks`` workload, so its check values land in the
log; its solver cross-check takes the block path) and of a planar n = 600
scenario (its solver cross-check integrates the path stencil, as a run does), and
``sweep --n-from 3 --n-to 30``. The run files land in OUT/runs
and OUT/sweep, with ``runtime_seconds`` dropped from each metrics.json; each
command's exit code, stdout and stderr go to OUT/log.txt. Two snapshots, say
of two checkouts, are compared with ``diff -r``:

    PYTHONPATH=src python scripts/snapshot_outputs.py /tmp/new
    PYTHONPATH=../other/src python scripts/snapshot_outputs.py /tmp/old
    diff -r /tmp/old /tmp/new

or with ``scripts/compare_snapshots.py /tmp/old /tmp/new``, which reports how
far their numbers drift.

The script runs on one BLAS thread, whatever the environment says, as the
benchmark does: under another thread count a block-path segment past
m ≈ 256 (the planar n = 300 run of 400 steps) writes other bits, and so do
the dense eigvalsh values of the n = 256 and n = 600 verifies. A checkout whose
script does not pin the thread count is snapshotted under
``OPENBLAS_NUM_THREADS=1``.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads: one BLAS thread, as the benchmark runs

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from symform import cli  # noqa: E402

PRESETS = ("example2_c4", "example3_c6", "maneuver_c6", "cube")
TIMES = [2.0 * k for k in range(20)]
STEP_TIMES = [0.1 * k for k in range(20)]  # every step of a grid of dt = 0.1
SCENARIOS = {
    "planar_n600": {"n": 600, "horizon": 5.0},
    "planar_n600_cut": {"n": 600, "horizon": 5.0, "tree": {"remove": [300, 301]}},
    "planar_n600_long": {"n": 600, "dt": 0.1, "horizon": 120.0},
    "planar_n300_400": {"n": 300, "dt": 0.01, "horizon": 4},
    "maneuver_n600_scale": {
        "n": 600, "dt": 0.1, "horizon": 30,
        "reference": {"velocity": [[0, [0.2, -0.1]]], "scale_rate": [[0, -0.01], [15, 0.004]]},
    },
    "planar_n16": {"n": 16},
    "planar_n6_one_step": {"n": 6, "dt": 0.1, "horizon": 0.1},
    "maneuver_20_runs": {
        "n": 12, "dt": 0.02, "horizon": 45.0,
        "reference": {
            "start": {"position": [0.5, -1.0], "angle": 0.4, "scale": 1.5},
            "velocity": [[t, [0.3 * (-1) ** k, 0.1 * k]] for k, t in enumerate(TIMES)],
            "angular_velocity": [[t, 0.05 * (k % 5) - 0.1] for k, t in enumerate(TIMES)],
            "scale_rate": [[t, 0.004 * (k % 3) - 0.006] for k, t in enumerate(TIMES)],
        },
    },
    "maneuver_one_step_runs": {
        "n": 12, "dt": 0.1, "horizon": 2.0,
        "reference": {
            "velocity": [[t, [0.3 * (-1) ** k, 0.1 * k]] for k, t in enumerate(STEP_TIMES)],
            "angular_velocity": [[t, 0.05 * (k % 5) - 0.1] for k, t in enumerate(STEP_TIMES)],
            "scale_rate": [[t, 0.004 * (k % 3) - 0.006] for k, t in enumerate(STEP_TIMES)],
        },
    },
    "maneuver_n64": {
        "n": 64, "dt": 0.1, "horizon": 40,
        "reference": {"angular_velocity": [[0, 0.2], [20, -0.1]], "scale_rate": [[0, -0.005]]},
    },
    "maneuver_n300": {
        "n": 300, "dt": 0.1, "horizon": 90,
        "reference": {"angular_velocity": [[0, 0.2], [30, -0.1]], "scale_rate": [[0, -0.005]]},
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
    "cube_cross_edge": {"formation": "cube", "cube": {"cross_edge": [2, 6]}},
    "cube_reordered": {"formation": "cube", "cube": {"top_nodes": [4, 3, 2, 1], "cross_edge": [5, 1]}},
    "planar_tree_n9": {
        "n": 9, "seed": 3,
        "tree": {"edges": [[1, 2, 1], [3, 2, 3], [3, 4, 0], [6, 5, 8], [6, 7, 2], [8, 7, 5], [8, 9, 7], [1, 9, 4]]},
    },
    "ticks_1e17": {
        "n": 3, "dt": 0.1, "horizon": 1,
        "initial": {"points": [[10 ** 17, 0], [10 ** 17 + 16, 0], [10 ** 17, 3]]},
        "reference": {"start": {"position": [10 ** 17, 0]}},
    },
}

FAILING = {
    "overflow_metric": {"n": 6, "horizon": 5, "reference": {"start": {"scale": 1e-306}}},
    "overflow_metric_cube": {"formation": "cube", "horizon": 5, "reference": {"start": {"scale": 1e-306}}},
    "subnormal_scale": {"n": 6, "dt": 0.01, "horizon": 80, "reference": {"scale_rate": [[0, -10]]}},
    "omega_overflow": {"n": 3, "reference": {"angular_velocity": [[0, 1e308]]}},
    "trace_bytes_overflow": {"n": 20000, "dt": 1e-300, "horizon": 1e8},
}

VERIFIED = {"verify_n256": {"n": 256}, "verify_n600": {"n": 600},
            "cube_cross_edge": SCENARIOS["cube_cross_edge"], "cube_reordered": SCENARIOS["cube_reordered"],
            "planar_tree_n9": SCENARIOS["planar_tree_n9"]}


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
        for name, scenario in (SCENARIOS | FAILING).items():
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
