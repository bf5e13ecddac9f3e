#!/usr/bin/env python3
"""Measure each RK4 segment path of ``dynamics.propagate_linear`` and fit its rule's constant.

A segment is a step count of dc/dt = -G c with one m x m operator G: a dense
array, or a planar tree's ``PathStencil``. An array takes the block path, a
stencil one of two:

- ``block``: D = P - I of the dense G and its stack D_1 … D_B, B states per
  matrix product (``_rk4_increment`` and ``_power_steps``);
- ``stencil``: rk4_step a step on the stencil's slices (``_stage_steps``).

Over a grid of m, step counts and state columns (float64 on 1, 2 and 3
columns, complex128 on 1) the script times both paths on the path stencil of
C_m cut at (m, 1), the median of ``--repeats`` runs taken in turn, on one BLAS
thread. It fits K = ``dynamics.STENCIL_STEP_MULADDS``, the one constant of
``dynamics.segment_path`` (the comment over it states the rule): the middle, on
a log scale and to three significant digits, of the widest interval of K that
picks the fastest path in the most cells. The table (each path's seconds, the
fastest path, the rule's pick), K and a summary go into the ``solver_paths``
section of BENCH_scaling.json, its other sections kept; a test keeps K equal to
the fit of the recorded table. Usage, from the repository root:

    PYTHONPATH=src python scripts/solver_costs.py [--out BENCH_scaling.json] [--repeats 7]

The full grid of 480 cells takes about six minutes on one core of a 2.0 GHz Xeon.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads: one BLAS thread, as the benchmark runs

import argparse  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import bench_file  # noqa: E402
from symform import dynamics  # noqa: E402
from symform.laplacian import PathStencil  # noqa: E402

SIZES = (4, 8, 16, 24, 48, 96, 128, 192, 256, 320, 400, 512, 600, 800, 1200)
COUNTS = (1, 4, 16, 64, 200, 400, 1000, 4000)
KINDS = (("float64", 1), ("float64", 2), ("float64", 3), ("complex128", 1))
MAX_BLOCK_CUBES = 2e9    # the block path of a cell whose D and stack take more multiply-adds is not timed
DT = 0.1


def stencil(m: int, dtype: str) -> PathStencil:
    """The path stencil of C_m cut at (m, 1), shifted like a maneuver's G when complex."""
    degrees = np.full(m, 2)
    degrees[[0, m - 1]] = 1
    return PathStencil(degrees, m - 1, 0.05 + 0.3j if dtype == "complex128" else 0.0)


def rule(row: dict) -> str:
    """The path that ``dynamics.segment_path`` picks for a table row's segment."""
    return dynamics.segment_path(stencil(row["m"], row["dtype"]), row["steps"], row["columns"]).path


def path_runs(g: PathStencil, count: int, columns: int, block: int) -> dict:
    """A callable per path that writes the segment's rows, the block path only when timed."""
    m, parts = g.shape[0], g.dtype.itemsize // 8
    out = np.empty((count + 1, m * columns * parts))
    out[0] = np.random.default_rng(m + count + columns).uniform(-1.0, 1.0, out.shape[1])
    rows = dynamics._rows(out, g)
    runs = {"stencil": lambda: dynamics._stage_steps(rows, 0, count, g, DT)}
    if (block + 2) * m ** 3 * parts * parts <= MAX_BLOCK_CUBES:
        dense = g.dense()  # formed outside the timing: the rule has no term for it
        runs["block"] = lambda: dynamics._power_steps(rows, 0, count, dynamics._rk4_increment(dense, DT), block)
    return runs


def measure(repeats: int) -> list[dict]:
    """One row per cell: its m, steps, columns, dtype, B and the median seconds of each path."""
    table = []
    for dtype, columns in KINDS:
        for m in SIZES:
            for count in COUNTS:
                block = dynamics.block_size(m, count)
                runs = path_runs(stencil(m, dtype), count, columns, block)
                times = {path: [] for path in runs}
                for _ in range(repeats):  # the paths in turn, so a slow spell of the machine hits each
                    for path, run in runs.items():
                        start = time.perf_counter()
                        run()
                        times[path].append(time.perf_counter() - start)
                seconds = {path: float(f"{statistics.median(t):.4g}") for path, t in times.items()}
                table.append({"dtype": dtype, "columns": columns, "m": m, "steps": count, "block": block,
                              "seconds": seconds})
                print(f"{dtype:>10} x{columns} m={m:5d} steps={count:5d} "
                      + " ".join(f"{p}={1e3 * s:9.3f}ms" for p, s in seconds.items()), flush=True)
    return table


def fit(table: list[dict]) -> float:
    """K, to three significant digits: the middle, on a log scale, of the widest interval
    between two cells' thresholds (``dynamics._block_muladds`` per step: a cell takes the
    stencil for K below its own) in which the rule picks each row's ``fastest`` path in the
    most cells. The intervals past the extreme thresholds reach a factor of 4 beyond them,
    so a table whose cells all prefer one path gets a K that picks it."""
    cells = [(dynamics._block_muladds(row["m"], row["steps"], row["columns"], np.dtype(row["dtype"]))
              / row["steps"], row["fastest"] == "stencil") for row in table]
    edges = sorted({threshold for threshold, _ in cells})
    edges = [edges[0] / 4, *edges, edges[-1] * 4]
    lo, hi = max(zip(edges, edges[1:]), key=lambda interval: (
        sum((interval[0] < threshold) == stencil for threshold, stencil in cells),  # cells picked right
        interval[1] / interval[0]))  # the width on a log scale
    return float(f"{math.sqrt(lo * hi):.3g}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_scaling.json", help="JSON file to write solver_paths into")
    parser.add_argument("--repeats", type=int, default=7, help="timed runs per path and cell (median)")
    args = parser.parse_args(argv)
    table = measure(args.repeats)
    for row in table:
        row["fastest"] = min(row["seconds"], key=row["seconds"].get)
    dynamics.STENCIL_STEP_MULADDS = fitted = fit(table)  # the rule under the fitted constant
    ratios = []
    for row in table:
        seconds = row["seconds"]
        row["rule"] = rule(row)
        if row["rule"] in seconds:
            ratios.append((seconds[row["rule"]] / seconds[row["fastest"]], row))
    ratios.sort(key=lambda item: -item[0])
    section = {
        "what": "median seconds of one RK4 segment on each path of dynamics.propagate_linear, on the path "
                "stencil of C_m cut at (m, 1); the fastest path, and the path that "
                "dynamics.segment_path picks with the fitted constant (STENCIL_STEP_MULADDS)",
        "command": "PYTHONPATH=src python scripts/solver_costs.py --repeats " + str(args.repeats),
        "machine": bench_file.machine(),
        "stencil_step_muladds": fitted,
        "summary": {
            "cells": len(table),
            "rule_picks_the_fastest": sum(row["rule"] == row["fastest"] for row in table),
            "median_rule_over_fastest": statistics.median(r for r, _ in ratios),
            "worst_rule_over_fastest": [
                {"ratio": round(r, 3), **{k: row[k] for k in ("dtype", "columns", "m", "steps", "rule", "fastest")}}
                for r, row in ratios[:5]],
        },
        "table": table,
    }
    path = Path(args.out)
    bench_file.write_section(path, "solver_paths", section)
    print(f"wrote {path}: the rule picks the fastest path in {section['summary']['rule_picks_the_fastest']} "
          f"of {len(table)} cells; fitted {fitted}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
