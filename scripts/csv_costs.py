#!/usr/bin/env python3
"""Measure the CSV kernel's stages in nanoseconds a value and write them to BENCH_layers.json.

The kernel (``symform.output``) formats a trace a block of about
``_CSV_BLOCK_VALUES`` values at a time. For each block it finds every
value's 17 digits and exponent (``_decimal``), lays the digits, point,
exponent and separators out in fixed byte slots (``_slots``, here ``layout``
without ``_decimal``'s share) and deletes the unused bytes
(``bytearray.translate``); ``write`` is the whole ``_csv_body`` pass, block
stacking and output calls included. The stages are timed over every block
of three traces, formed as ``_write_trace`` forms them:

- ``maneuver_c6`` at dt 0.015 (6,001 rows of 19 values: narrow rows);
- ``flow_n16``, a planar n = 16 run on the default grid (8,248 rows of 49);
- ``wide_n600``, a planar n = 600 run of 40 steps (41 rows of 1,801: wide rows).

Each figure is the median of ``--repeats`` timed passes, on one BLAS thread.
With ``--baseline SRC`` the kernel of another checkout's ``src`` directory is
loaded beside this one and timed on the same blocks, the two taking turns
within every repeat, so both see the same machine state; ``--label`` names it
in the file. Each kernel also reports two tracemalloc peaks: its first table
build, and writing each trace to a sink that keeps nothing (the block's
arrays, tables built). The result goes into the ``csv_kernel`` section of
the JSON file; other sections of that file are kept. Usage, from the
repository root:

    PYTHONPATH=src python scripts/csv_costs.py [--out BENCH_layers.json] [--repeats 7]
        [--baseline ../other/src --label <commit>]

It takes a few seconds on one core of a 2.0 GHz Xeon.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads: one BLAS thread, as the benchmark runs

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import bench_file  # noqa: E402
from symform import cli, output  # noqa: E402

STAGES = ("decimal", "layout", "translate", "write")


class Sink:
    """A binary file that keeps nothing."""

    def write(self, data: bytes) -> int:
        return len(data)


def traces() -> dict:
    """The three traces, by name."""
    narrow = cli.load_scenario("maneuver_c6")
    narrow.dt = 0.015
    specs = {"maneuver_c6": narrow,
             "flow_n16": cli.parse_scenario({"name": "flow_n16", "n": 16}),
             "wide_n600": cli.parse_scenario({"name": "wide_n600", "n": 600, "horizon": 5.0})}
    return {name: cli.run_scenario(scn)[0] for name, scn in specs.items()}


def load_kernel(src: str):
    """``symform.output`` of the checkout whose source directory is ``src``, under its own name."""
    spec = importlib.util.spec_from_file_location("baseline_symform", Path(src) / "symform" / "__init__.py",
                                                  submodule_search_locations=[str(Path(src) / "symform")])
    package = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = package
    spec.loader.exec_module(package)
    return importlib.import_module("baseline_symform.output")


def blocks(kernel, trace) -> tuple[list[np.ndarray], int]:
    """The trace's value blocks as ``kernel._csv_body`` forms them, and the row width."""
    cols = [np.asarray(c, dtype=float) for c in (trace.times, trace.states, trace.edge_errors, trace.potentials)]
    rows = np.hstack([c[:, None] if c.ndim == 1 else c for c in cols])
    per = max(1, kernel._CSV_BLOCK_VALUES // rows.shape[1])
    return [rows[lo:lo + per].ravel() for lo in range(0, len(rows), per)], rows.shape[1]


def stage_seconds(kernel, trace, parts: list[np.ndarray], width: int) -> dict[str, float]:
    """Seconds of each stage over all of the trace's blocks, one pass."""
    seconds = dict.fromkeys(STAGES, 0.0)
    for v in parts:
        began = time.perf_counter()
        kernel._decimal(v)
        decimal = time.perf_counter()
        slots = kernel._slots(v, width)
        layout = time.perf_counter()
        slots.translate(None, b"\0")
        seconds["translate"] += time.perf_counter() - layout
        seconds["decimal"] += decimal - began
        seconds["layout"] += (layout - decimal) - (decimal - began)
    began = time.perf_counter()
    kernel._write_trace(trace, Sink())
    seconds["write"] = time.perf_counter() - began
    return seconds


def peaks(kernel, runs: dict) -> dict:
    """tracemalloc peaks in bytes: the first table build, then each trace written to a sink."""
    kernel._kernel_tables.cache_clear()
    tracemalloc.start()
    kernel._kernel_tables()
    out = {"table_build": tracemalloc.get_traced_memory()[1]}
    tracemalloc.stop()
    for name, trace in runs.items():
        tracemalloc.start()
        kernel._write_trace(trace, Sink())
        out[name] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return out


def measure(kernels: dict, runs: dict, repeats: int) -> dict:
    """Per kernel and trace: values, block size, median ns a value of each stage; then the peaks."""
    result = {label: {"block_values": kernel._CSV_BLOCK_VALUES, "traces": {}} for label, kernel in kernels.items()}
    for name, trace in runs.items():
        seconds = {label: [] for label in kernels}
        inputs = {label: blocks(kernel, trace) for label, kernel in kernels.items()}
        for r in range(repeats):
            order = list(kernels) if r % 2 == 0 else list(kernels)[::-1]
            for label in order:
                seconds[label].append(stage_seconds(kernels[label], trace, *inputs[label]))
        for label in kernels:
            values = sum(v.size for v in inputs[label][0])
            result[label]["traces"][name] = {
                "values": values, "row_values": inputs[label][1],
                "ns_per_value": {stage: round(statistics.median(s[stage] for s in seconds[label]) / values * 1e9, 1)
                                 for stage in STAGES}}
    for label, kernel in kernels.items():
        result[label]["tracemalloc_peak_bytes"] = peaks(kernel, runs)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_layers.json", help="JSON file to write csv_kernel into")
    parser.add_argument("--repeats", type=int, default=7, help="timed passes per kernel and trace (median)")
    parser.add_argument("--baseline", help="the src directory of another checkout, timed beside this one")
    parser.add_argument("--label", default="baseline", help="the baseline's name in the file")
    args = parser.parse_args(argv)
    kernels = {"checkout": output}
    if args.baseline:
        kernels[args.label] = load_kernel(args.baseline)
    runs = traces()
    for kernel in kernels.values():  # tables built and code warm before any timing
        for trace in runs.values():
            kernel._write_trace(trace, Sink())
    result = measure(kernels, runs, args.repeats)
    command = "PYTHONPATH=src python scripts/csv_costs.py --repeats " + str(args.repeats)
    section = {
        "what": "median ns a value of the CSV kernel's stages over every block of three traces: _decimal, "
                "the rest of _slots (layout), bytearray.translate, and the whole _csv_body pass (write); "
                "tracemalloc peaks of the first table build and of writing each trace to a discarding sink",
        "command": command + (f" --baseline <{args.label} checkout>/src --label {args.label}" if args.baseline else ""),
        "machine": bench_file.machine(),
        "kernels": result,
    }
    path = Path(args.out)
    bench_file.write_section(path, "csv_kernel", section)
    for label, res in result.items():
        for name, row in res["traces"].items():
            print(f"{label:10s} {name:12s} " + " ".join(f"{s} {row['ns_per_value'][s]:6.1f}" for s in STAGES))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
