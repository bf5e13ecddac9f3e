#!/usr/bin/env python3
"""Measure ``symform verify``'s seconds and memory peak and write them to BENCH_scaling.json.

For each scenario, planar n in ``--sizes`` (256, 600 and 1448, the largest
``verify`` admits, by default) and the cube whose cross edge (2, 6) makes a
tree that is not a path, ``--repeats`` fresh processes each build the
scenario and then call ``cli.verify_scenario`` twice: once timed, as the
process's first verify, and once under tracemalloc. The figures are the
median of the timed calls and the largest tracemalloc peak, also given in
dn x dn float64 matrices, on one BLAS thread. With ``--baseline SRC`` the
``src`` directory of another checkout is measured too, the two taking turns
within every repeat, and ``--label`` names it in the file. The result goes
into the ``verify`` section of the JSON file; other sections of that file
are kept. Usage, from the repository root:

    python scripts/verify_costs.py [--out BENCH_scaling.json] [--repeats 5]
        [--sizes 256 600 1448] [--baseline ../other/src --label <commit>]

With the defaults it takes about two minutes a checkout on one core of a
2.0 GHz Xeon, most of it at n = 1448.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads, here and in every child: one BLAS thread

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import bench_file  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src"
CROSS_CUBE = {"formation": "cube", "cube": {"cross_edge": [2, 6]}}
# one fresh process: argv is the src directory and the scenario's JSON; prints
# [seconds of the first verify, tracemalloc peak of the second, dn, every check passed]
CHILD = """\
import json, sys, time, tracemalloc
sys.path.insert(0, sys.argv[1])
from symform import cli
scn = cli.parse_scenario(json.loads(sys.argv[2]))
began = time.perf_counter()
results = cli.verify_scenario(scn)
seconds = time.perf_counter() - began
tracemalloc.start()
cli.verify_scenario(scn)
peak = tracemalloc.get_traced_memory()[1]
print(json.dumps([seconds, peak, scn.n * scn.dim, all(r.passed for r in results)]))
"""


def measure_once(src: str, spec: dict) -> list:
    done = subprocess.run([sys.executable, "-c", CHILD, src, json.dumps(spec)],
                          capture_output=True, text=True, timeout=600, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def measure(sources: dict[str, str], specs: dict[str, dict], repeats: int) -> dict:
    """Per checkout and scenario: median seconds, each run's seconds, the largest peak."""
    samples = {label: {name: [] for name in specs} for label in sources}
    for name, spec in specs.items():
        for r in range(repeats):
            for label in (list(sources) if r % 2 == 0 else list(sources)[::-1]):
                samples[label][name].append(measure_once(sources[label], spec))
    result = {}
    for label, by_name in samples.items():
        result[label] = {}
        for name, runs in by_name.items():
            dn, peak = runs[0][2], max(run[1] for run in runs)
            result[label][name] = {
                "seconds": round(statistics.median(run[0] for run in runs), 4),
                "seconds_each": [round(run[0], 4) for run in runs],
                "tracemalloc_peak_bytes": peak,
                "peak_dense_matrices": round(peak / (dn * dn * 8), 3),
                "passed": all(run[3] for run in runs),
            }
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_scaling.json", help="JSON file to write verify into")
    parser.add_argument("--repeats", type=int, default=5, help="fresh processes per scenario and checkout")
    parser.add_argument("--sizes", type=int, nargs="+", default=[256, 600, 1448], help="planar n to verify")
    parser.add_argument("--baseline", help="the src directory of another checkout, measured beside this one")
    parser.add_argument("--label", default="baseline", help="the baseline's name in the file")
    args = parser.parse_args(argv)
    sources = {"checkout": str(SRC)}
    if args.baseline:
        sources[args.label] = args.baseline
    specs = {**{f"planar_n{n}": {"n": n} for n in args.sizes}, "cube_cross_edge": CROSS_CUBE}
    result = measure(sources, specs, args.repeats)
    command = (f"python scripts/verify_costs.py --repeats {args.repeats} --sizes "
               + " ".join(map(str, args.sizes)))
    section = {
        "what": "cli.verify_scenario in fresh processes: median seconds of each process's first call, "
                "and the largest tracemalloc peak of a second call, in bytes and in dn x dn float64 matrices",
        "command": command + (f" --baseline <{args.label} checkout>/src --label {args.label}" if args.baseline else ""),
        "machine": bench_file.machine(),
        "scenarios": specs,
        "checkouts": result,
    }
    path = Path(args.out)
    bench_file.write_section(path, "verify", section)
    for label, by_name in result.items():
        for name, row in by_name.items():
            print(f"{label:10s} {name:16s} {row['seconds']:8.4f} s  peak {row['tracemalloc_peak_bytes'] / 2**20:8.1f} MiB"
                  f" ({row['peak_dense_matrices']} matrices)")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
