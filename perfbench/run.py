"""The symform benchmark: one workload, end-to-end metrics or a traced per-layer breakdown.

Run from the root of a checkout:

    python3 perfbench/run.py --workload maneuver --seed 1 --seconds 10 --trace 0

The workload's scenario files are generated from ``--seed`` into a working
directory under ``perfbench/_work``. A fresh process then runs a warm-up pass
over the workload's CLI commands, through ``symform.cli.main``, and timed
passes for at least ``--seconds``. Every command of every pass is checked
against references computed here with numpy. The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed`` command
executions, and the metrics declared in BENCHMARK.json (end-to-end ones with
``--trace 0``, per-layer ones with ``--trace 1``).
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# One BLAS thread: on a small shared machine a second BLAS thread makes every
# small matvec wait on a core that other load may hold, and the times scatter.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS  # before numpy loads, here and in every subprocess

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from check import corrupt, full_check, repeat_check  # noqa: E402
from passes import PROBES  # noqa: E402
from tracing import LAYERS, SPANNED  # noqa: E402

MIN_PASSES = 3          # timed passes per run, however long a pass takes
SETUP_REPS = 9          # fresh interpreters timed for setup_s (after one untimed)
CHILD_TIMEOUT_S = 150
COMPUTED = {"dynamics.trace_mb", "dynamics.matvec_flops", "laplacian.spectrum.n3"}


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": int(BLAS_THREADS),
        "git_commit": commit, "machine": platform.machine(),
    }


def setup_seconds(specs: list[str]) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that import symform.cli and load the scenarios,
    and of the interpreter probe run before each of them."""
    probe = PROBES["interp"][0]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import symform.cli as c\n"
            "for s in sys.argv[2:]:\n"
            "    try: c.load_scenario(s)\n"
            "    except c.ScenarioError: pass\n")
    argv = [sys.executable, "-c", code, str(SRC), *specs]
    times, probes = [], []
    for rep in range(SETUP_REPS + 1):
        probes.append(probe())
        start = time.perf_counter()
        # no timeout: with one, wait() polls in steps of up to 50 ms and quantizes the time
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        if rep:
            times.append(time.perf_counter() - start)
        else:
            probes.clear()
    return times, probes


def run_child(commands, work: Path, seconds: int, trace: bool, probe: str) -> dict:
    plan = work / "plan.json"
    plan.write_text(json.dumps({
        "src": str(SRC), "seconds": seconds, "min_passes": MIN_PASSES, "trace": trace, "probe": probe,
        "commands": [{"argv": list(c.argv), "out": c.out} for c in commands],
    }))
    proc = subprocess.run([sys.executable, str(Path(__file__).with_name("passes.py")), str(plan)],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"pass process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_passes(commands, passes: list[dict]) -> tuple[int, int, bool, list[str]]:
    """(attempted, failed, every run/verify/sweep passed, first problems) over all passes."""
    last = passes[-1]["results"]
    verdicts = [full_check(cmd, res) for cmd, res in zip(commands, last)]
    attempted = failed = 0
    results_ok = True
    notes = []
    for record in passes:
        for i, (cmd, res) in enumerate(zip(commands, record["results"])):
            problems = verdicts[i] + (repeat_check(cmd, res, last[i]) if res is not last[i] else [])
            attempted += 1
            if problems:
                failed += 1
                results_ok = results_ok and cmd.kind == "reject"
                note = f"{' '.join(cmd.argv[:2])}: {problems[0]}"
                if note not in notes:
                    notes.append(note)
    return attempted, failed, results_ok, notes


def self_test(work: Path, seed: int) -> list[str]:
    """The checker must pass a good run and fail each corrupted copy of it."""
    from symform import cli

    good = work / "selftest" / "good"
    cmd = workloads.Command(("run", "example2_c4", "--seed", str(seed), "--out", str(good)), "run",
                            str(good), workloads.preset(ROOT, "example2_c4"), seed)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(list(cmd.argv))
    result = {"rc": rc, "exception": None, "stdout": "", "stderr": ""}
    errors = [f"self-test: good run flagged: {p}" for p in full_check(cmd, result)]
    for how in ("perturbed", "nan", "truncated"):
        bad = work / "selftest" / how
        corrupt(good, bad, how)
        if not full_check(workloads.Command(cmd.argv, "run", str(bad), cmd.scenario, seed), result):
            errors.append(f"self-test: {how} trace.csv passed the checker")
    return errors


def layer_metrics(names: list[str], traces: list[dict], passes: list[dict]) -> dict[str, float]:
    spans = {f"{m}.{a}" for m, a in SPANNED}
    last = traces[-1]
    counts, total, self_s = last["counts"], last["total_s"], last["self_s"]
    timed = [p["wall_s"] for p in passes if p["kind"] == "timed"]
    traced_wall = passes[-1]["wall_s"]
    special = {
        "dynamics.trace_mb": counts.get("dynamics.trace_bytes", 0) / 1e6,
        "dynamics.matvec_flops": counts.get("dynamics.matvec_flops", 0),
        "laplacian.spectrum.n3": counts.get("laplacian.spectrum.n3", 0),
        "output.bytes": sum(f["bytes"] for r in passes[-1]["results"] for f in r["files"].values()),
        "trace.pass_s": traced_wall,
        "trace.overhead_s": traced_wall - statistics.median(timed),
    }
    values = {}
    for name in names:
        base, _, field = name.rpartition(".")
        if name in special:
            values[name] = special[name]
        elif field == "self_s" and base in LAYERS:
            values[name] = sum((v for k, v in self_s.items() if k.startswith(base + ".")), 0.0)
        elif field == "self_s" and base in spans:
            values[name] = self_s.get(base, 0.0)
        elif field == "s" and base in spans:
            values[name] = total.get(base, 0.0)
        elif field == "calls":
            values[name] = counts.get(name, 0)
        else:
            raise KeyError(f"BENCHMARK.json names per-layer metric {name!r}, which nothing records")
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "symform" / "cli.py").is_file():
        return fail(f"no symform source tree at {SRC}; run from the root of a symform checkout")
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WHY:
        return fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WHY)}")
    declared = manifest["per_layer" if args.trace else "end_to_end"]
    work = ROOT / "perfbench" / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        commands = workloads.build(args.workload, args.seed, ROOT, work)
        print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {workloads.WHY[args.workload]}")
        print("environment " + json.dumps(environment(), sort_keys=True))
        setup, setup_probes = ([], []) if args.trace else setup_seconds(workloads.scenario_specs(commands))
        child = run_child(commands, work, args.seconds, bool(args.trace), workloads.PROBE[args.workload])
        passes = child["passes"]
        attempted, failed, results_ok, notes = check_passes(commands, passes)
        errors = self_test(work, args.seed)
        if args.trace and child["traces"][0]["counts"] != child["traces"][-1]["counts"]:
            errors.append("counts differ between the two traced passes: "
                          f"{child['traces'][0]['counts']} vs {child['traces'][-1]['counts']}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    timed = [p for p in passes if p["kind"] == "timed"]
    if args.trace:
        values = layer_metrics([m["name"] for m in declared], child["traces"], passes)
    else:
        per_command = [statistics.median(p["results"][i]["wall_s"] / p["probe_s"][i] for p in timed)
                       for i in range(len(commands))]
        values = {
            "pass_s": PROBES[workloads.PROBE[args.workload]][1] * sum(per_command),
            "setup_s": PROBES["interp"][1] * statistics.median(t / q for t, q in zip(setup, setup_probes)),
            "peak_rss_mb": child["peak_rss_kb"] / 1024.0,
            "ok_frac": 1.0 - failed / attempted,
        }
        walls = [p["wall_s"] for p in timed]
        print(f"pass wall times ({len(walls)} timed passes after 1 warm-up, median "
              f"{statistics.median(walls):.4f} s): " + ", ".join(f"{t:.4f}" for t in walls))
        print(f"setup samples ({len(setup)} fresh interpreters, median {statistics.median(setup):.4f} s): "
              + ", ".join(f"{t:.4f}" for t in setup))
        for kind, probes in ((workloads.PROBE[args.workload], [t for p in timed for t in p["probe_s"]]),
                             ("interp", setup_probes)):
            print(f"{kind} probe before {'commands' if probes is not setup_probes else 'interpreters'} "
                  f"({len(probes)} samples): median {statistics.median(probes):.5f} s, fastest "
                  f"{min(probes):.5f} s, {PROBES[kind][1]} s at full speed")
    for m in declared:
        label = " (computed)" if m["name"] in COMPUTED else ""
        print(f"  {m['name']:40s} {values[m['name']]:>16.6g} {m['unit']}{label}")
    print(f"  {'fail_frac':40s} {failed / attempted:>16.6g} ratio ({failed} of {attempted} "
          f"command executions failed)")
    for note in notes + errors:
        print(f"  FAILED {note}")
    correct = results_ok and not errors
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
