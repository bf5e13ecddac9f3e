"""Run a workload's commands in one fresh process: a warm-up pass, then timed passes.

Usage: ``python3 perfbench/passes.py <plan.json>``, where the plan names the
source tree, the commands, the seconds to measure, the minimum pass count,
the probe kind and whether to trace. The last line of standard output is one JSON object with
every pass's wall time and per-command results, the peak RSS after the first
pass, and (when tracing) the spans and counts of the traced passes.

The peak RSS is read after the first pass, so it is the peak of a fresh
process that has run exactly one pass.

A short fixed probe of the workload's kind of work runs before every
command, outside the command's time, so each command time can be read
relative to how fast the machine ran just then.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from tracing import Tracer

STDERR_KEEP = 4000
_SMALL = np.eye(12) * 0.5
_DENSE = np.random.default_rng(0).normal(size=(160, 160))
_DENSE = _DENSE + _DENSE.T


def interp_probe() -> float:
    """Seconds for a fixed loop of small matvecs and float formatting, like an RK4 step loop."""
    v = np.ones(12)
    start = time.perf_counter()
    for _ in range(4000):
        v = _SMALL @ v * 0.5 + v * 0.5
        f"{v[0]:.17g}"
    return time.perf_counter() - start


def dense_probe() -> float:
    """Seconds for three symmetric eigendecompositions of a fixed 160 x 160 matrix."""
    start = time.perf_counter()
    for _ in range(3):
        np.linalg.eigh(_DENSE)
    return time.perf_counter() - start


# Probe kind -> (probe, its time on the 2.0 GHz Xeon vCPU this benchmark was
# tuned on, at full speed). Interpreter-bound and BLAS-bound work slow down by
# different factors when other load shares the core, so each workload names
# the kind of work that dominates it.
PROBES = {"interp": (interp_probe, 0.019), "dense": (dense_probe, 0.0075)}


def _files(out: str | None) -> dict:
    """Every file a command wrote: sha256 and size, plus the text of metrics.json."""
    if out is None or not Path(out).is_dir():
        return {}
    record = {}
    for path in sorted(p for p in Path(out).rglob("*") if p.is_file()):
        data = path.read_bytes()
        entry = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
        if path.name == "metrics.json":
            entry["text"] = data.decode("utf-8", errors="replace")
        record[str(path.relative_to(out))] = entry
    return record


def run_pass(cli, commands: list[dict], probe) -> dict:
    """One pass over the commands; each command is timed on its own."""
    for cmd in commands:
        if cmd["out"] is not None:
            shutil.rmtree(cmd["out"], ignore_errors=True)
    results, probes = [], []
    for cmd in commands:
        probes.append(probe())
        out, err = io.StringIO(), io.StringIO()
        rc, exc = None, None
        began = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(list(cmd["argv"]))
            except SystemExit as stop:
                rc = stop.code if isinstance(stop.code, int) else 1
            except Exception:  # an escaped exception is a traceback the user would see
                exc = traceback.format_exc()
        results.append({"wall_s": time.perf_counter() - began, "rc": rc, "exception": exc,
                        "stdout": out.getvalue(),
                        "stderr": err.getvalue()[-STDERR_KEEP:]})
    for cmd, res in zip(commands, results):
        res["files"] = _files(cmd["out"])
    return {"wall_s": sum(r["wall_s"] for r in results), "probe_s": probes, "results": results}


def _traced_pass(cli, commands: list[dict], probe) -> tuple[dict, dict]:
    tracer = Tracer()
    tracer.install()
    try:
        record = run_pass(cli, commands, probe)
    finally:
        tracer.uninstall()
    total, self_s = tracer.totals()
    return record, {"counts": dict(tracer.counts), "total_s": dict(total), "self_s": dict(self_s)}


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    sys.path.insert(0, plan["src"])
    from symform import cli

    commands, trace = plan["commands"], plan["trace"]
    probe = PROBES[plan["probe"]][0]
    passes, traces = [], []
    if trace:
        record, first = _traced_pass(cli, commands, probe)
        traces.append(first)
    else:
        record = run_pass(cli, commands, probe)
    record["kind"] = "warmup"
    passes.append(record)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    begin = time.perf_counter()
    timed = 0
    while timed < plan["min_passes"] or time.perf_counter() - begin < plan["seconds"]:
        record = run_pass(cli, commands, probe)
        record["kind"] = "timed"
        passes.append(record)
        timed += 1
    if trace:
        record, last = _traced_pass(cli, commands, probe)
        record["kind"] = "traced"
        passes.append(record)
        traces.append(last)
    print(json.dumps({"passes": passes, "peak_rss_kb": rss_kb, "traces": traces}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
