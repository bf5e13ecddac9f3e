"""Command-line front end: run scenarios, verify constructions, sweep formation sizes."""
from __future__ import annotations

import argparse
import math
import os
import re
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from . import dynamics, laplacian, maneuver, output, spatial3d, topology
from .checks import CheckResult, construction_routes, dense_gaps, structure_checks, verification_checks
from .laplacian import NumericFailure, SymmetryLaplacian
from .scenario import Scenario, ScenarioError, _as_positive, _as_seed, load_scenario, parse_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4


# --------------------------------------------------------------------- system

def build_system(scn: Scenario) -> SymmetryLaplacian:
    """The scenario's constraint tree, which :func:`parse_scenario` has checked, as a
    :class:`SymmetryLaplacian` (``chain`` spans its null space), rejected before any
    allocation when a run of its size would not fit (``verify`` and ``sweep`` check
    their dense bounds first)."""
    dynamics.require_run_fits(scn.n)
    if scn.formation == "cube":
        return spatial3d.build_cube(scn.cube_spec)
    graph = scn.tree_graph if scn.tree_graph is not None else topology.cycle_minus_edge(scn.n, scn.removed_edge)
    return laplacian.build_laplacian(graph)


def initial_state(scn: Scenario) -> NDArray[np.float64]:
    if scn.initial_points is not None:
        return scn.initial_points.ravel()
    rng = np.random.default_rng(scn.seed)
    return rng.uniform(scn.box[0], scn.box[1], size=scn.n * scn.dim)


# ----------------------------------------------------------------------- runs

def run_scenario(scn: Scenario) -> tuple[dynamics.SimulationTrace, SymmetryLaplacian, dict]:
    """Simulate a scenario and compute its metrics report."""
    t0 = time.perf_counter()
    lap = build_system(scn)
    p0 = initial_state(scn)
    if scn.reference is None:
        trace = dynamics.integrate(lap, p0, dt=scn.dt, horizon=scn.horizon)
    else:
        trace = maneuver.simulate_maneuver(lap, p0, scn.reference, start=scn.ref_start,
                                           dt=scn.dt, horizon=scn.horizon)
    metrics = compute_metrics(scn, lap, trace)
    metrics["runtime_seconds"] = time.perf_counter() - t0
    return trace, lap, metrics


@np.errstate(over="ignore", invalid="ignore")  # a metric that overflows is rejected below
def compute_metrics(scn: Scenario, lap: SymmetryLaplacian, trace: dynamics.SimulationTrace) -> dict:
    """The run's metrics report; raises NumericFailure naming the first metric that is not finite."""
    spec = lap.spectrum
    d, n = scn.dim, scn.n
    z0, zT = trace.frame([0, -1])
    projection_residual = float(np.linalg.norm(zT - laplacian.steady_state(z0, lap.chain)))
    try:
        fitted = dynamics.fit_rate(trace)
    except ValueError:
        fitted = None
    expected_rate = -spec.lambda_min_pos if spec.lambda_min_pos else None
    rate_gap = (abs(fitted - expected_rate) / abs(expected_rate)
                if fitted is not None and expected_rate else None)
    decay = trace.horizon * spec.lambda_min_pos if spec.lambda_min_pos else None
    rate_note = None
    if decay is not None and decay < dynamics.RATE_FIT_MIN_DECAY:
        rate_note = (f"horizon * lambda_min_pos = {decay:.3g} is below {dynamics.RATE_FIT_MIN_DECAY:g}: "
                     "the slowest mode has barely decayed, so fitted_rate follows faster modes")
    passed = {r.name: r.passed for r in structure_checks(spec, n, d, lap.route_gaps, lap.null_gap)}
    checks = {
        "psd": passed["positive_semidefinite"],
        "rank_matches": passed["rank"],
        "construction_routes_agree": passed["construction_routes"],
        "null_basis_annihilated": passed["null_basis"],
    }
    metrics = {
        "name": scn.name,
        "formation": scn.formation,
        "n": n,
        "dim": d,
        "seed": scn.seed,
        "dt": trace.dt,
        "horizon": trace.horizon,
        "steps": trace.steps,
        "lambda_max": spec.lambda_max,
        "lambda_min_pos": spec.lambda_min_pos,
        "rank": spec.rank,
        "null_dim": spec.null_dim,
        "expected_rank": d * n - d,
        "expected_null_dim": d,
        "final_max_edge_error": float(trace.edge_errors[-1].max()),
        "final_total_error": float(np.sqrt((trace.edge_errors[-1] ** 2).sum())),
        "final_potential": float(trace.potentials[-1]),
        "projection_residual": projection_residual,
        "fitted_rate": fitted,
        "expected_rate": expected_rate,
        "fitted_rate_rel_gap": rate_gap,
        "rate_note": rate_note,
        "zeta_residual": getattr(trace, "zeta_residual", None),
        "checks": checks,
        "solver": {"spectrum": "path formula" if lap.is_path else "eigvalsh of L",
                   "segments": [segment._asdict() for segment in trace.solver]},
    }
    for name, value in metrics.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise NumericFailure(f"metrics: {name} is not finite ({value}); the run overflowed")
    return metrics


RUN_FILES = frozenset({"trace.csv", "metrics.json", "paths.svg", "errors.svg", "reference.csv"})


def write_outputs(scn: Scenario, trace: dynamics.SimulationTrace, metrics: dict,
                  out_base: str) -> Path:
    """Write the run's files into ``out_base/<name>/``, replacing any earlier run of that name.

    The files are written into a staging directory next to the target and
    moved into place only once all of them are written, so a failure part way
    leaves no partial directory and no stale file of an earlier run survives.
    Staging directories that killed runs of this name left behind are removed first
    (:func:`_remove_killed_staging`). An unusable ``<name>`` (:func:`_output_target`)
    is left alone and raises ScenarioError.
    """
    out_dir = _output_target(scn, out_base)
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    _remove_killed_staging(out_dir)
    staging = Path(tempfile.mkdtemp(prefix=f".{out_dir.name}.", dir=out_dir.parent))
    try:
        new_dir = staging / "new"
        new_dir.mkdir()
        output.write_trace_csv(trace, new_dir / "trace.csv")
        output.write_metrics_json(metrics, new_dir / "metrics.json")
        (new_dir / "paths.svg").write_text(output.svg_paths(trace, title=f"{scn.name}: agent paths"),
                                           encoding="utf-8")
        (new_dir / "errors.svg").write_text(output.svg_errors(trace, title=f"{scn.name}: edge errors"),
                                            encoding="utf-8")
        if isinstance(trace, maneuver.ManeuverTrace):
            output.write_reference_csv(trace, new_dir / "reference.csv")
        old_dir = staging / "old"
        if out_dir.exists():
            out_dir.rename(old_dir)
        try:
            new_dir.rename(out_dir)
        except BaseException:
            if old_dir.exists():
                old_dir.rename(out_dir)
            raise
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return out_dir


def _output_target(scn: Scenario, out_base: str) -> Path:
    """The run directory ``out_base/<name>``; raises ScenarioError when its path cannot be
    encoded in the file system encoding or it exists holding anything but the files of a run."""
    out_dir = Path(out_base) / scn.name
    try:
        os.fsencode(out_dir)
    except UnicodeEncodeError:
        raise ScenarioError(f"output path {out_dir} cannot be encoded in the file system encoding "
                            f"{sys.getfilesystemencoding()}; rename the scenario or choose another --out"
                            ) from None
    if out_dir.is_symlink() or (out_dir.exists() and not _holds_only_run_files(out_dir)):
        raise ScenarioError(f"{out_dir} exists and is not the output of an earlier run; "
                            "move it or choose another --out")
    return out_dir


def _remove_killed_staging(out_dir: Path) -> None:
    """Remove the staging directories ``.<name>.XXXXXXXX`` (``tempfile.mkdtemp``'s eight
    characters, so no other name's staging matches) beside ``out_dir`` that a killed run
    left: only a real directory whose entries are all ``new`` or ``old`` directories
    holding nothing but run files. Anything else is left alone."""
    staging = re.compile(re.escape(f".{out_dir.name}.") + r"[a-z0-9_]{8}")
    for path in out_dir.parent.iterdir():
        if (staging.fullmatch(path.name) and not path.is_symlink() and path.is_dir()
                and all(p.name in ("new", "old") and not p.is_symlink() and _holds_only_run_files(p)
                        for p in path.iterdir())):
            shutil.rmtree(path, ignore_errors=True)


def _holds_only_run_files(path: Path) -> bool:
    """True for a directory holding nothing but files that ``write_outputs`` writes."""
    return path.is_dir() and all(p.name in RUN_FILES and p.is_file() and not p.is_symlink()
                                 for p in path.iterdir())


# --------------------------------------------------------------- verification

def verify_scenario(scn: Scenario) -> list[CheckResult]:
    dynamics.require_build_fits(scn.n, scn.dim, dynamics.VERIFY_DENSE_MATRICES)
    lap = build_system(scn)
    return verification_checks(lap.matrix, lap.incidence, lap.chain, lap,
                               routes=construction_routes(lap, scn.cube_spec), seed=scn.seed)


# ---------------------------------------------------------------------- sweep

def _check_sweep_range(n_from: int, n_to: int) -> None:
    """Refuse a size range that ``sweep`` cannot take, before anything is built."""
    if n_from < 3:
        raise ScenarioError(f"--n-from must be at least 3, got {n_from}")
    if n_to < n_from:
        raise ScenarioError(f"--n-to must be >= --n-from, got {n_to} < {n_from}")
    dynamics.require_build_fits(n_to, 2, dynamics.BUILD_DENSE_MATRICES)


def sweep_sizes(n_from: int, n_to: int) -> list[dict]:
    """Path-tree construction checks across formation sizes, with PSD and rank from an
    eigensolver (``SymmetryLaplacian.numeric_spectrum``), not from the path formula a run takes."""
    _check_sweep_range(n_from, n_to)
    rows = []
    for n in range(n_from, n_to + 1):
        lap = build_system(parse_scenario({"n": n}))
        spec = lap.numeric_spectrum()
        product = ("incidence_product", "|Q - E E^T| =", laplacian.product_laplacian(lap.incidence))
        results = {r.name: r for r in structure_checks(spec, n, 2, *dense_gaps(lap.matrix, lap.chain, [product]))}
        rows.append({
            "n": n, "rank": spec.rank, "null_dim": spec.null_dim,
            "lambda_min_pos": spec.lambda_min_pos, "lambda_max": spec.lambda_max,
            "product_gap": results["incidence_product"].value, "null_gap": results["null_basis"].value,
            "passed": all(r.passed for r in results.values()),
        })
    return rows


# ----------------------------------------------------------------------- main

def _apply_overrides(scn: Scenario, args: argparse.Namespace) -> Scenario:
    """--seed, --dt and --horizon in place of their scenario fields, checked by the same rules."""
    if getattr(args, "seed", None) is not None:
        scn.seed = _as_seed(args.seed, "--seed")
    if getattr(args, "dt", None) is not None:
        scn.dt = _as_positive(args.dt, "--dt")
    if getattr(args, "horizon", None) is not None:
        scn.horizon = _as_positive(args.horizon, "--horizon")
    return scn


def _cmd_run(args: argparse.Namespace) -> int:
    scn = _apply_overrides(load_scenario(args.scenario), args)
    print(f"running {scn.summary()}")
    _output_target(scn, args.out)  # an unusable target fails before the run, not after it
    trace, _, metrics = run_scenario(scn)
    out_dir = write_outputs(scn, trace, metrics, args.out)
    print(f"  steps={metrics['steps']} dt={metrics['dt']:.6g} horizon={metrics['horizon']:.6g}")
    print(f"  final max edge error = {metrics['final_max_edge_error']:.3e}")
    print(f"  projection residual  = {metrics['projection_residual']:.3e}")
    if metrics["fitted_rate"] is not None:
        print(f"  fitted decay rate    = {metrics['fitted_rate']:.6f} (expected {metrics['expected_rate']:.6f})")
    if metrics["zeta_residual"] is not None:
        print(f"  frame-reduction residual = {metrics['zeta_residual']:.3e} (reported, not asserted)")
    print(f"  wrote {out_dir}/trace.csv, metrics.json, paths.svg, errors.svg"
          + (", reference.csv" if isinstance(trace, maneuver.ManeuverTrace) else ""))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    scn = _apply_overrides(load_scenario(args.scenario), args)
    print(f"verifying {scn.summary()}")
    results = verify_scenario(scn)
    all_ok = True
    for r in results:
        print(f"  {'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
        all_ok = all_ok and r.passed
    print("verification " + ("passed" if all_ok else "FAILED"))
    return EXIT_OK if all_ok else EXIT_VERIFY


def _cmd_sweep(args: argparse.Namespace) -> int:
    _check_sweep_range(args.n_from, args.n_to)
    out_dir = None if args.out is None else Path(args.out)
    if out_dir is not None:  # an unusable target fails before the sweep, not after it
        out_dir.mkdir(parents=True, exist_ok=True)
    rows = sweep_sizes(args.n_from, args.n_to)
    all_ok = True
    for row in rows:
        status = "PASS" if row["passed"] else "FAIL"
        print(f"  {status} n={row['n']:2d} rank={row['rank']:3d} null={row['null_dim']} "
              f"lambda_min_pos={row['lambda_min_pos']:.6f} product_gap={row['product_gap']:.1e} "
              f"null_gap={row['null_gap']:.1e}")
        all_ok = all_ok and row["passed"]
    if out_dir is not None:
        output.write_metrics_json({"sweep": rows}, out_dir / "sweep.json")
        print(f"  wrote {out_dir}/sweep.json")
    print("sweep " + ("passed" if all_ok else "FAILED"))
    return EXIT_OK if all_ok else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symform",
        description="Simulate and check symmetry-constrained formations on cycle graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate a scenario and write trace/metrics/plots")
    run_p.add_argument("scenario", help="scenario JSON path or bundled preset name")
    run_p.add_argument("--out", default="out", help="output directory (default: out)")
    run_p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run_p.add_argument("--dt", type=float, default=None, help="override the integration step")
    run_p.add_argument("--horizon", type=float, default=None, help="override the time horizon")
    run_p.set_defaults(func=_cmd_run)

    verify_p = sub.add_parser("verify", help="check the constraint construction for a scenario")
    verify_p.add_argument("scenario", help="scenario JSON path or bundled preset name")
    verify_p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    verify_p.set_defaults(func=_cmd_verify)

    sweep_p = sub.add_parser("sweep", help="construction checks across a range of sizes")
    sweep_p.add_argument("--n-from", type=int, required=True, dest="n_from")
    sweep_p.add_argument("--n-to", type=int, required=True, dest="n_to")
    sweep_p.add_argument("--out", default=None, help="write sweep.json into this directory")
    sweep_p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    # what the streams cannot encode (a scenario name under an ASCII locale, say)
    # prints as backslash escapes instead of failing the command
    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):
            stream.reconfigure(errors="backslashreplace")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"invalid argument: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:  # a path the operating system refuses, e.g. --out under a regular file
        print(f"file system error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
