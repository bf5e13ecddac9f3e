"""Command-line front end: run scenarios, verify constructions, sweep formation sizes."""
from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from . import dynamics, laplacian, maneuver, output, spatial3d, symgroup, topology
from .checks import CheckResult, structure_checks, verification_checks
from .laplacian import NumericFailure

DEFAULT_BOX = (-2.0, 2.0)
DEFAULT_SEED = 0

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4


class ScenarioError(Exception):
    """A scenario file is malformed; the message names the offending field."""


# ------------------------------------------------------------------- scenario

@dataclass
class Scenario:
    """Fully resolved run description (all defaults applied)."""

    name: str
    formation: str            # "planar" | "cube"
    n: int
    dim: int
    tree_edges: tuple | None  # planar: ((u, v, shift), ...)
    initial_points: NDArray[np.float64] | None
    box: tuple[float, float]
    seed: int
    reference: maneuver.ReferenceInputs | None
    ref_start: maneuver.ReferenceState | None
    dt: float | None
    horizon: float | None
    cube_spec: spatial3d.CubeSpec | None
    source: str = "<memory>"

    def summary(self) -> str:
        bits = [f"name={self.name}", f"formation={self.formation}", f"n={self.n}",
                f"dim={self.dim}", f"seed={self.seed}",
                f"dt={'auto' if self.dt is None else self.dt}",
                f"horizon={'auto' if self.horizon is None else self.horizon}",
                f"reference={'yes' if self.reference is not None else 'no'}"]
        return " ".join(bits)


def _require(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise ScenarioError(f"{path}: {msg}")


def _as_int(value, path: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool), path, f"expected an integer, got {value!r}")
    return value


def _as_number(value, path: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             path, f"expected a number, got {value!r}")
    value = float(value)
    _require(math.isfinite(value), path, "must be finite")
    return value


def _as_vector(value, dim: int, path: str) -> np.ndarray:
    _require(isinstance(value, list) and len(value) == dim, path, f"expected a list of {dim} numbers")
    return np.array([_as_number(x, f"{path}[{i}]") for i, x in enumerate(value)])


def _parse_segments(raw, path: str, dim: int, kind: str) -> tuple:
    _require(isinstance(raw, list) and raw, path, "expected a non-empty list of [t, value] pairs")
    segs = []
    for i, pair in enumerate(raw):
        p = f"{path}[{i}]"
        _require(isinstance(pair, list) and len(pair) == 2, p, "expected a [t, value] pair")
        t = _as_number(pair[0], f"{p}[0]")
        if kind == "velocity":
            value = _as_vector(pair[1], dim, f"{p}[1]")
        elif kind == "angular" and dim == 3:
            value = _as_vector(pair[1], 3, f"{p}[1]")
        else:
            value = _as_number(pair[1], f"{p}[1]")
        segs.append((t, value))
    return tuple(segs)


def _parse_reference(raw, dim: int, path: str) -> tuple[maneuver.ReferenceInputs, maneuver.ReferenceState]:
    _require(isinstance(raw, dict), path, "expected an object")
    known = {"start", "velocity", "angular_velocity", "scale_rate"}
    for key in raw:
        _require(key in known, f"{path}.{key}", "unknown field")
    zero_v = [[0.0, [0.0] * dim]]
    zero_w = [[0.0, [0.0, 0.0, 0.0] if dim == 3 else 0.0]]
    zero_a = [[0.0, 0.0]]
    velocity = _parse_segments(raw.get("velocity", zero_v), f"{path}.velocity", dim, "velocity")
    angular = _parse_segments(raw.get("angular_velocity", zero_w), f"{path}.angular_velocity", dim, "angular")
    scale_rate = _parse_segments(raw.get("scale_rate", zero_a), f"{path}.scale_rate", dim, "scale")
    try:
        inputs = maneuver.ReferenceInputs(dim=dim, velocity=velocity, angular=angular, scale_rate=scale_rate)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc

    start_raw = raw.get("start", {})
    _require(isinstance(start_raw, dict), f"{path}.start", "expected an object")
    pos = _as_vector(start_raw.get("position", [0.0] * dim), dim, f"{path}.start.position")
    scale = _as_number(start_raw.get("scale", 1.0), f"{path}.start.scale")
    if dim == 2:
        angle = _as_number(start_raw.get("angle", 0.0), f"{path}.start.angle")
        rot = symgroup.rotation2(angle)
    else:
        angle = _as_number(start_raw.get("angle", 0.0), f"{path}.start.angle")
        axis_raw = start_raw.get("axis", [0.0, 0.0, 1.0])
        axis = _as_vector(axis_raw, 3, f"{path}.start.axis")
        try:
            rot = symgroup.rotation3(axis, angle) if angle != 0.0 else symgroup.identity(3)
        except ValueError as exc:
            raise ScenarioError(f"{path}.start.axis: {exc}") from exc
    try:
        start = maneuver.ReferenceState(position=pos, rotation=rot, scale=scale)
    except ValueError as exc:
        raise ScenarioError(f"{path}.start: {exc}") from exc
    return inputs, start


def _parse_cube(raw, path: str) -> spatial3d.CubeSpec:
    if raw is None:
        return spatial3d.CubeSpec()
    _require(isinstance(raw, dict), path, "expected an object")
    spec = spatial3d.CubeSpec()
    kwargs = {}
    for key in raw:
        if key in ("face_axis", "cross_axis"):
            _require(raw[key] in ("x", "y", "z"), f"{path}.{key}", "expected 'x', 'y' or 'z'")
            kwargs[key] = raw[key]
        elif key in ("face_angle", "cross_angle"):
            kwargs[key] = _as_number(raw[key], f"{path}.{key}")
        elif key in ("top_nodes", "bottom_nodes", "cross_nodes"):
            vals = raw[key]
            _require(isinstance(vals, list) and len(vals) == 4, f"{path}.{key}", "expected 4 node ids")
            kwargs[key] = tuple(_as_int(v, f"{path}.{key}[{i}]") for i, v in enumerate(vals))
        elif key == "cross_edge":
            vals = raw[key]
            _require(isinstance(vals, list) and len(vals) == 2, f"{path}.{key}", "expected [u, v]")
            kwargs[key] = tuple(_as_int(v, f"{path}.{key}[{i}]") for i, v in enumerate(vals))
        else:
            raise ScenarioError(f"{path}.{key}: unknown field")
    return spatial3d.CubeSpec(**{**spec.__dict__, **kwargs})


def parse_scenario(raw: dict, name_hint: str = "scenario", source: str = "<memory>") -> Scenario:
    """Validate a scenario dict and resolve every default."""
    _require(isinstance(raw, dict), "$", "scenario must be a JSON object")
    known = {"name", "formation", "n", "tree", "initial", "seed", "reference",
             "dt", "horizon", "cube"}
    for key in raw:
        _require(key in known, key, "unknown field")

    formation = raw.get("formation", "planar")
    _require(formation in ("planar", "cube"), "formation", f"expected 'planar' or 'cube', got {formation!r}")
    name = raw.get("name", name_hint)
    _require(isinstance(name, str) and name, "name", "expected a non-empty string")
    _require(name not in (".", "..") and not any(c in name for c in "/\\\0"), "name",
             f"expected a plain file name (no path separator, not '.' or '..'), got {name!r}")

    seed = _as_int(raw.get("seed", DEFAULT_SEED), "seed")
    dt = None if "dt" not in raw else _as_number(raw["dt"], "dt")
    if dt is not None:
        _require(dt > 0, "dt", "must be positive")
    horizon = None if "horizon" not in raw else _as_number(raw["horizon"], "horizon")
    if horizon is not None:
        _require(horizon > 0, "horizon", "must be positive")

    if formation == "cube":
        _require("tree" not in raw, "tree", "cube formations fix their own constraint tree")
        n, dim = 8, 3
        cube_spec = _parse_cube(raw.get("cube"), "cube")
        tree_edges = None
    else:
        _require("cube" not in raw, "cube", "only valid for cube formations")
        _require("n" in raw, "n", "required for planar formations")
        n = _as_int(raw["n"], "n")
        _require(n >= 3, "n", f"cycle formations need n >= 3, got {n}")
        dim = 2
        cube_spec = None
        tree_raw = raw.get("tree", {"remove": [n, 1]})
        _require(isinstance(tree_raw, dict), "tree", "expected an object")
        if "remove" in tree_raw and "edges" in tree_raw:
            raise ScenarioError("tree: give either 'remove' or 'edges', not both")
        if "edges" in tree_raw:
            edges = []
            _require(isinstance(tree_raw["edges"], list), "tree.edges", "expected a list")
            for i, item in enumerate(tree_raw["edges"]):
                p = f"tree.edges[{i}]"
                _require(isinstance(item, list) and len(item) == 3, p, "expected [u, v, shift]")
                u = _as_int(item[0], f"{p}[0]")
                v = _as_int(item[1], f"{p}[1]")
                s = _as_int(item[2], f"{p}[2]")
                edges.append((u, v, s))
            tree_edges = tuple(edges)
        else:
            rm = tree_raw.get("remove", [n, 1])
            _require(isinstance(rm, list) and len(rm) == 2, "tree.remove", "expected [u, v]")
            u = _as_int(rm[0], "tree.remove[0]")
            v = _as_int(rm[1], "tree.remove[1]")
            cycle = topology.CycleGraph(n)
            _require(cycle.contains_edge(u, v), "tree.remove", f"[{u}, {v}] is not an edge of C_{n}")
            tree_edges = tuple((a, b, g.shift) for (a, b, g) in topology.cycle_minus_edge(n, (u, v)).edges)

    initial_points = None
    box = DEFAULT_BOX
    init_raw = raw.get("initial", {})
    _require(isinstance(init_raw, dict), "initial", "expected an object")
    for key in init_raw:
        _require(key in ("points", "box", "seed"), f"initial.{key}", "unknown field")
    if "points" in init_raw:
        pts = init_raw["points"]
        _require(isinstance(pts, list) and len(pts) == n, "initial.points", f"expected {n} points")
        initial_points = np.vstack([_as_vector(p, dim, f"initial.points[{i}]") for i, p in enumerate(pts)])
    else:
        if "box" in init_raw:
            b = init_raw["box"]
            _require(isinstance(b, list) and len(b) == 2, "initial.box", "expected [lo, hi]")
            lo = _as_number(b[0], "initial.box[0]")
            hi = _as_number(b[1], "initial.box[1]")
            _require(lo < hi, "initial.box", "lo must be < hi")
            box = (lo, hi)
        if "seed" in init_raw:
            seed = _as_int(init_raw["seed"], "initial.seed")

    reference = None
    ref_start = None
    if "reference" in raw:
        reference, ref_start = _parse_reference(raw["reference"], dim, "reference")

    return Scenario(
        name=name, formation=formation, n=n, dim=dim, tree_edges=tree_edges,
        initial_points=initial_points, box=box, seed=seed,
        reference=reference, ref_start=ref_start, dt=dt, horizon=horizon,
        cube_spec=cube_spec, source=source,
    )


def preset_path(name: str) -> Path | None:
    base = resources.files("symform").joinpath("presets")
    candidate = base.joinpath(f"{name}.json")
    return Path(str(candidate)) if candidate.is_file() else None


def load_scenario(spec: str) -> Scenario:
    """Load a scenario from a JSON file path or a bundled preset name."""
    path = Path(spec)
    if not path.is_file():
        bundled = preset_path(spec)
        if bundled is None:
            raise ScenarioError(f"scenario file not found: {spec}")
        path = bundled
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return parse_scenario(raw, name_hint=path.stem, source=str(path))


# --------------------------------------------------------------------- system

@dataclass(eq=False)
class FormationSystem:
    """Built artifacts for one scenario: constraint matrices (``lap.basis`` is the null basis)."""

    lap: object                      # SymmetryLaplacian | CompositeLaplacian
    alt_matrix: NDArray[np.float64]  # independent construction route: cube composed, planar gauge


def build_system(scn: Scenario) -> FormationSystem:
    if scn.formation == "cube":
        lap = spatial3d.build_cube(scn.cube_spec)
        return FormationSystem(lap=lap, alt_matrix=lap.composed)
    tau = symgroup.assignment(scn.n)
    edges = tuple((u, v, symgroup.CyclicAutomorphism(scn.n, s)) for (u, v, s) in scn.tree_edges)
    graph = topology.InteractionGraph(n=scn.n, edges=edges)
    msg = topology.validate(graph)
    if msg is not None:
        raise ScenarioError(f"tree: {msg}")
    lap = laplacian.build_laplacian(graph, tau)
    return FormationSystem(lap=lap, alt_matrix=lap.gauge.matrix)


def initial_state(scn: Scenario) -> NDArray[np.float64]:
    if scn.initial_points is not None:
        return scn.initial_points.ravel()
    rng = np.random.default_rng(scn.seed)
    return rng.uniform(scn.box[0], scn.box[1], size=scn.n * scn.dim)


# ----------------------------------------------------------------------- runs

def run_scenario(scn: Scenario) -> tuple[dynamics.SimulationTrace, FormationSystem, dict]:
    """Simulate a scenario and compute its metrics report."""
    t0 = time.perf_counter()
    system = build_system(scn)
    p0 = initial_state(scn)
    meta = {"seed": scn.seed, "scenario": scn.name}
    if scn.formation == "cube":
        trace = spatial3d.simulate_cube(system.lap, p0, inputs=scn.reference,
                                        start=scn.ref_start, dt=scn.dt,
                                        horizon=scn.horizon, metadata=meta)
    elif scn.reference is not None:
        trace = maneuver.simulate_maneuver(system.lap, p0, scn.reference,
                                           start=scn.ref_start, dt=scn.dt,
                                           horizon=scn.horizon, metadata=meta)
    else:
        trace = dynamics.integrate(system.lap, p0, dt=scn.dt, horizon=scn.horizon,
                                   metadata=meta)
    metrics = compute_metrics(scn, system, trace, p0)
    metrics["runtime_seconds"] = time.perf_counter() - t0
    return trace, system, metrics


def compute_metrics(scn: Scenario, system: FormationSystem,
                    trace: dynamics.SimulationTrace, p0: NDArray[np.float64]) -> dict:
    spec = system.lap.spectrum
    d, n = scn.dim, scn.n
    if isinstance(trace, maneuver.ManeuverTrace):
        z0, zT = trace.zeta[0], trace.zeta[-1]
        projection_residual = float(np.linalg.norm(zT - system.lap.basis.project(z0)))
    else:
        projection_residual = float(np.linalg.norm(trace.final_state - system.lap.basis.project(p0)))
    try:
        fitted = dynamics.fit_rate(trace)
    except ValueError:
        fitted = None
    expected_rate = -spec.lambda_min_pos if spec.lambda_min_pos else None
    rate_gap = (abs(fitted - expected_rate) / abs(expected_rate)
                if fitted is not None and expected_rate else None)
    gauge = system.lap.gauge.matrix
    routes = [("construction_routes", "route disagreement", system.alt_matrix)]
    if system.alt_matrix is not gauge:  # the cube's composed route; a planar alt_matrix is the gauge route
        routes.append(("gauge_route", "|Q - S (L x I) S^T| =", gauge))
    passed = {r.name: r.passed for r in structure_checks(system.lap.matrix, spec, n, d, system.lap.basis.v0, routes)}
    checks = {
        "psd": passed["positive_semidefinite"],
        "rank_matches": passed["rank"],
        "construction_routes_agree": all(passed[name] for name, _, _ in routes),
        "null_basis_annihilated": passed["null_basis"],
    }
    metrics = {
        "name": scn.name,
        "formation": scn.formation,
        "n": n,
        "dim": d,
        "seed": scn.seed,
        "dt": trace.metadata["dt"],
        "horizon": trace.metadata["horizon"],
        "steps": trace.metadata["steps"],
        "lambda_max": spec.lambda_max,
        "lambda_min_pos": spec.lambda_min_pos,
        "rank": spec.rank,
        "null_dim": spec.null_dim,
        "expected_rank": d * n - d,
        "expected_null_dim": d,
        "final_max_edge_error": float(trace.edge_errors[-1].max()),
        "final_total_error": float(trace.total_errors[-1]),
        "final_potential": float(trace.potentials[-1]),
        "projection_residual": projection_residual,
        "fitted_rate": fitted,
        "expected_rate": expected_rate,
        "fitted_rate_rel_gap": rate_gap,
        "zeta_residual": trace.metadata.get("zeta_residual"),
        "checks": checks,
    }
    return metrics


RUN_FILES = frozenset({"trace.csv", "metrics.json", "paths.svg", "errors.svg", "reference.csv"})


def write_outputs(scn: Scenario, trace: dynamics.SimulationTrace, metrics: dict,
                  out_base: str) -> Path:
    """Write the run's files into ``out_base/<name>/``, replacing any earlier run of that name.

    The files are written into a staging directory next to the target and
    moved into place only once all of them are written, so a failure part way
    leaves no partial directory and no stale file of an earlier run survives.
    An existing ``<name>`` that holds anything but the files of a run is left
    alone and raises ScenarioError.
    """
    out_dir = Path(out_base) / scn.name
    if out_dir.is_symlink() or (out_dir.exists() and not _holds_only_run_files(out_dir)):
        raise ScenarioError(f"{out_dir} exists and is not the output of an earlier run; "
                            "move it or choose another --out")
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=f".{out_dir.name}.", dir=out_dir.parent))
    try:
        new_dir = staging / "new"
        new_dir.mkdir()
        output.write_trace_csv(trace, new_dir / "trace.csv")
        output.write_metrics_json(metrics, new_dir / "metrics.json")
        (new_dir / "paths.svg").write_text(output.svg_paths(trace, title=f"{scn.name}: agent paths"))
        (new_dir / "errors.svg").write_text(output.svg_errors(trace, title=f"{scn.name}: edge errors"))
        if isinstance(trace, maneuver.ManeuverTrace):
            (new_dir / "reference.csv").write_text(output.reference_csv_text(trace))
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


def _holds_only_run_files(path: Path) -> bool:
    """True for a directory holding nothing but files that ``write_outputs`` writes."""
    return path.is_dir() and all(p.name in RUN_FILES and p.is_file() and not p.is_symlink()
                                 for p in path.iterdir())


# --------------------------------------------------------------- verification

def verify_scenario(scn: Scenario, seed: int | None = None) -> list[CheckResult]:
    system = build_system(scn)
    return verification_checks(
        system.lap.matrix, system.lap.incidence.matrix, system.lap.basis.v0,
        scn.n, scn.dim, alt_matrix=system.alt_matrix,
        seed=scn.seed if seed is None else seed,
    )


# ---------------------------------------------------------------------- sweep

def sweep_sizes(n_from: int, n_to: int) -> list[dict]:
    """Path-tree construction checks across formation sizes."""
    if n_from < 3:
        raise ScenarioError(f"--n-from must be at least 3, got {n_from}")
    if n_to < n_from:
        raise ScenarioError(f"--n-to must be >= --n-from, got {n_to} < {n_from}")
    rows = []
    for n in range(n_from, n_to + 1):
        system = build_system(parse_scenario({"n": n}))
        spec = system.lap.spectrum
        results = {r.name: r for r in structure_checks(
            system.lap.matrix, spec, n, 2, system.lap.basis.v0,
            [("incidence_product", "|Q - E E^T| =", laplacian.product_laplacian(system.lap.incidence))])}
        rows.append({
            "n": n, "rank": spec.rank, "null_dim": spec.null_dim,
            "lambda_min_pos": spec.lambda_min_pos, "lambda_max": spec.lambda_max,
            "product_gap": results["incidence_product"].value, "null_gap": results["null_basis"].value,
            "passed": all(r.passed for r in results.values()),
        })
    return rows


# ----------------------------------------------------------------------- main

def _apply_overrides(scn: Scenario, args: argparse.Namespace) -> Scenario:
    if getattr(args, "seed", None) is not None:
        scn.seed = args.seed
    if getattr(args, "dt", None) is not None:
        if args.dt <= 0:
            raise ScenarioError(f"--dt must be positive, got {args.dt}")
        scn.dt = args.dt
    if getattr(args, "horizon", None) is not None:
        if args.horizon <= 0:
            raise ScenarioError(f"--horizon must be positive, got {args.horizon}")
        scn.horizon = args.horizon
    return scn


def _cmd_run(args: argparse.Namespace) -> int:
    scn = _apply_overrides(load_scenario(args.scenario), args)
    print(f"running {scn.summary()}")
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
    rows = sweep_sizes(args.n_from, args.n_to)
    all_ok = True
    for row in rows:
        status = "PASS" if row["passed"] else "FAIL"
        print(f"  {status} n={row['n']:2d} rank={row['rank']:3d} null={row['null_dim']} "
              f"lambda_min_pos={row['lambda_min_pos']:.6f} product_gap={row['product_gap']:.1e} "
              f"null_gap={row['null_gap']:.1e}")
        all_ok = all_ok and row["passed"]
    if args.out is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
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


if __name__ == "__main__":
    sys.exit(main())
