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
            rot = spatial3d.rotation3(axis, angle) if angle != 0.0 else symgroup.identity(3)
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
    """Built artifacts for one scenario: constraint matrices, chain, null basis."""

    lap: object                      # SymmetryLaplacian | CompositeLaplacian
    basis: laplacian.NullBasis
    chain: list
    alt_matrix: NDArray[np.float64]  # independent construction route
    graph: topology.InteractionGraph | None = None


def build_system(scn: Scenario) -> FormationSystem:
    if scn.formation == "cube":
        lap = spatial3d.build_cube(scn.cube_spec)
        return FormationSystem(lap=lap, basis=lap.basis, chain=list(lap.chain),
                               alt_matrix=lap.composed)
    tau = symgroup.assignment(scn.n)
    edges = tuple((u, v, symgroup.CyclicAutomorphism(scn.n, s)) for (u, v, s) in scn.tree_edges)
    graph = topology.InteractionGraph(n=scn.n, edges=edges)
    msg = topology.validate(graph)
    if msg is not None:
        raise ScenarioError(f"tree: {msg}")
    lap = laplacian.build_laplacian(graph, tau)
    basis = laplacian.null_basis(graph, tau)
    chain = topology.rotation_chain(graph, tau).matrices()
    return FormationSystem(lap=lap, basis=basis, chain=chain,
                           alt_matrix=laplacian.product_laplacian(lap.incidence), graph=graph)


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
    q = system.lap.matrix
    spec = system.lap.spectrum
    d, n = scn.dim, scn.n
    if isinstance(trace, maneuver.ManeuverTrace):
        z0, zT = trace.zeta[0], trace.zeta[-1]
        projection_residual = float(np.linalg.norm(zT - system.basis.project(z0)))
    else:
        projection_residual = float(np.linalg.norm(trace.final_state - system.basis.project(p0)))
    try:
        fitted = dynamics.fit_rate(trace)
    except ValueError:
        fitted = None
    expected_rate = -spec.lambda_min_pos if spec.lambda_min_pos else None
    rate_gap = (abs(fitted - expected_rate) / abs(expected_rate)
                if fitted is not None and expected_rate else None)
    checks = {
        "psd": bool(spec.eigenvalues[0] >= -1e-9 * max(1.0, spec.lambda_max)),
        "rank_matches": bool(spec.rank == d * n - d and spec.null_dim == d),
        "construction_routes_agree": bool(np.abs(q - system.alt_matrix).max() <= 1e-12),
        "null_basis_annihilated": bool(np.abs(q @ system.basis.v0).max() <= 1e-10),
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

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def verification_checks(
    q_matrix: NDArray[np.float64],
    incidence_matrix: NDArray[np.float64],
    null_matrix: NDArray[np.float64],
    n: int,
    dim: int,
    alt_matrix: NDArray[np.float64] | None = None,
    seed: int = 0,
) -> list[CheckResult]:
    """Construction and dynamics checks on explicit matrices.

    Takes raw matrices (not built objects) so a deliberately corrupted input
    is detected rather than silently rebuilt.
    """
    rng = np.random.default_rng(seed)
    out: list[CheckResult] = []

    asym = float(np.abs(q_matrix - q_matrix.T).max())
    out.append(CheckResult("symmetric", asym <= 1e-10, f"max asymmetry {asym:.3e} (tol 1e-10)"))
    sym = 0.5 * (q_matrix + q_matrix.T)  # for eigh only; asymmetry already reported

    try:
        eigenvalues = np.linalg.eigvalsh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure(f"eigendecomposition failed: {exc}") from exc
    lam_max = float(eigenvalues[-1])
    threshold = 1e-9 * max(1.0, lam_max)
    min_eig = float(eigenvalues[0])
    out.append(CheckResult("positive_semidefinite", min_eig >= -threshold,
                           f"min eigenvalue {min_eig:.3e} (tol -{threshold:.1e})"))
    null_dim = int(np.sum(np.abs(eigenvalues) < threshold))
    rank = eigenvalues.size - null_dim
    out.append(CheckResult("rank", rank == dim * n - dim and null_dim == dim,
                           f"rank {rank} null {null_dim} (expected {dim * n - dim} and {dim})"))

    prod_gap = float(np.abs(q_matrix - incidence_matrix @ incidence_matrix.T).max())
    out.append(CheckResult("incidence_product", prod_gap <= 1e-12,
                           f"max |Q - E E^T| = {prod_gap:.3e} (tol 1e-12)"))
    if alt_matrix is not None:
        alt_gap = float(np.abs(q_matrix - alt_matrix).max())
        out.append(CheckResult("construction_routes", alt_gap <= 1e-12,
                               f"max route disagreement {alt_gap:.3e} (tol 1e-12)"))

    null_gap = float(np.abs(q_matrix @ null_matrix).max())
    out.append(CheckResult("null_basis", null_gap <= 1e-10,
                           f"max |Q V0| = {null_gap:.3e} (tol 1e-10)"))

    # gradient of 0.5 ||E^T p||^2 must match Q p (central differences, h = 1e-5)
    h = 1e-5
    worst = 0.0
    for _ in range(10):
        p = rng.uniform(-2.0, 2.0, size=dim * n)
        grad = q_matrix @ p
        fd = np.empty_like(p)
        for i in range(p.size):
            e = np.zeros_like(p)
            e[i] = h
            fp = 0.5 * float(np.sum((incidence_matrix.T @ (p + e)) ** 2))
            fm = 0.5 * float(np.sum((incidence_matrix.T @ (p - e)) ** 2))
            fd[i] = (fp - fm) / (2 * h)
        rel = float(np.abs(fd - grad).max() / (1.0 + np.abs(grad).max()))
        worst = max(worst, rel)
    out.append(CheckResult("gradient", worst <= 1e-6,
                           f"max relative FD mismatch {worst:.3e} (tol 1e-6)"))

    # short run of the run-path RK4 propagator against the closed-form solution
    p0 = rng.uniform(-2.0, 2.0, size=dim * n)
    dt = 0.01 / lam_max if lam_max > 0 else 0.01
    steps = int(math.ceil(1.0 / dt))
    p = dynamics.propagate_linear(p0, [(sym, steps)], dt)[-1]
    lam, vec = np.linalg.eigh(sym)
    lam = np.where(np.abs(lam) < threshold, 0.0, lam)
    exact = vec @ (np.exp(-lam * (steps * dt)) * (vec.T @ p0))
    solver_gap = float(np.linalg.norm(p - exact))
    out.append(CheckResult("solver_cross_check", solver_gap <= 1e-6,
                           f"|RK4 - closed form| = {solver_gap:.3e} at t = {steps * dt:.3f} (tol 1e-6)"))
    return out


def verify_scenario(scn: Scenario, seed: int | None = None) -> list[CheckResult]:
    system = build_system(scn)
    return verification_checks(
        system.lap.matrix, system.lap.incidence.matrix, system.basis.v0,
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
        tau = symgroup.assignment(n)
        graph = topology.cycle_minus_edge(n, (n, 1))
        lap = laplacian.build_laplacian(graph, tau)
        basis = laplacian.null_basis(graph, tau)
        spec = laplacian.spectrum(lap.matrix)
        prod_gap = float(np.abs(lap.matrix - laplacian.product_laplacian(lap.incidence)).max())
        null_gap = float(np.abs(lap.matrix @ basis.v0).max())
        ok = (
            spec.eigenvalues[0] >= -1e-9 * max(1.0, spec.lambda_max)
            and spec.rank == 2 * n - 2 and spec.null_dim == 2
            and prod_gap <= 1e-12 and null_gap <= 1e-10
        )
        rows.append({
            "n": n, "rank": spec.rank, "null_dim": spec.null_dim,
            "lambda_min_pos": spec.lambda_min_pos, "lambda_max": spec.lambda_max,
            "product_gap": prod_gap, "null_gap": null_gap, "passed": bool(ok),
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
