"""Scenario files: parsing, validation and defaults of a run description."""
from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from . import maneuver, spatial3d, symgroup, topology

DEFAULT_BOX = (-2.0, 2.0)
DEFAULT_SEED = 0
# A run stages its files in ".<name>.XXXXXXXX" beside the output directory: 245 bytes
# of name keep that within the 255-byte file name limit of common file systems.
MAX_NAME_BYTES = 245


class ScenarioError(Exception):
    """A scenario file is malformed; the message names the offending field."""


@dataclass
class Scenario:
    """Fully resolved run description (all defaults applied)."""

    name: str
    formation: str            # "planar" | "cube"
    n: int
    dim: int
    tree_edges: tuple | None  # planar, given as edges: ((u, v, shift), ...)
    removed_edge: tuple[int, int] | None  # planar, given as C_n less this edge (u, v)
    initial_points: NDArray[np.float64] | None
    box: tuple[float, float]
    seed: int
    reference: maneuver.ReferenceInputs | None
    ref_start: maneuver.ReferenceState | None
    dt: float | None
    horizon: float | None
    cube_spec: spatial3d.CubeSpec | None

    def summary(self) -> str:
        bits = [f"name={self.name}", f"formation={self.formation}", f"n={reprlib.repr(self.n)}",
                f"dim={self.dim}", f"seed={reprlib.repr(self.seed)}",
                f"dt={'auto' if self.dt is None else self.dt}",
                f"horizon={'auto' if self.horizon is None else self.horizon}",
                f"reference={'yes' if self.reference is not None else 'no'}"]
        return " ".join(bits)


def _require(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise ScenarioError(f"{path}: {msg}")


def _as_int(value, path: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool),
             path, f"expected an integer, got {reprlib.repr(value)}")
    return value


def _as_number(value, path: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             path, f"expected a number, got {reprlib.repr(value)}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
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
        _require(key in known, path, f"unknown field {reprlib.repr(key)}")
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
    for key in start_raw:
        _require(key in ("position", "scale", "angle", "axis"), f"{path}.start",
                 f"unknown field {reprlib.repr(key)}")
    pos = _as_vector(start_raw.get("position", [0.0] * dim), dim, f"{path}.start.position")
    scale = _as_number(start_raw.get("scale", 1.0), f"{path}.start.scale")
    angle = _as_number(start_raw.get("angle", 0.0), f"{path}.start.angle")
    if dim == 2:
        rot = symgroup.rotation2(angle)
    else:
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
            raise ScenarioError(f"{path}: unknown field {reprlib.repr(key)}")
    return spatial3d.CubeSpec(**{**spec.__dict__, **kwargs})


def parse_scenario(raw: dict, name_hint: str = "scenario") -> Scenario:
    """Validate a scenario dict and resolve every default."""
    _require(isinstance(raw, dict), "$", "scenario must be a JSON object")
    known = {"name", "formation", "n", "tree", "initial", "seed", "reference",
             "dt", "horizon", "cube"}
    for key in raw:
        _require(key in known, "$", f"unknown field {reprlib.repr(key)}")

    formation = raw.get("formation", "planar")
    _require(formation in ("planar", "cube"), "formation",
             f"expected 'planar' or 'cube', got {reprlib.repr(formation)}")
    name = raw.get("name", name_hint)
    _require(isinstance(name, str) and name, "name", "expected a non-empty string")
    _require(name not in (".", "..") and not any(c in name for c in "/\\\0"), "name",
             f"expected a plain file name (no path separator, not '.' or '..'), got {reprlib.repr(name)}")
    # control characters are not XML, so the SVG titles would not parse; a lone
    # surrogate (JSON allows "\ud800") has no UTF-8 form to print or to name a file
    _require(not any(c < " " or c == "\x7f" or "\ud800" <= c <= "\udfff" for c in name), "name",
             "must not hold control characters (U+0000-U+001F, U+007F) or surrogates (U+D800-U+DFFF), "
             f"got {reprlib.repr(name)}")
    size = len(name.encode())
    _require(size <= MAX_NAME_BYTES, "name",
             f"must be at most {MAX_NAME_BYTES} bytes in UTF-8, got {size}: {reprlib.repr(name)}")

    seed = _as_int(raw.get("seed", DEFAULT_SEED), "seed")
    _require(seed >= 0, "seed", f"must be non-negative, got {reprlib.repr(seed)}")
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
        tree_edges = removed_edge = None
    else:
        _require("cube" not in raw, "cube", "only valid for cube formations")
        _require("n" in raw, "n", "required for planar formations")
        n = _as_int(raw["n"], "n")
        _require(n >= 3, "n", f"cycle formations need n >= 3, got {n}")
        dim = 2
        cube_spec = None
        tree_raw = raw.get("tree", {"remove": [n, 1]})
        _require(isinstance(tree_raw, dict), "tree", "expected an object")
        for key in tree_raw:
            _require(key in ("remove", "edges"), "tree", f"unknown field {reprlib.repr(key)}")
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
            tree_edges, removed_edge = tuple(edges), None
        else:
            rm = tree_raw.get("remove", [n, 1])
            _require(isinstance(rm, list) and len(rm) == 2, "tree.remove", "expected [u, v]")
            u = _as_int(rm[0], "tree.remove[0]")
            v = _as_int(rm[1], "tree.remove[1]")
            _require(topology.CycleGraph(n).contains_edge(u, v), "tree.remove",
                     f"{reprlib.repr([u, v])} is not an edge of C_{reprlib.repr(n)}")
            tree_edges, removed_edge = None, (u, v)  # cli.build_system builds the tree once n is known to fit

    initial_points = None
    box = DEFAULT_BOX
    init_raw = raw.get("initial", {})
    _require(isinstance(init_raw, dict), "initial", "expected an object")
    for key in init_raw:
        _require(key in ("points", "box", "seed"), "initial", f"unknown field {reprlib.repr(key)}")
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
            _require(math.isfinite(hi - lo), "initial.box", "hi - lo must be finite")
            box = (lo, hi)
        if "seed" in init_raw:
            seed = _as_int(init_raw["seed"], "initial.seed")
            _require(seed >= 0, "initial.seed", f"must be non-negative, got {reprlib.repr(seed)}")

    reference = None
    ref_start = None
    if "reference" in raw:
        reference, ref_start = _parse_reference(raw["reference"], dim, "reference")

    return Scenario(
        name=name, formation=formation, n=n, dim=dim, tree_edges=tree_edges, removed_edge=removed_edge,
        initial_points=initial_points, box=box, seed=seed,
        reference=reference, ref_start=ref_start, dt=dt, horizon=horizon, cube_spec=cube_spec,
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
        raw = json.loads(path.read_bytes())  # RFC 8259: JSON text is UTF-8, whatever the locale
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise ScenarioError(f"{path}: invalid JSON: nested too deeply") from None
    except ValueError as exc:  # not UTF-8, or an integer of more digits than int() converts
        raise ScenarioError(f"{path}: {exc}") from None
    return parse_scenario(raw, name_hint=path.stem)

