"""Scenario files: parsing, validation and defaults of a run description."""
from __future__ import annotations

import dataclasses
import json
import math
import reprlib
from collections.abc import Callable
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


@dataclasses.dataclass
class Scenario:
    """Fully resolved run description (all defaults applied)."""

    name: str
    formation: str            # "planar" | "cube"
    n: int
    dim: int
    tree_graph: topology.InteractionGraph | None  # planar, given as edges: checked by topology.planar_tree
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


def _require(cond: bool, path: str, msg: str | Callable[[], str]) -> None:
    """Raise ScenarioError "<path>: <msg>" unless ``cond``. A ``msg`` that names the value
    is given as a function that forms it, so it is formed only when the check fails."""
    if not cond:
        raise ScenarioError(f"{path}: {msg() if callable(msg) else msg}")


def _as_int(value, path: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool),
             path, lambda: f"expected an integer, got {reprlib.repr(value)}")
    return value


def _as_number(value, path: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             path, lambda: f"expected a number, got {reprlib.repr(value)}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    _require(math.isfinite(value), path, "must be finite")
    return value


def _as_vector(value, dim: int, path: str) -> np.ndarray:
    _require(isinstance(value, list) and len(value) == dim, path, f"expected a list of {dim} numbers")
    return np.array([_as_number(x, f"{path}[{i}]") for i, x in enumerate(value)])


def _as_positive(value, path: str) -> float:
    value = _as_number(value, path)
    _require(value > 0, path, "must be positive")
    return value


def _as_seed(value, path: str) -> int:
    seed = _as_int(value, path)
    _require(seed >= 0, path, lambda: f"must be non-negative, got {reprlib.repr(seed)}")
    return seed


def _ints(raw, path: str, count: int, shape: str) -> tuple[int, ...]:
    """``raw`` as a list of ``count`` integer ids; ``shape`` names that list in the message."""
    _require(isinstance(raw, list) and len(raw) == count, path, f"expected {shape}")
    return tuple(_as_int(v, f"{path}[{i}]") for i, v in enumerate(raw))


def _fields(raw, path: str, known) -> dict:
    """``raw`` as an object holding only ``known`` keys."""
    _require(isinstance(raw, dict), path, "expected an object")
    for key in raw:
        _require(key in known, path, lambda: f"unknown field {reprlib.repr(key)}")
    return raw


def _parse_segments(raw, path: str, value) -> tuple:
    """[t, value] pairs, each value read by the rule ``value(raw, path)``."""
    _require(isinstance(raw, list) and raw, path, "expected a non-empty list of [t, value] pairs")
    segs = []
    for i, pair in enumerate(raw):
        p = f"{path}[{i}]"
        _require(isinstance(pair, list) and len(pair) == 2, p, "expected a [t, value] pair")
        segs.append((_as_number(pair[0], f"{p}[0]"), value(pair[1], f"{p}[1]")))
    return tuple(segs)


def _parse_reference(raw, dim: int, path: str) -> tuple[maneuver.ReferenceInputs, maneuver.ReferenceState]:
    _fields(raw, path, ("start", "velocity", "angular_velocity", "scale_rate"))
    zero_v = [[0.0, [0.0] * dim]]
    zero_w = [[0.0, [0.0, 0.0, 0.0] if dim == 3 else 0.0]]
    zero_a = [[0.0, 0.0]]

    def vector(value, p: str) -> np.ndarray:
        return _as_vector(value, dim, p)

    velocity = _parse_segments(raw.get("velocity", zero_v), f"{path}.velocity", vector)
    angular = _parse_segments(raw.get("angular_velocity", zero_w), f"{path}.angular_velocity",
                              vector if dim == 3 else _as_number)
    scale_rate = _parse_segments(raw.get("scale_rate", zero_a), f"{path}.scale_rate", _as_number)
    try:
        inputs = maneuver.ReferenceInputs(dim=dim, velocity=velocity, angular=angular, scale_rate=scale_rate)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc

    start_raw = _fields(raw.get("start", {}), f"{path}.start", ("position", "scale", "angle", "axis"))
    pos = _as_vector(start_raw.get("position", [0.0] * dim), dim, f"{path}.start.position")
    scale = _as_number(start_raw.get("scale", 1.0), f"{path}.start.scale")
    angle = _as_number(start_raw.get("angle", 0.0), f"{path}.start.angle")
    if dim == 2:
        _require("axis" not in start_raw, f"{path}.start.axis", "only valid for cube formations")
        rot = symgroup.rotation2(angle)
    else:
        axis = _as_vector(start_raw.get("axis", [0.0, 0.0, 1.0]), 3, f"{path}.start.axis")
        try:
            rot = symgroup.rotation3(axis, angle)
        except ValueError as exc:
            raise ScenarioError(f"{path}.start.axis: {exc}") from exc
    try:
        start = maneuver.ReferenceState(position=pos, rotation=rot, scale=scale)
    except ValueError as exc:
        raise ScenarioError(f"{path}.start: {exc}") from exc
    return inputs, start


def _parse_cube(raw, path: str) -> spatial3d.CubeSpec:
    kwargs = {}
    for key, value in _fields(raw, path, [f.name for f in dataclasses.fields(spatial3d.CubeSpec)]).items():
        p = f"{path}.{key}"
        if key in ("face_axis", "cross_axis"):
            _require(value in ("x", "y", "z"), p, "expected 'x', 'y' or 'z'")
            kwargs[key] = value
        elif key in ("face_angle", "cross_angle"):
            kwargs[key] = _as_number(value, p)
        elif key == "cross_edge":
            kwargs[key] = _ints(value, p, 2, "[u, v]")
        else:
            kwargs[key] = _ints(value, p, 4, "4 node ids")
    try:
        return spatial3d.CubeSpec(**kwargs)
    except ValueError as exc:  # its message leads with the field at fault
        raise ScenarioError(f"{path}.{exc}") from exc


def parse_scenario(raw: dict, name_hint: str = "scenario") -> Scenario:
    """Validate a scenario dict and resolve every default."""
    _require(isinstance(raw, dict), "$", "scenario must be a JSON object")
    _fields(raw, "$", ("name", "formation", "n", "tree", "initial", "seed", "reference", "dt", "horizon", "cube"))

    formation = raw.get("formation", "planar")
    _require(formation in ("planar", "cube"), "formation",
             lambda: f"expected 'planar' or 'cube', got {reprlib.repr(formation)}")
    name = raw.get("name", name_hint)
    _require(isinstance(name, str) and name, "name", "expected a non-empty string")
    _require(name not in (".", "..") and not any(c in name for c in "/\\\0"), "name",
             lambda: f"expected a plain file name (no path separator, not '.' or '..'), got {reprlib.repr(name)}")
    # control characters are not XML, so the SVG titles would not parse; a lone
    # surrogate (JSON allows "\ud800") has no UTF-8 form to print or to name a file
    _require(not any(c < " " or c == "\x7f" or "\ud800" <= c <= "\udfff" for c in name), "name",
             lambda: "must not hold control characters (U+0000-U+001F, U+007F) or surrogates "
                     f"(U+D800-U+DFFF), got {reprlib.repr(name)}")
    size = len(name.encode())
    _require(size <= MAX_NAME_BYTES, "name",
             lambda: f"must be at most {MAX_NAME_BYTES} bytes in UTF-8, got {size}: {reprlib.repr(name)}")

    seed = _as_seed(raw.get("seed", DEFAULT_SEED), "seed")
    dt = None if "dt" not in raw else _as_positive(raw["dt"], "dt")
    horizon = None if "horizon" not in raw else _as_positive(raw["horizon"], "horizon")

    if formation == "cube":
        _require("tree" not in raw, "tree", "cube formations fix their own constraint tree")
        _require("n" not in raw, "n", "cube formations fix n = 8")
        n, dim = 8, 3
        cube_spec = _parse_cube(raw.get("cube", {}), "cube")
        tree_graph = removed_edge = None
    else:
        _require("cube" not in raw, "cube", "only valid for cube formations")
        _require("n" in raw, "n", "required for planar formations")
        n = _as_int(raw["n"], "n")
        _require(n >= 3, "n", lambda: f"cycle formations need n >= 3, got {n}")
        dim = 2
        cube_spec = None
        tree_raw = _fields(raw.get("tree", {}), "tree", ("remove", "edges"))
        if "remove" in tree_raw and "edges" in tree_raw:
            raise ScenarioError("tree: give either 'remove' or 'edges', not both")
        if "edges" in tree_raw:
            _require(isinstance(tree_raw["edges"], list), "tree.edges", "expected a list")
            edges = [_ints(item, f"tree.edges[{i}]", 3, "[u, v, shift]")
                     for i, item in enumerate(tree_raw["edges"])]
            try:  # O(len(edges)): the edges, not n, set its cost
                tree_graph, removed_edge = topology.planar_tree(n, edges), None
            except ValueError as exc:
                raise ScenarioError(f"tree: {exc}") from None
        else:
            u, v = _ints(tree_raw.get("remove", [n, 1]), "tree.remove", 2, "[u, v]")
            _require(topology.is_cycle_edge(n, u, v), "tree.remove",
                     lambda: f"{reprlib.repr([u, v])} is not an edge of C_{reprlib.repr(n)}")
            # C_n less a cycle edge is a tree; cli.build_system builds it once n is known to fit
            tree_graph, removed_edge = None, (u, v)

    initial_points = None
    box = DEFAULT_BOX
    init_raw = _fields(raw.get("initial", {}), "initial", ("points", "box", "seed"))
    if "points" in init_raw:
        _require("box" not in init_raw and "seed" not in init_raw, "initial",
                 "give either 'points' or 'box' and 'seed', not both")
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
            seed = _as_seed(init_raw["seed"], "initial.seed")

    reference = None
    ref_start = None
    if "reference" in raw:
        reference, ref_start = _parse_reference(raw["reference"], dim, "reference")

    return Scenario(
        name=name, formation=formation, n=n, dim=dim, tree_graph=tree_graph, removed_edge=removed_edge,
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

