"""Spatial formations built from rotations about multiple axes: the cube."""
from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .dynamics import SimulationTrace, integrate
from .laplacian import SymmetryLaplacian, WeightedEdge, laplacian_from_edges
from .maneuver import ManeuverTrace, ReferenceInputs, ReferenceState, simulate_maneuver
from .symgroup import rotation3


@dataclass(frozen=True)
class CubeSpec:
    """Constraint layout for the 8-agent cube.

    Two quarter-turn chains about ``face_axis`` run along the top and bottom
    faces; one cross edge with a quarter turn about ``cross_axis`` ties them
    together. The seven edges form a spanning tree exactly when ``top_nodes``
    and ``bottom_nodes`` partition 1..8 and ``cross_edge`` joins a top node to
    a bottom node; any other spec raises ValueError, its message led by the
    field at fault.
    """

    top_nodes: tuple[int, int, int, int] = (1, 2, 3, 4)
    bottom_nodes: tuple[int, int, int, int] = (5, 6, 7, 8)
    face_axis: str = "z"
    face_angle: float = math.pi / 2
    cross_edge: tuple[int, int] = (1, 5)
    cross_axis: str = "x"
    cross_angle: float = -math.pi / 2

    def __post_init__(self) -> None:
        top, bottom = self.top_nodes, self.bottom_nodes
        if sorted((*top, *bottom)) != list(range(1, 9)):
            raise ValueError(f"top_nodes: with bottom_nodes {reprlib.repr(list(bottom))} must partition 1..8, "
                             f"got {reprlib.repr(list(top))}")
        u, v = self.cross_edge
        if not ((u in top and v in bottom) or (u in bottom and v in top)):
            raise ValueError(f"cross_edge: must join a top node to a bottom node to make a spanning tree, "
                             f"got {reprlib.repr(list(self.cross_edge))}")


def _face_edges(nodes: tuple[int, int, int, int], w: NDArray[np.float64]) -> list[WeightedEdge]:
    return [(nodes[i], nodes[i + 1], w) for i in range(3)]


def build_cube(spec: CubeSpec | None = None) -> SymmetryLaplacian:
    """The cube's constraint tree: two face chains plus a cross edge, checked and walked
    as any tree by :func:`laplacian_from_edges`."""
    if spec is None:
        spec = CubeSpec()
    w_face = rotation3(spec.face_axis, spec.face_angle).matrix
    w_cross = rotation3(spec.cross_axis, spec.cross_angle).matrix
    wedges = (
        _face_edges(spec.top_nodes, w_face)
        + _face_edges(spec.bottom_nodes, w_face)
        + [(spec.cross_edge[0], spec.cross_edge[1], w_cross)]
    )
    return laplacian_from_edges(8, 3, wedges)


def simulate_cube(
    lap: SymmetryLaplacian,
    p0: NDArray[np.float64],
    inputs: ReferenceInputs | None = None,
    start: ReferenceState | None = None,
    dt: float | None = None,
    horizon: float | None = None,
) -> SimulationTrace | ManeuverTrace:
    """Run the cube flow: :func:`integrate` without inputs, :func:`simulate_maneuver` with them."""
    if inputs is None:
        return integrate(lap, p0, dt=dt, horizon=horizon)
    return simulate_maneuver(lap, p0, inputs, start=start, dt=dt, horizon=horizon)
