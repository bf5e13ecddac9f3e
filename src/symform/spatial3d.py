"""Spatial formations built from rotations about multiple axes: the cube."""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from .dynamics import SimulationTrace, integrate
from .laplacian import SymmetryLaplacian, WeightedEdge, assemble_laplacian, laplacian_from_edges
from .maneuver import ManeuverTrace, ReferenceInputs, ReferenceState, simulate_maneuver
from .symgroup import _freeze, rotation3


@dataclass(frozen=True)
class CubeSpec:
    """Constraint layout for the 8-agent cube.

    Two quarter-turn chains about ``face_axis`` run along the top and bottom
    faces; one cross edge with a quarter turn about ``cross_axis`` ties them
    together. ``cross_nodes`` is the orbit of the cross-axis turn, used for
    the permuted composed form of the constraint matrix.
    """

    top_nodes: tuple[int, int, int, int] = (1, 2, 3, 4)
    bottom_nodes: tuple[int, int, int, int] = (5, 6, 7, 8)
    face_axis: str = "z"
    face_angle: float = math.pi / 2
    cross_edge: tuple[int, int] = (1, 5)
    cross_axis: str = "x"
    cross_angle: float = -math.pi / 2
    cross_nodes: tuple[int, int, int, int] = (1, 5, 8, 4)


def _face_edges(nodes: tuple[int, int, int, int], w: NDArray[np.float64]) -> list[WeightedEdge]:
    return [(nodes[i], nodes[i + 1], w) for i in range(3)]


def cube_permutation(spec: CubeSpec) -> NDArray[np.float64]:
    """24×24 block permutation taking the cross-chain orbit to the first four agent slots."""
    if sorted(spec.cross_nodes) != sorted({spec.cross_edge[0], spec.cross_edge[1]} | set(spec.cross_nodes)):
        raise ValueError("cross_nodes must contain the cross edge endpoints")
    order = list(spec.cross_nodes) + [i for i in range(1, 9) if i not in spec.cross_nodes]
    perm = np.zeros((24, 24))
    for loc, g in enumerate(order):
        perm[3 * (g - 1):3 * g, 3 * loc:3 * loc + 3] = np.eye(3)
    return perm


def build_cube(spec: CubeSpec | None = None) -> SymmetryLaplacian:
    """Assemble the cube constraint matrix from two face chains plus a cross edge.

    The seven edges are checked and walked as any tree by
    :func:`laplacian_from_edges`; the result carries, as ``composed``, the
    face-chain block stacked twice plus the cross-chain block permuted in.
    """
    if spec is None:
        spec = CubeSpec()
    nodes = (*spec.top_nodes, *spec.bottom_nodes)
    if sorted(nodes) != list(range(1, 9)):
        raise ValueError(f"face nodes must partition 1..8, got {nodes}")
    w_face = rotation3(spec.face_axis, spec.face_angle).matrix
    w_cross = rotation3(spec.cross_axis, spec.cross_angle).matrix
    wedges = (
        _face_edges(spec.top_nodes, w_face)
        + _face_edges(spec.bottom_nodes, w_face)
        + [(spec.cross_edge[0], spec.cross_edge[1], w_cross)]
    )
    lap = laplacian_from_edges(8, 3, wedges)

    # composed route: per-face chain block twice, cross-chain block permuted in
    face_block = assemble_laplacian(4, 3, [(i + 1, i + 2, w_face) for i in range(3)])
    cross_block = assemble_laplacian(4, 3, [(1, 2, w_cross)])
    stacked = np.zeros((24, 24))
    stacked[:12, :12] = face_block
    stacked[12:, 12:] = face_block
    perm = cube_permutation(spec)
    embedded = np.zeros((24, 24))
    embedded[:12, :12] = cross_block
    return replace(lap, composed=_freeze(stacked + perm @ embedded @ perm.T))


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
