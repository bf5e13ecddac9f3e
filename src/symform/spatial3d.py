"""Spatial formations built from rotations about multiple axes: the cube."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .dynamics import SimulationTrace, integrate
from .laplacian import (
    NullBasis,
    SymmetryIncidence,
    SymmetryLaplacian,
    WeightedEdge,
    laplacian_from_edges,
    null_basis_from_chain,
)
from .maneuver import ManeuverTrace, ReferenceInputs, ReferenceState, simulate_maneuver, zeta_consistency_residual
from .symgroup import rotation3
from .topology import chain_matrices

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


@dataclass(frozen=True, eq=False)
class CompositeLaplacian:
    """Cube constraint matrix with both construction routes retained.

    ``matrix`` is the per-edge sum (normative); ``composed`` stacks the two
    face-chain blocks and permutes in the cross-chain block, and must agree
    entrywise. ``chain`` maps a seed point to the eight target corners.
    """

    matrix: NDArray[np.float64]
    incidence: SymmetryIncidence
    n: int
    dim: int
    wedges: tuple[WeightedEdge, ...]
    composed: NDArray[np.float64]
    face_block: NDArray[np.float64]
    cross_block: NDArray[np.float64]
    permutation: NDArray[np.float64]
    chain: tuple[NDArray[np.float64], ...]
    basis: NullBasis
    spec: CubeSpec

    @property
    def edge_count(self) -> int:
        return self.incidence.edge_count

    gauge = SymmetryLaplacian.gauge  # the same gauge form and once-per-system spectrum cache
    spectrum = SymmetryLaplacian.spectrum


def _face_edges(nodes: tuple[int, int, int, int], w: NDArray[np.float64]) -> list[WeightedEdge]:
    return [(nodes[i], nodes[i + 1], w) for i in range(3)]


def build_cube(spec: CubeSpec | None = None) -> CompositeLaplacian:
    """Assemble the cube constraint matrix from two face chains plus a cross edge."""
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
    seen: set[frozenset[int]] = set()
    for (u, v, _) in wedges:
        if not (1 <= u <= 8 and 1 <= v <= 8) or u == v:
            raise ValueError(f"invalid edge ({u}, {v})")
        key = frozenset((u, v))
        if key in seen:
            raise ValueError(f"duplicate edge ({u}, {v})")
        seen.add(key)
    try:
        chain = chain_matrices(8, wedges)
    except ValueError as exc:
        raise ValueError(f"constraint edges do not form a spanning tree: {exc}") from exc

    lap = laplacian_from_edges(8, 3, wedges)

    # composed route: per-face chain block twice, cross-chain block permuted in
    local_face = [(i + 1, i + 2, w_face) for i in range(3)]
    face_block = laplacian_from_edges(4, 3, local_face).matrix
    cross_block = laplacian_from_edges(4, 3, [(1, 2, w_cross)]).matrix
    stacked = np.zeros((24, 24))
    stacked[:12, :12] = face_block
    stacked[12:, 12:] = face_block
    if sorted(spec.cross_nodes) != sorted({spec.cross_edge[0], spec.cross_edge[1]} | set(spec.cross_nodes)):
        raise ValueError("cross_nodes must contain the cross edge endpoints")
    order = list(spec.cross_nodes) + [i for i in range(1, 9) if i not in spec.cross_nodes]
    perm = np.zeros((24, 24))
    for loc, g in enumerate(order):
        perm[3 * (g - 1):3 * g, 3 * loc:3 * loc + 3] = np.eye(3)
    embedded = np.zeros((24, 24))
    embedded[:12, :12] = cross_block
    composed = stacked + perm @ embedded @ perm.T

    return CompositeLaplacian(
        matrix=lap.matrix, incidence=lap.incidence, n=8, dim=3, wedges=lap.wedges,
        composed=composed, face_block=face_block, cross_block=cross_block,
        permutation=perm, chain=tuple(chain), basis=null_basis_from_chain(chain),
        spec=spec,
    )


def cube_corners(lap: CompositeLaplacian, seed_point=(1.0, 1.0, 1.0)) -> NDArray[np.float64]:
    """Target corner positions: the chain applied to a seed corner."""
    q = np.asarray(seed_point, dtype=float)
    return np.concatenate([m @ q for m in lap.chain])


def simulate_cube(
    lap: CompositeLaplacian,
    p0: NDArray[np.float64],
    inputs: ReferenceInputs | None = None,
    start: ReferenceState | None = None,
    dt: float | None = None,
    horizon: float | None = None,
    metadata: dict | None = None,
) -> SimulationTrace | ManeuverTrace:
    """Run the cube flow, stationary or maneuvering.

    With inputs, the frame-reduction residual is attached to the trace
    metadata under ``zeta_residual``: spatial edge rotations need not commute
    with the reference attitude, so it is reported, never asserted zero.
    """
    if inputs is None:
        return integrate(lap, p0, dt=dt, horizon=horizon, metadata=metadata)
    trace = simulate_maneuver(lap, p0, inputs, start=start, dt=dt, horizon=horizon, metadata=metadata)
    trace.metadata["zeta_residual"] = zeta_consistency_residual(trace, lap.matrix)
    return trace
