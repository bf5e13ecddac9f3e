"""Symmetry-constrained formation control on cycle graphs.

Constraint trees labeled with cyclic-group rotations define a matrix-weighted
Laplacian whose null space is exactly the set of compatible formations; the
induced gradient flow drives agents onto it, and a reference augmentation
steers the achieved formation along translating/rotating/scaling trajectories.
"""
from __future__ import annotations

from .symgroup import (
    Rotation,
    identity,
    rotation2,
    rotation3,
)
from .topology import (
    InteractionGraph,
    chain_matrices,
    cycle_minus_edge,
    rotation_chain,
    weighted_edges,
)
from .laplacian import (
    NumericFailure,
    Spectrum,
    SymmetryLaplacian,
    build_laplacian,
    laplacian_from_edges,
    null_basis,
    product_laplacian,
    spectrum,
    steady_state,
)
from .dynamics import (
    SimulationTrace,
    fit_rate,
    integrate,
    propagate_linear,
    resolve_grid,
)
from .maneuver import (
    ManeuverTrace,
    ReferenceInputs,
    ReferencePath,
    ReferenceState,
    omega_matrix,
    propagate_reference,
    simulate_maneuver,
    zeta_consistency_residual,
)
from .spatial3d import (
    CubeSpec,
    build_cube,
)

__version__ = "0.1.0"

__all__ = [
    "CubeSpec", "InteractionGraph", "ManeuverTrace", "NumericFailure",
    "ReferenceInputs", "ReferencePath", "ReferenceState", "Rotation",
    "SimulationTrace", "Spectrum", "SymmetryLaplacian", "build_cube",
    "build_laplacian", "chain_matrices", "cycle_minus_edge", "fit_rate",
    "identity", "integrate", "laplacian_from_edges", "null_basis",
    "omega_matrix", "product_laplacian", "propagate_linear",
    "propagate_reference", "resolve_grid", "rotation2", "rotation3",
    "rotation_chain", "simulate_maneuver", "spectrum", "steady_state",
    "weighted_edges", "zeta_consistency_residual",
]
