"""Symmetry-constrained formation control on cycle graphs.

Constraint trees labeled with cyclic-group rotations define a matrix-weighted
Laplacian whose null space is exactly the set of compatible formations; the
induced gradient flow drives agents onto it, and a reference augmentation
steers the achieved formation along translating/rotating/scaling trajectories.
"""
from __future__ import annotations

from .symgroup import (
    CyclicAutomorphism,
    Rotation,
    identity,
    rotation2,
    rotation3,
)
from .topology import (
    CycleGraph,
    InteractionGraph,
    chain_matrices,
    cycle_minus_edge,
    rotation_chain,
    validate,
    weighted_edges,
)
from .laplacian import (
    NumericFailure,
    Spectrum,
    SymmetryLaplacian,
    build_laplacian,
    closed_form_solution,
    laplacian_from_edges,
    null_basis,
    product_laplacian,
    spectrum,
    steady_state,
    steady_state_per_agent,
    symmetric_configuration,
)
from .dynamics import (
    SimulationTrace,
    control,
    control_per_agent,
    edge_errors,
    edge_residual_norms,
    fit_rate,
    integrate,
    potential,
    propagate_linear,
    resolve_grid,
    rk4_step,
)
from .maneuver import (
    ManeuverTrace,
    ReferenceInputs,
    ReferencePath,
    ReferenceState,
    frame_to_world,
    maneuver_control,
    moving_frame,
    omega_matrix,
    propagate_reference,
    shifted_errors,
    simulate_maneuver,
    zeta_consistency_residual,
)
from .spatial3d import (
    CubeSpec,
    build_cube,
    simulate_cube,
)

__version__ = "0.1.0"

__all__ = [
    "CubeSpec", "CycleGraph", "CyclicAutomorphism", "InteractionGraph",
    "ManeuverTrace", "NumericFailure", "ReferenceInputs", "ReferencePath",
    "ReferenceState", "Rotation", "SimulationTrace", "Spectrum",
    "SymmetryLaplacian", "build_cube", "build_laplacian", "chain_matrices",
    "closed_form_solution", "control", "control_per_agent",
    "cycle_minus_edge", "edge_errors", "edge_residual_norms", "fit_rate",
    "frame_to_world", "identity", "integrate", "laplacian_from_edges",
    "maneuver_control", "moving_frame", "null_basis", "omega_matrix",
    "potential", "product_laplacian", "propagate_linear",
    "propagate_reference", "resolve_grid", "rk4_step", "rotation2",
    "rotation3", "rotation_chain", "shifted_errors", "simulate_cube",
    "simulate_maneuver", "spectrum", "steady_state",
    "steady_state_per_agent", "symmetric_configuration", "validate",
    "weighted_edges", "zeta_consistency_residual",
]
