"""Rotation elements used as edge constraints."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

ORTHOGONALITY_TOL = 1e-12
DET_TOL = 1e-12


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Rotation:
    """A proper rotation matrix in dimension 2 or 3."""

    matrix: NDArray[np.float64]

    def __post_init__(self) -> None:
        m = _freeze(np.asarray(self.matrix, dtype=float))
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in (2, 3):
            raise ValueError(f"rotation matrix must be 2x2 or 3x3, got shape {m.shape}")
        d = m.shape[0]
        if np.abs(m.T @ m - np.eye(d)).max() > ORTHOGONALITY_TOL:
            raise ValueError("matrix is not orthogonal within 1e-12")
        if abs(np.linalg.det(m) - 1.0) > DET_TOL:
            raise ValueError("matrix determinant is not +1 within 1e-12 (improper rotation)")
        object.__setattr__(self, "matrix", m)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


def identity(dimension: int) -> Rotation:
    """The identity rotation in the given dimension."""
    if dimension not in (2, 3):
        raise ValueError(f"dimension must be 2 or 3, got {dimension}")
    return Rotation(np.eye(dimension))


def rotation2(angle: float) -> Rotation:
    """Counterclockwise planar rotation by ``angle`` radians."""
    if not math.isfinite(angle):
        raise ValueError(f"angle must be finite, got {angle}")
    c, s = math.cos(angle), math.sin(angle)
    return Rotation(np.array([[c, -s], [s, c]]))


AXES = {
    "x": np.array([1.0, 0.0, 0.0]),
    "y": np.array([0.0, 1.0, 0.0]),
    "z": np.array([0.0, 0.0, 1.0]),
}

UNIT_AXIS_TOL = 1e-12


def rotation3(axis, angle: float) -> Rotation:
    """Rotation by ``angle`` about a unit ``axis`` ("x"/"y"/"z" or a 3-vector).

    Rodrigues form; the axis must have unit norm within 1e-12 (a zero axis is
    rejected rather than normalized).
    """
    if isinstance(axis, str):
        if axis not in AXES:
            raise ValueError(f"unknown axis name {axis!r}; use 'x', 'y', 'z' or a unit 3-vector")
        a = AXES[axis]
    else:
        a = np.asarray(axis, dtype=float)
        if a.shape != (3,):
            raise ValueError(f"axis must be a 3-vector, got shape {a.shape}")
        with np.errstate(over="ignore"):  # a norm beyond the float range is rejected below
            norm = float(np.linalg.norm(a))
        if abs(norm - 1.0) > UNIT_AXIS_TOL:
            raise ValueError(f"axis norm {norm:.6e} is not 1 within {UNIT_AXIS_TOL:.0e}")
    if not math.isfinite(angle):
        raise ValueError(f"angle must be finite, got {angle}")
    K = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
    m = np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * (K @ K)
    return Rotation(m)
