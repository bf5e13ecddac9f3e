"""Rotation elements and cyclic-group automorphisms used as edge constraints."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    """A proper rotation matrix in dimension 2 or 3.

    ``angle`` (and ``axis`` for 3-D) are kept as metadata when the rotation
    was built from an angle; composed products may drop them.
    """

    matrix: NDArray[np.float64]
    angle: float | None = None
    axis: NDArray[np.float64] | None = field(default=None)

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
        if self.axis is not None:
            object.__setattr__(self, "axis", _freeze(np.asarray(self.axis, dtype=float)))

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def apply(self, x: NDArray[np.float64]) -> NDArray[np.float64]:
        """Rotate a point (or a stack of points in rows)."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dimension:
            raise ValueError(f"point dimension {x.shape[-1]} != rotation dimension {self.dimension}")
        return x @ self.matrix.T

    def compose(self, other: Rotation) -> Rotation:
        """Return self∘other (apply ``other`` first)."""
        if other.dimension != self.dimension:
            raise ValueError("cannot compose rotations of different dimensions")
        angle = None
        if self.dimension == 2 and self.angle is not None and other.angle is not None:
            angle = self.angle + other.angle
        return Rotation(self.matrix @ other.matrix, angle=angle)

    def inverse(self) -> Rotation:
        angle = None if self.angle is None else -self.angle
        return Rotation(self.matrix.T, angle=angle, axis=self.axis)

    def is_identity(self, tol: float = 1e-12) -> bool:
        return bool(np.abs(self.matrix - np.eye(self.dimension)).max() <= tol)


def identity(dimension: int) -> Rotation:
    """The identity rotation in the given dimension."""
    if dimension not in (2, 3):
        raise ValueError(f"dimension must be 2 or 3, got {dimension}")
    return Rotation(np.eye(dimension), angle=0.0)


def rotation2(angle: float) -> Rotation:
    """Counterclockwise planar rotation by ``angle`` radians."""
    if not math.isfinite(angle):
        raise ValueError(f"angle must be finite, got {angle}")
    c, s = math.cos(angle), math.sin(angle)
    return Rotation(np.array([[c, -s], [s, c]]), angle=angle)


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
        norm = float(np.linalg.norm(a))
        if abs(norm - 1.0) > UNIT_AXIS_TOL:
            raise ValueError(f"axis norm {norm:.6e} is not 1 within {UNIT_AXIS_TOL:.0e}")
    if not math.isfinite(angle):
        raise ValueError(f"angle must be finite, got {angle}")
    K = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
    m = np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * (K @ K)
    return Rotation(m, angle=angle, axis=a)


@dataclass(frozen=True)
class CyclicAutomorphism:
    """A rotational automorphism of the cycle graph C_n: vertex i maps to i+shift (1-based, mod n)."""

    n: int
    shift: int

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError(f"cycle graphs need n >= 3 nodes, got n={self.n}")
        object.__setattr__(self, "shift", self.shift % self.n)

    def apply(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ValueError(f"vertex {i} outside 1..{self.n}")
        return (i - 1 + self.shift) % self.n + 1

    def compose(self, other: CyclicAutomorphism) -> CyclicAutomorphism:
        if other.n != self.n:
            raise ValueError("cannot compose automorphisms of different cycles")
        return CyclicAutomorphism(self.n, self.shift + other.shift)

    def inverse(self) -> CyclicAutomorphism:
        return CyclicAutomorphism(self.n, -self.shift)

    @property
    def is_identity(self) -> bool:
        return self.shift == 0

    @property
    def rotation(self) -> Rotation:
        """The planar rotation R(shift·2π/n) this automorphism is assigned: inverses map to
        transposes and compositions to products."""
        return rotation2(self.shift * (math.tau / self.n))
