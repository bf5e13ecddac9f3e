"""Formation maneuvering: tracking a translating, rotating, scaling reference."""
from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .dynamics import (DEFAULT_STEP_FACTOR, SimulationTrace, _gauge_run, _require_grid_fits, _step_count,
                       edge_residual_norms, require_finite, resolve_grid)
from .laplacian import NumericFailure, SymmetryLaplacian
from .symgroup import Rotation, identity, rotation2, rotation3
from .topology import InteractionGraph, weighted_edges

# RK4 may not amplify any mode by more than rounding: max |P(-dt μ)| <= 1 + this
RK4_GAIN_TOL = 1e-12

Segment = tuple[float, NDArray[np.float64]]
ScalarSegment = tuple[float, float]


def _check_segments(name: str, segs: tuple, width: int | None) -> tuple:
    if not segs:
        raise ValueError(f"{name}: at least one segment is required")
    out = []
    prev = -math.inf
    for (t, value) in segs:
        if not math.isfinite(t):
            raise ValueError(f"{name}: non-finite segment start {t}")
        if t <= prev:
            raise ValueError(f"{name}: segment starts must be strictly increasing")
        prev = t
        if width is None:
            value = float(value)
            if not math.isfinite(value):
                raise ValueError(f"{name}: non-finite value at t={t}")
        else:
            value = np.asarray(value, dtype=float)
            if value.shape != (width,):
                raise ValueError(f"{name}: value at t={t} has shape {value.shape}, expected ({width},)")
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name}: non-finite value at t={t}")
            value.flags.writeable = False
        out.append((float(t), value))
    if out[0][0] > 0:
        raise ValueError(f"{name}: first segment starts at {out[0][0]}, leaving a gap before t=0")
    return tuple(out)


def _segment_value(segs: tuple, t: float):
    idx = bisect_right([s[0] for s in segs], t) - 1
    return segs[max(idx, 0)][1]


@dataclass(frozen=True)
class ReferenceInputs:
    """Piecewise-constant maneuver inputs: linear velocity, angular velocity, scaling rate.

    Each series is a tuple of (start_time, value) segments covering [0, ∞);
    a segment holds until the next one starts. Angular velocity is a scalar
    for d=2 and a 3-vector for d=3.
    """

    dim: int
    velocity: tuple[Segment, ...]
    angular: tuple
    scale_rate: tuple[ScalarSegment, ...]

    def __post_init__(self) -> None:
        if self.dim not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {self.dim}")
        object.__setattr__(self, "velocity", _check_segments("velocity", tuple(self.velocity), self.dim))
        omega_width = None if self.dim == 2 else 3
        object.__setattr__(self, "angular", _check_segments("angular", tuple(self.angular), omega_width))
        object.__setattr__(self, "scale_rate", _check_segments("scale_rate", tuple(self.scale_rate), None))

    @classmethod
    def constant(cls, velocity, omega, scale_rate: float, dim: int = 2) -> ReferenceInputs:
        return cls(dim=dim, velocity=((0.0, np.asarray(velocity, dtype=float)),),
                   angular=((0.0, omega),), scale_rate=((0.0, float(scale_rate)),))

    @classmethod
    def stationary(cls, dim: int = 2) -> ReferenceInputs:
        omega = 0.0 if dim == 2 else np.zeros(3)
        return cls.constant(np.zeros(dim), omega, 0.0, dim=dim)

    def velocity_at(self, t: float) -> NDArray[np.float64]:
        return _segment_value(self.velocity, t)

    def omega_at(self, t: float):
        return _segment_value(self.angular, t)

    def scale_rate_at(self, t: float) -> float:
        return _segment_value(self.scale_rate, t)


@dataclass(frozen=True, eq=False)
class ReferenceState:
    """Reference frame at one instant: origin, attitude, and positive scale."""

    position: NDArray[np.float64]
    rotation: Rotation
    scale: float
    time: float = 0.0

    def __post_init__(self) -> None:
        pos = np.ascontiguousarray(self.position, dtype=float)
        if pos.shape != (self.rotation.dimension,):
            raise ValueError(f"position shape {pos.shape} does not match rotation dimension {self.rotation.dimension}")
        pos.flags.writeable = False
        object.__setattr__(self, "position", pos)
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")

    @classmethod
    def at_origin(cls, dim: int = 2) -> ReferenceState:
        return cls(position=np.zeros(dim), rotation=identity(dim), scale=1.0)

    @property
    def dim(self) -> int:
        return self.rotation.dimension


def omega_matrix(omega, dim: int) -> NDArray[np.float64]:
    """Skew generator of the attitude dynamics (scalar for d=2, 3-vector for d=3)."""
    if dim == 2:
        w = float(omega)
        return np.array([[0.0, -w], [w, 0.0]])
    wx, wy, wz = np.asarray(omega, dtype=float)
    return np.array([[0.0, -wz, wy], [wz, 0.0, -wx], [-wy, wx, 0.0]])


def _rotation_step(omega, dim: int, dt: float) -> NDArray[np.float64]:
    """Exact attitude increment exp(Ω dt) for one step of constant omega."""
    if dim == 2:
        return rotation2(float(omega) * dt).matrix
    w = np.asarray(omega, dtype=float)
    angle = float(np.linalg.norm(w)) * dt
    if angle == 0.0:
        return np.eye(3)
    return rotation3(w / np.linalg.norm(w), angle).matrix


@dataclass(eq=False)
class ReferencePath:
    """Reference trajectory sampled on the integration grid.

    Inputs are sampled once per step at the left node and held constant, so
    positions are exact piecewise-linear, attitudes exact rotation products,
    and scales exact exponentials of the sampled rates.
    """

    times: NDArray[np.float64]
    positions: NDArray[np.float64]
    rotations: NDArray[np.float64]
    scales: NDArray[np.float64]
    step_velocities: NDArray[np.float64]
    step_omegas: NDArray[np.float64]
    step_scale_rates: NDArray[np.float64]
    dim: int
    dt: float

    def state_at(self, k: int) -> ReferenceState:
        return ReferenceState(
            position=self.positions[k],
            rotation=Rotation(self.rotations[k]),
            scale=float(self.scales[k]),
            time=float(self.times[k]),
        )


def _step_indices(segs: tuple, times: NDArray[np.float64]) -> NDArray[np.intp]:
    """Index of the segment holding at each time (the vector form of _segment_value)."""
    starts = np.array([t for t, _ in segs])
    return np.maximum(np.searchsorted(starts, times, side="right") - 1, 0)


def propagate_reference(
    inputs: ReferenceInputs, start: ReferenceState, dt: float, horizon: float
) -> ReferencePath:
    """March the reference frame over the grid of :func:`resolve_grid`, ceil(horizon/dt) steps;
    a step count that overflows, or a path above ``MAX_TRACE_BYTES``, raises ValueError
    before any array is allocated."""
    if start.dim != inputs.dim:
        raise ValueError(f"start state dimension {start.dim} != inputs dimension {inputs.dim}")
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError(f"step size must be positive and finite, got {dt}")
    if not (horizon > 0 and math.isfinite(horizon)):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    d = inputs.dim
    steps = _step_count(dt, horizon)
    if steps == math.inf:
        raise ValueError(f"horizon {horizon:g} / step size {dt:g} overflows the step count")
    # the tracemalloc peak per row is 17 floats planar (136 bytes), 26 spatial (208 bytes):
    # the path's arrays, the per-step inputs and the lists that index them
    _require_grid_fits(steps, dt, 8 * (d * d + 4 * d + 5), "reference steps", "the reference path")
    times = np.arange(steps + 1) * dt
    iv, iw, ia = (_step_indices(segs, times[:-1])
                  for segs in (inputs.velocity, inputs.angular, inputs.scale_rate))
    vks = np.array([v for _, v in inputs.velocity])[iv]
    wks = np.array([w for _, w in inputs.angular])[iw]
    aks = np.array([a for _, a in inputs.scale_rate])[ia]

    # sequential accumulations, so every row equals the step-by-step march
    positions = np.cumsum(np.vstack([start.position, dt * vks]), axis=0)
    try:
        growth = {j: math.exp(inputs.scale_rate[j][1] * dt) for j in set(ia.tolist())}
    except OverflowError:
        raise NumericFailure(
            f"reference path: exp(scale_rate * dt) overflows at dt = {dt:g}"
        ) from None
    factors = np.array([start.scale] + [growth[j] for j in ia.tolist()])
    with np.errstate(over="ignore"):  # an overflowed scale fails the run's finiteness check
        scales = np.multiply.accumulate(factors)
    turns = {j: _rotation_step(inputs.angular[j][1], d, dt) for j in set(iw.tolist())}
    rotations = np.empty((steps + 1, d, d))
    rotations[0] = start.rotation.matrix
    for k, j in enumerate(iw.tolist()):
        rotations[k + 1] = turns[j] @ rotations[k]
    return ReferencePath(
        times=times, positions=positions, rotations=rotations, scales=scales,
        step_velocities=vks, step_omegas=wks, step_scale_rates=aks, dim=d, dt=dt,
    )


def moving_frame(p: NDArray[np.float64], ref: ReferenceState) -> NDArray[np.float64]:
    """Express a configuration in the reference frame: unscale, unrotate, recenter."""
    p = np.asarray(p, dtype=float)
    d = ref.dim
    n = p.size // d
    pts = p.reshape(n, d) - ref.position
    return ((pts @ ref.rotation.matrix) / ref.scale).ravel()


def frame_to_world(zeta: NDArray[np.float64], ref: ReferenceState) -> NDArray[np.float64]:
    """Inverse of :func:`moving_frame`."""
    zeta = np.asarray(zeta, dtype=float)
    d = ref.dim
    n = zeta.size // d
    pts = (zeta.reshape(n, d) * ref.scale) @ ref.rotation.matrix.T + ref.position
    return pts.ravel()


def maneuver_control(
    p: NDArray[np.float64],
    q_matrix: NDArray[np.float64] | SymmetryLaplacian,
    ref: ReferenceState,
    velocity,
    omega,
    scale_rate: float,
) -> NDArray[np.float64]:
    """Tracking control: gradient descent on the shifted state plus feed-forward.

    u = -Q(p - 1⊗r) + 1⊗v + (I⊗Ω + α I)(p - 1⊗r); with zero inputs this is
    the stationary gradient flow.
    """
    q = np.asarray(getattr(q_matrix, "matrix", q_matrix), dtype=float)
    p = np.asarray(p, dtype=float)
    d = ref.dim
    n = p.size // d
    v = np.asarray(velocity, dtype=float)
    # operation order fixed so zero inputs reduce bitwise to -Q p
    c = p - np.tile(ref.position, n)
    blocks = c.reshape(n, d)
    rotation = (blocks @ omega_matrix(omega, d).T).ravel()
    return -(q @ c) + np.tile(v, n) + rotation + float(scale_rate) * c


@dataclass(eq=False)
class ManeuverTrace(SimulationTrace):
    """Maneuver run: world states plus the reference and the frame coordinates.

    ``edge_errors`` and ``potentials`` are computed on the shifted state
    p - 1⊗r, so they measure formation-shape error, not tracking offset.
    ``zeta_residual`` is :func:`zeta_consistency_residual` for spatial runs,
    None for planar ones.
    """

    ref_positions: NDArray[np.float64] = None
    ref_rotations: NDArray[np.float64] = None
    ref_scales: NDArray[np.float64] = None
    zeta: NDArray[np.float64] = None
    zeta_residual: float | None = None


def _rk4_gain(z: NDArray[np.complex128]) -> NDArray[np.float64]:
    """|P(z)| for the RK4 stability polynomial P(z) = 1 + z + z²/2 + z³/6 + z⁴/24."""
    return np.abs(1 + z * (1 + z * (1 / 2 + z * (1 / 6 + z / 24))))


def _segment_operators(lap: SymmetryLaplacian, path: ReferencePath) -> Iterator[tuple[NDArray, int]]:
    """(G, step_count) for each run of steps with constant (ω, α), checked for RK4 stability.

    On such a run the shifted state c = p - 1⊗r obeys dc/dt = -(Q - I⊗Ω - α I) c,
    and its gauge rows q_i = S_iᵀ c_i obey dq/dt = -G q with G from
    :func:`_segment_operator`. Raises ValueError, with a suggested dt, when RK4
    would amplify a mode: |P(-dt μ)| > 1 for an eigenvalue μ of Q - I⊗Ω,
    shifted by -α when the frame shrinks. A growing frame (α > 0) is the
    commanded growth and is left out of the test. All runs are checked first;
    the returned iterator then forms each G only when it is reached.
    """
    dt = path.dt
    w = path.step_omegas.reshape(len(path.step_scale_rates), -1)
    a = path.step_scale_rates
    cuts = np.flatnonzero((w[1:] != w[:-1]).any(axis=1) | (a[1:] != a[:-1])) + 1
    starts = np.concatenate([[0], cuts]).tolist()
    ends = starts[1:] + [a.size]
    rotating: dict[tuple, NDArray] = {}  # eigenvalues of Q - I⊗Ω per distinct angular velocity
    runs = []
    for lo, hi in zip(starts, ends):
        key = tuple(w[lo].tolist())
        if key not in rotating:
            rotating[key] = _rotating_eigenvalues(lap, path.step_omegas[lo])
        runs.append((lo, hi, rotating[key] + max(-float(a[lo]), 0.0)))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed gain is rejected below
        gains = [float(_rk4_gain(-dt * mu).max()) for *_, mu in runs]
    worst = int(np.argmax(gains))  # the first NaN, if any
    if not gains[worst] <= 1 + RK4_GAIN_TOL:
        stiffest = max(float(np.abs(mu).max()) for *_, mu in runs)
        t = float(path.times[runs[worst][0]])
        raise ValueError(
            f"step size {dt:g} is unstable for the maneuver from t = {t:g}: RK4 amplifies "
            f"a mode by max |P(-dt mu)| = {gains[worst]:.3g} > 1 "
            f"(try dt = {DEFAULT_STEP_FACTOR / stiffest:g})"
        )
    return ((_segment_operator(lap, path.step_omegas[lo], float(a[lo])), hi - lo) for lo, hi, _ in runs)


def _rotating_eigenvalues(lap: SymmetryLaplacian, omega) -> NDArray:
    """Eigenvalues of Q - I⊗Ω, up to complex conjugation, which leaves every |P(-dt μ)| as it is.

    A planar Ω commutes with every chain rotation S_i of Q = S (L ⊗ I) Sᵀ, so
    they are λ ± iω for the eigenvalues λ of the tree spectrum; in 3-D those
    of the gauge-frame G, which is similar to Q - I⊗Ω.
    """
    spec = lap.spectrum
    if lap.dim == 2:
        return spec.eigenvalues + 1j * float(omega)
    if not np.any(omega):
        return spec.eigenvalues
    return np.linalg.eigvals(_segment_operator(lap, omega, 0.0))


def _segment_operator(lap: SymmetryLaplacian, omega, alpha: float) -> NDArray:
    """G = Sᵀ (Q - I⊗Ω - α I) S in gauge coordinates, as a new array.

    - ω = 0: L - α I, real n x n, acting on each coordinate column;
    - planar ω ≠ 0: L - (α + iω) I, complex n x n, acting on x + iy (Ω commutes
      with every S_i and acts on x + iy as multiplication by iω);
    - spatial ω ≠ 0: L ⊗ I - blockdiag(S_iᵀ Ω S_i) - α I, dn x dn.
    """
    n, d = lap.n, lap.dim
    if not np.any(omega):
        g = lap.scalar.copy()
        g.flat[::n + 1] -= alpha
        return g
    if d == 2:
        g = lap.scalar.astype(complex)
        g.flat[::n + 1] -= complex(alpha, float(omega))
        return g
    blocks = lap.chain.reshape(n, d, d)
    g = np.kron(lap.scalar, np.eye(d))
    g.reshape(n, d, n, d)[np.arange(n), :, np.arange(n), :] -= (
        blocks.transpose(0, 2, 1) @ omega_matrix(omega, d) @ blocks)
    g.flat[::g.shape[0] + 1] -= alpha
    return g


def simulate_maneuver(
    lap: SymmetryLaplacian,
    p0: NDArray[np.float64],
    inputs: ReferenceInputs,
    start: ReferenceState | None = None,
    dt: float | None = None,
    horizon: float | None = None,
) -> ManeuverTrace:
    """Integrate the maneuver control law alongside its reference trajectory.

    The reference and the agents share one grid; each RK4 step holds the
    inputs sampled at its left node. Over a run of constant inputs the
    shifted state c = p - 1⊗r follows the linear flow
    dc/dt = -(Q - I⊗Ω - α I) c, which is integrated in gauge coordinates
    q_i = S_iᵀ c_i (see :func:`_segment_operator`); ζ is taken from c, and
    the world states c + 1⊗r are formed in c's array. Step sizes for which
    RK4 would amplify some mode of Q - I⊗Ω raise ValueError with a suggested
    dt, and a run that overflows raises NumericFailure. The returned trace
    carries the frame coordinates ζ, which for planar formations follow the
    stationary flow dζ/dt = -Q ζ. For spatial formations they need not, and
    the residual of that flow is reported, never asserted zero, as the
    trace's ``zeta_residual``; a spatial grid of fewer than
    three samples, too short for that residual, raises ValueError.
    """
    d, n = lap.dim, lap.n
    if start is None:
        start = ReferenceState.at_origin(d)
    if start.dim != d or inputs.dim != d:
        raise ValueError(f"reference dimension does not match the {d}-dimensional formation")
    p0 = np.array(p0, dtype=float)
    if p0.shape != (n * d,):
        raise ValueError(f"initial state has shape {p0.shape}, expected ({n * d},)")
    spec = lap.spectrum
    dt, horizon, steps = resolve_grid(spec, dt, horizon)
    if d == 3 and steps < 2:
        raise ValueError(
            f"maneuver: the 3-D frame residual needs at least three samples, but horizon "
            f"{horizon:g} at dt {dt:g} gives {steps + 1} (try horizon = {2 * dt:g})"
        )
    path = propagate_reference(inputs, start, dt, horizon)
    segments = _segment_operators(lap, path)

    # overflow is reported once, by require_finite, instead of as numpy warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        states, errors, potentials = _gauge_run(lap, p0 - np.tile(path.positions[0], n), segments, dt, steps)
        points = states.reshape(steps + 1, n, d)
        zeta = np.einsum("kni,kij->knj", points, path.rotations)
        zeta /= path.scales[:, None, None]
        zeta = zeta.reshape(steps + 1, n * d)
        points += path.positions[:, None, :]
        states[0] = p0
    require_finite("maneuver", path.times, reference_scales=path.scales, states=states,
                   edge_errors=errors, potentials=potentials, zeta=zeta)
    trace = ManeuverTrace(
        times=path.times, states=states, edge_errors=errors, potentials=potentials,
        n=n, dim=d, edge_index=lap.edge_index, dt=dt, horizon=horizon,
        ref_positions=path.positions, ref_rotations=path.rotations,
        ref_scales=path.scales, zeta=zeta,
    )
    if d == 3:  # spatial edge rotations need not commute with the reference attitude
        trace.zeta_residual = zeta_consistency_residual(trace, lap.matrix)
    return trace


def shifted_errors(p: NDArray[np.float64], ref: ReferenceState, graph: InteractionGraph) -> NDArray[np.float64]:
    """Per-edge constraint violations of the recentered configuration."""
    p = np.asarray(p, dtype=float)
    n = graph.n
    shifted = p - np.tile(ref.position, n)
    return edge_residual_norms(shifted, weighted_edges(graph), 2)


def zeta_consistency_residual(trace: ManeuverTrace, q_matrix: NDArray[np.float64]) -> float:
    """Central-difference residual of dζ/dt = -Q ζ along a maneuver trace.

    Returns max_k ||(ζ_{k+1} - ζ_{k-1})/(2 dt) + Q ζ_k||. Small (O(dt²)) when
    the frame reduction holds; O(inputs) when it does not, e.g. for spatial
    formations whose edge rotations do not commute with the reference
    attitude. Reported as a diagnostic, never asserted to vanish.
    """
    z = trace.zeta
    if z.shape[0] < 3:
        raise ValueError("need at least three samples for a central difference")
    dt = float(trace.times[1] - trace.times[0])
    dz = (z[2:] - z[:-2]) / (2.0 * dt)
    resid = dz + z[1:-1] @ q_matrix.T
    return float(np.sqrt((resid ** 2).sum(axis=1)).max())
