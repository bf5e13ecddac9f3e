"""Formation maneuvering: tracking a translating, rotating, scaling reference."""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .dynamics import DEFAULT_STEP_FACTOR, SimulationTrace, _gauge_run, _grid_steps, _start_and_grid, require_finite
from .laplacian import NumericFailure, PathStencil, SymmetryLaplacian
from .symgroup import Rotation, identity

# RK4 may not amplify any mode by more than rounding: max |P(-dt μ)| <= 1 + this
RK4_GAIN_TOL = 1e-12

Segment = tuple[float, NDArray[np.float64]]
ScalarSegment = tuple[float, float]
Run = tuple[int, int, "float | NDArray[np.float64]", float]  # (first step, step count, ω, α)


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


@dataclass(frozen=True, eq=False)
class ReferenceState:
    """Reference frame at one instant: origin, attitude, and positive scale."""

    position: NDArray[np.float64]
    rotation: Rotation
    scale: float

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


@dataclass(eq=False)
class ReferencePath:
    """Reference trajectory sampled on the integration grid.

    Inputs are sampled once per step at the left node and held constant, so
    positions are exact piecewise-linear, attitudes exact turns of each
    segment's first attitude, exp(Ω (t - t_lo)) R_lo in Rodrigues' closed form,
    and scales exact exponentials of the sampled rates. ``runs`` cuts the steps
    into runs of constant angular velocity and scale rate, each
    (first step, step count, ω, α), neighbours with equal ω and α merged.
    """

    times: NDArray[np.float64]
    positions: NDArray[np.float64]
    rotations: NDArray[np.float64]
    scales: NDArray[np.float64]
    runs: tuple[Run, ...]
    dt: float


def propagate_reference(
    inputs: ReferenceInputs, start: ReferenceState, dt: float, horizon: float
) -> ReferencePath:
    """Sample the reference frame on the grid of :func:`resolve_grid`, ceil(horizon/dt) steps;
    a grid that :func:`_grid_steps` rejects, a path above ``MAX_TRACE_BYTES`` among them,
    raises ValueError before any array is allocated."""
    if start.dim != inputs.dim:
        raise ValueError(f"start state dimension {start.dim} != inputs dimension {inputs.dim}")
    d = inputs.dim
    # the path's own arrays are 8 floats a row planar (64 bytes) and 14 spatial (112 bytes); the
    # per-step velocities and scale factors are freed before the rotations are allocated, and the
    # attitudes add the angles and one (rows, d, d) product, so the tracemalloc peak
    # is 111 bytes a row planar and 199 spatial (20,001 rows), within the bound's 136 and 208
    steps = _grid_steps(dt, horizon, 8 * (d * d + 4 * d + 5), "reference steps", "the reference path")
    times = np.arange(steps + 1) * dt
    # segment j holds from the first step at or after its start to the first of segment j + 1
    vf, wf, af = (np.searchsorted(times[:-1], [t for t, _ in segs])
                  for segs in (inputs.velocity, inputs.angular, inputs.scale_rate))
    cuts = sorted({lo for lo in (*wf.tolist(), *af.tolist()) if lo < steps})
    runs: list[Run] = []
    for lo, hi, j, i in zip(cuts, cuts[1:] + [steps], np.searchsorted(wf, cuts, side="right") - 1,
                            np.searchsorted(af, cuts, side="right") - 1):
        w, a = inputs.angular[j][1], inputs.scale_rate[i][1]
        if runs and np.array_equal(runs[-1][2], w) and runs[-1][3] == a:
            lo, _, w, a = runs.pop()  # the same inputs continue: one run, with its first values
        runs.append((lo, hi - lo, w, a))

    # sequential accumulations, so every position and scale equals the step-by-step march
    velocities = np.repeat(np.array([v for _, v in inputs.velocity]), np.diff(vf, append=steps), axis=0)
    with np.errstate(over="ignore"):  # an overflowed position fails the run's finiteness check
        positions = np.cumsum(np.vstack([start.position, dt * velocities]), axis=0)
    del velocities
    try:
        growth = [math.exp(a * dt) for *_, a in runs]
    except OverflowError:
        raise NumericFailure(
            f"reference path: exp(scale_rate * dt) overflows at dt = {dt:g}"
        ) from None
    factors = np.concatenate([[start.scale], np.repeat(growth, [count for _, count, *_ in runs])])
    with np.errstate(over="ignore"):  # an overflowed scale fails the run's finiteness check
        scales = np.multiply.accumulate(factors)
    del factors
    rotations = np.empty((steps + 1, d, d))
    rotations[0] = start.rotation.matrix
    for (t, w), lo, count in zip(inputs.angular, wf.tolist(), np.diff(wf, append=steps).tolist()):
        if not count:
            continue
        r, block = rotations[lo], rotations[lo + 1:lo + count + 1]
        with np.errstate(over="ignore"):  # a 3-D norm whose squares overflow is rejected below
            speed = abs(w) if d == 2 else float(np.linalg.norm(w))
        turn = speed * dt
        if not math.isfinite(turn):
            raise ValueError(f"reference path: |omega| * dt overflows for the angular velocity "
                             f"from t = {t:g} at dt = {dt:g}")
        theta = math.remainder(turn, math.tau)  # a turn of at most pi is left as it is
        if theta == 0.0:
            block[:] = r
            continue
        # Rodrigues: exp(j theta K) R_lo = R_lo + sin(j theta) K R_lo + (1 - cos(j theta)) K² R_lo
        k = omega_matrix(w, d) / speed
        angles = np.arange(1, count + 1) * theta
        np.multiply.outer(np.sin(angles), k @ r, out=block)
        block += r
        versines = np.subtract(1.0, np.cos(angles, out=angles), out=angles)  # in place, no third array
        block += np.multiply.outer(versines, k @ (k @ r))
    return ReferencePath(times=times, positions=positions, rotations=rotations, scales=scales,
                         runs=tuple(runs), dt=dt)


@dataclass(eq=False)
class ManeuverTrace(SimulationTrace):
    """Maneuver run: world states plus the reference they track.

    ``edge_errors`` and ``potentials`` are computed on the shifted state
    p - 1⊗r, so they measure formation-shape error, not tracking offset.
    ``zeta_residual`` is :func:`zeta_consistency_residual` for spatial runs,
    None for planar ones.
    """

    ref_positions: NDArray[np.float64] = None
    ref_rotations: NDArray[np.float64] = None
    ref_scales: NDArray[np.float64] = None
    zeta_residual: float | None = None

    def frame(self, rows) -> NDArray[np.float64]:
        """Frame coordinates ζ = (p - 1⊗r) R / s, in that order, at ``rows`` (a slice or index list)."""
        points = self.states[rows].reshape(-1, self.n, self.dim) - self.ref_positions[rows][:, None, :]
        zeta = np.einsum("kni,kij->knj", points, self.ref_rotations[rows])
        zeta /= self.ref_scales[rows][:, None, None]
        return zeta.reshape(-1, self.n * self.dim)


def _rk4_gain(z: NDArray[np.complex128]) -> NDArray[np.float64]:
    """|P(z)| for the RK4 stability polynomial P(z) = 1 + z + z²/2 + z³/6 + z⁴/24."""
    return np.abs(1 + z * (1 + z * (1 / 2 + z * (1 / 6 + z / 24))))


def _segment_operators(lap: SymmetryLaplacian,
                       path: ReferencePath) -> Iterator[tuple[PathStencil | NDArray, int]]:
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
    shifted = [_rotating_eigenvalues(lap, w) + max(-a, 0.0) for _, _, w, a in path.runs]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed gain is rejected below
        gains = [float(np.fmin(_rk4_gain(-dt * mu), math.inf).max()) for mu in shifted]
    worst = int(np.argmax(gains))  # fmin reads a NaN gain, a complex P(z) past the float range, as inf
    if not gains[worst] <= 1 + RK4_GAIN_TOL:
        stiffest = max(float(np.abs(mu).max()) for mu in shifted)
        t = float(path.times[path.runs[worst][0]])
        raise ValueError(
            f"step size {dt:g} is unstable for the maneuver from t = {t:g}: RK4 amplifies "
            f"a mode by max |P(-dt mu)| = {gains[worst]:.3g} > 1 "
            f"(try dt = {DEFAULT_STEP_FACTOR / stiffest:g})"
        )
    return ((_segment_operator(lap, w, a), count) for _, count, w, a in path.runs)


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


def _segment_operator(lap: SymmetryLaplacian, omega, alpha: float) -> PathStencil | NDArray:
    """G = Sᵀ (Q - I⊗Ω - α I) S in gauge coordinates, as a new operator.

    - ω = 0: L - α I, real n x n, acting on each coordinate column;
    - planar ω ≠ 0: L - (α + iω) I, complex n x n, acting on x + iy (Ω commutes
      with every S_i and acts on x + iy as multiplication by iω);
    - spatial ω ≠ 0: L ⊗ I - blockdiag(S_iᵀ Ω S_i) - α I, a dn x dn array.

    The n x n forms are :meth:`SymmetryLaplacian.shifted`: a :class:`PathStencil`
    for C_n less one edge, as every planar tree is, else a dense array.
    """
    n, d = lap.n, lap.dim
    if not np.any(omega):
        return lap.shifted(float(alpha))
    if d == 2:
        return lap.shifted(complex(alpha, float(omega)))
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
    q_i = S_iᵀ c_i (see :func:`_segment_operator`), and the world states
    c + 1⊗r are formed in c's array. Step sizes for which RK4 would amplify
    some mode of Q - I⊗Ω raise ValueError with a suggested dt; a reference
    scale below the smallest normal float, or a run that overflows, its frame
    residual included, raises NumericFailure. The frame coordinates ζ of the
    trace's ``frame`` follow the stationary flow dζ/dt = -Q ζ for planar
    formations. For spatial ones they need not, and the residual of that flow
    is reported, never asserted zero, as the trace's ``zeta_residual``; a
    spatial grid of fewer than three samples, too short for that residual,
    raises ValueError.
    """
    d, n = lap.dim, lap.n
    if start is None:
        start = ReferenceState.at_origin(d)
    if start.dim != d or inputs.dim != d:
        raise ValueError(f"reference dimension does not match the {d}-dimensional formation")
    p0, dt, horizon, steps = _start_and_grid(lap, p0, dt, horizon)
    if d == 3 and steps < 2:
        raise ValueError(
            f"maneuver: the 3-D frame residual needs at least three samples, but horizon "
            f"{horizon:g} at dt {dt:g} gives {steps + 1} (try horizon = {2 * dt:g})"
        )
    path = propagate_reference(inputs, start, dt, horizon)
    subnormal = path.scales < np.finfo(float).tiny  # ζ divides by the scale, which has lost its precision
    if subnormal.any():
        k = int(np.argmax(subnormal))
        raise NumericFailure(f"maneuver: reference_scales is below the smallest normal float from step {k} "
                             f"(t = {float(path.times[k]):g}); the reference underflowed")
    segments = _segment_operators(lap, path)

    # overflow is reported once, by require_finite, instead of as numpy warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        states, errors, potentials, solver = _gauge_run(lap, p0 - np.tile(path.positions[0], n), segments, dt, steps)
        states.reshape(steps + 1, n, d)[:] += path.positions[:, None, :]
        states[0] = p0
    require_finite("maneuver", path.times, reference_positions=path.positions, reference_scales=path.scales,
                   states=states, edge_errors=errors, potentials=potentials)
    trace = ManeuverTrace(
        times=path.times, states=states, edge_errors=errors, potentials=potentials,
        n=n, dim=d, ends=lap.ends, dt=dt, horizon=horizon,
        solver=solver, ref_positions=path.positions, ref_rotations=path.rotations, ref_scales=path.scales,
    )
    if d == 3:  # spatial edge rotations need not commute with the reference attitude
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowed residual is rejected below
            residuals = _zeta_residuals(trace, lap.matrix)
        require_finite("maneuver", path.times, first_step=1, zeta_residual=residuals)
        trace.zeta_residual = float(residuals.max())
    return trace


def _zeta_residuals(trace: ManeuverTrace, q_matrix: NDArray[np.float64]) -> NDArray[np.float64]:
    """||(ζ_{k+1} - ζ_{k-1})/(2 dt) + Q ζ_k|| at the steps k = 1 … steps - 1 of a maneuver trace."""
    z = trace.frame(slice(None))
    if z.shape[0] < 3:
        raise ValueError("need at least three samples for a central difference")
    dt = float(trace.times[1] - trace.times[0])
    dz = (z[2:] - z[:-2]) / (2.0 * dt)
    resid = dz + z[1:-1] @ q_matrix.T
    return np.sqrt((resid ** 2).sum(axis=1))


def zeta_consistency_residual(trace: ManeuverTrace, q_matrix: NDArray[np.float64]) -> float:
    """Central-difference residual of dζ/dt = -Q ζ along a maneuver trace.

    Returns max_k ||(ζ_{k+1} - ζ_{k-1})/(2 dt) + Q ζ_k||. Small (O(dt²)) when
    the frame reduction holds; O(inputs) when it does not, e.g. for spatial
    formations whose edge rotations do not commute with the reference
    attitude. Reported as a diagnostic, never asserted to vanish.
    """
    return float(_zeta_residuals(trace, q_matrix).max())
