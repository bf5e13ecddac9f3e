"""Gradient-flow dynamics toward symmetry-compatible formations."""
from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

import numpy as np
from numpy.typing import NDArray

from .laplacian import NumericFailure, PathStencil, Spectrum, SymmetryLaplacian

UNDERFLOW_FLOOR = 1e-14  # error magnitudes below this are float noise
# Rate fits stop two decades above the noise: below 1e-12 the total error of a
# converged run carries rounding, and the fitted slope follows its last bits.
FIT_FLOOR = 100 * UNDERFLOW_FLOOR
# A fitted rate is the slowest mode's only once that mode has decayed: below
# horizon · λ⁺_min = 1 it has fallen by less than a factor e over the run, and the
# slope of the total error follows the faster modes.
RATE_FIT_MIN_DECAY = 1.0

DEFAULT_STEP_FACTOR = 0.5     # dt = 0.5 / lambda_max
DEFAULT_HORIZON_FACTOR = 40.0  # T = 40 / lambda_min_pos
STABILITY_LIMIT = 2.0          # RK4 real-axis stability edge is ~2.785; stay under 2
MAX_TRACE_BYTES = 512 * 2**20  # largest estimated memory of a run's trace and its output
# Estimated bytes per trace row: the float64 trace arrays (states, residuals,
# errors) and what writing the run's files adds to them (the CSVs are streamed a
# block at a time, so only the SVGs' pixel arrays grow with the rows). The
# tracemalloc peaks of long runs through write_outputs (one BLAS thread), less the
# fixed bytes per row, lie at 16-37 bytes per coordinate per row: planar n = 16 on
# the default grid and n = 64 to t = 1500, maneuver_c6, the cube preset, a planar
# n = 32 maneuver and, at the top, a 12,001-row cube maneuver, which peaks in the run.
TRACE_ROW_BYTES_PER_COORD = 48
TRACE_ROW_BYTES_FIXED = 256
MAX_BUILD_BYTES = 512 * 2**20  # largest estimated memory of a formation's build
# Estimated bytes a node of a run holds, whatever its steps: the tree, its chain and
# spectrum, the start, a trace of two rows and the files written from it. The
# tracemalloc peaks of planar runs of one step through write_outputs grow by 1,038 bytes
# a node from n = 64,000 (63.1 MiB) to n = 256,000 (253.3 MiB), and lie at 1,035-1,054
# bytes a node from n = 4,000 up; at n = 1,000 they are 1.4 MiB. The bound keeps the
# 1,400 it was set to when they grew by 1,394 bytes a node, so the size messages stay.
# A planar run whose segments take the stencil path forms no n x n array.
RUN_BYTES_PER_NODE = 1400
# Estimated dn x dn float64 arrays held while ``sweep`` builds and checks a formation:
# Q, E (half of dn x dn), the gauge matrix and E Eᵀ; a planar n = 300 sweep peaks at 3.5.
BUILD_DENSE_MATRICES = 5
# ``verify`` holds the same arrays while a dense eigh of Q adds its copy, workspace and
# eigenvectors: under tracemalloc on one BLAS thread a planar n = 1448, the largest that
# fits, peaks at 6.2 dn x dn arrays. The check's gauge rows (about 400 of dn coordinates)
# and the block path's m x m products weigh more at small n: a planar n = 300 verify
# peaks at 7.5 (7.8 as a process's first command).
VERIFY_DENSE_MATRICES = 8
POWER_STACK_CAP = 256  # most RK4 steps propagate_linear writes with one matrix product
# One rule picks each segment's path (segment_path): an array G takes the block path, and so
# does a PathStencil of ``count`` steps on ``columns`` state columns unless
# count · STENCIL_STEP_MULADDS < (B + 2) · m³ · p² + count · m² · columns · p² (_block_muladds:
# the real multiply-adds of the block path's m x m products that form D and its stack, and of
# its products with the state rows; B = block_size, p = 2 for a complex G, 1 for a real one);
# then it takes rk4_step on its slices. The constant is the block path's multiply-adds
# that cost as much as one stencil step. scripts/solver_costs.py times both paths over
# m = 4 … 1200, 1 … 4,000 steps, float64 on 1 to 3 columns and complex128 on 1 (median of 7,
# one BLAS thread, 2-vCPU 2.0 GHz Xeon), and fits the constant: the middle, on a log scale,
# of the widest interval that picks the fastest path in the most cells. BENCH_scaling.json
# ("solver_paths") records the table, each path's time, the rule's pick and the constant, and
# a test keeps the two equal. The table holds 420 cells (none of more than one step and 4e8
# real multiply-adds of G y); any constant in [5.76e5, 5.94e5) picks the fastest path in 406.
# Every segment that a benchmark workload, preset, verify or snapshot run forms keeps its path
# for any constant in [3.83e5, 1.08e6): planar n = 300, 400 steps on 2 columns, block path
# (B = 1), sets the bottom, a complex n = 300 run of 600 steps on the stencil the top. Planar
# n = 450, 4,000 steps on 2 columns, where the block path (B = 8) takes 3.6 times the
# stencil's time, lowers the top to 6.33e5. The rule's worst pick, 2.1 times the fastest, is
# a real G on one column at m = 400, 1,000 steps, a shape no run forms.
STENCIL_STEP_MULADDS = 5.85e5


@dataclass(eq=False)
class SimulationTrace:
    """Sampled gradient-flow run on the grid of :func:`resolve_grid` (``steps`` + 1 times
    k·dt): states, per-edge errors, and the potential."""

    times: NDArray[np.float64]
    states: NDArray[np.float64]
    edge_errors: NDArray[np.float64]
    potentials: NDArray[np.float64]
    n: int
    dim: int
    ends: NDArray[np.intp]  # the 0-based (u, v) of each edge, in the order of edge_errors' columns
    dt: float
    horizon: float
    solver: tuple[SegmentPath, ...] = ()  # the path of each propagate_linear segment

    @property
    def steps(self) -> int:
        return self.times.size - 1

    @property
    def total_errors(self) -> NDArray[np.float64]:
        """Norm of the stacked residual vector per step."""
        return np.sqrt((self.edge_errors ** 2).sum(axis=1))

    @property
    def final_state(self) -> NDArray[np.float64]:
        return self.states[-1]

    def frame(self, rows) -> NDArray[np.float64]:  # a stationary run's frame is the world's
        return self.states[rows]


def rk4_step(
    f: Callable[[float, NDArray[np.float64]], NDArray[np.float64]],
    t: float,
    y: NDArray[np.float64],
    h: float,
) -> NDArray[np.float64]:
    """One classical fixed-step RK4 update of a general field: the stencil path's step, and
    the tests' reference stepper."""
    k1 = f(t, y)
    k2 = f(t + h / 2, y + (h / 2) * k1)
    k3 = f(t + h / 2, y + (h / 2) * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


def require_build_fits(n: int, dim: int, matrices: int) -> None:
    """Raise ValueError, naming the largest n that fits, when ``matrices`` dense dn x dn
    arrays of an n-agent formation in R^dim would exceed ``MAX_BUILD_BYTES``, before any
    is built."""
    dn = dim * n
    _require_fits(n, matrices * dn * dn * 8, f"its dense {reprlib.repr(dn)}x{reprlib.repr(dn)} matrices",
                  math.isqrt(MAX_BUILD_BYTES // (matrices * 8)) // dim)


def require_run_fits(n: int) -> None:
    """Raise ValueError, naming the largest n that fits, when a run of n agents would hold
    more than ``MAX_BUILD_BYTES`` at ``RUN_BYTES_PER_NODE``, before its tree is built."""
    _require_fits(n, RUN_BYTES_PER_NODE * n, "a run", MAX_BUILD_BYTES // RUN_BYTES_PER_NODE)


def _require_fits(n: int, need: int, holding: str, fit: int) -> None:
    if need > MAX_BUILD_BYTES:
        mib = need / 2**20 if need < 2**1000 else math.inf  # inf beyond a float
        raise ValueError(
            f"n = {reprlib.repr(n)} needs about {mib:.4g} MiB for {holding}, "
            f"above the {MAX_BUILD_BYTES / 2**20:g} MiB bound (the largest n that fits is {fit})"
        )


def resolve_grid(
    spec: Spectrum, dt: float | None, horizon: float | None
) -> tuple[float, float, int]:
    """Default/validated (dt, horizon, steps) for a flow with this spectrum: a dt that
    is not stable for its stiffest mode raises ValueError, and so does every grid that
    :func:`_grid_steps` rejects, before the run's trace is allocated."""
    lam_max = spec.lambda_max
    if dt is None:
        dt = DEFAULT_STEP_FACTOR / lam_max if lam_max > 0 else 0.1
    # a dt that is not positive and finite is rejected by _grid_steps, not as unstable
    if lam_max > 0 and dt * lam_max >= STABILITY_LIMIT and dt < math.inf:
        raise ValueError(
            f"step size {dt:g} is unstable for the stiffest mode {lam_max:g} "
            f"(need dt < {STABILITY_LIMIT / lam_max:g}; try dt = {DEFAULT_STEP_FACTOR / lam_max:g})"
        )
    if horizon is None:
        rate = spec.lambda_min_pos
        horizon = DEFAULT_HORIZON_FACTOR / rate if rate else 10.0
    dn = spec.eigenvalues.size
    steps = _grid_steps(dt, horizon, TRACE_ROW_BYTES_PER_COORD * dn + TRACE_ROW_BYTES_FIXED,
                        f"steps of {dn} coordinates", "the trace and its output")
    return dt, horizon, steps


def _grid_steps(dt: float, horizon: float, row_bytes: int, rows: str, holding: str) -> int:
    """The step count max(1, ceil(horizon / dt - 1e-12)) of a grid (less 1e-12, so an exact
    multiple takes no extra step). Raises ValueError when dt or horizon is not positive and
    finite, and, with a horizon that would fit, when the count overflows or its steps + 1
    rows of ``row_bytes`` each would exceed ``MAX_TRACE_BYTES``; ``rows`` and ``holding``
    name the steps and their arrays in the message, which no value makes raise otherwise."""
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError(f"step size must be positive and finite, got {dt}")
    if not (horizon > 0 and math.isfinite(horizon)):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    span = horizon / dt - 1e-12
    steps = max(1, math.ceil(span)) if span < math.inf else math.inf
    if (steps + 1) * row_bytes > MAX_TRACE_BYTES:
        fit = max(1, MAX_TRACE_BYTES // row_bytes - 1) * dt
        unit = 10.0 ** (math.floor(math.log10(fit)) - 2)
        if unit:  # below 1e-321 the unit underflows, and fit prints to three digits as it is
            fit = math.floor(fit / unit) * unit  # three significant digits, rounded down
        grid = (f"{steps:.3g} {rows} need about {(steps + 1) * (row_bytes / 2**20):.4g} MiB"
                if steps < math.inf else f"horizon {horizon:g} / step size {dt:g} overflows the step count")
        raise ValueError(f"{grid} for {holding}, above the {MAX_TRACE_BYTES / 2**20:g} MiB bound "
                         f"(try horizon = {fit:.3g})")
    return steps


def _rk4_increment(g: NDArray[np.float64], dt: float) -> NDArray[np.float64]:
    """D = P - I = H + H²/2 + H³/6 + H⁴/24 for the RK4 step matrix P of dc/dt = -G c, H = -dt G.

    Kept apart from I so that its rounding scales with dt G, not with 1."""
    m = g.shape[0]
    h = -dt * g
    del g  # a G formed for this call is freed before D is
    d = h / 24
    for coefficient in (1 / 6, 1 / 2, 1.0):
        d.flat[::m + 1] += coefficient
        d = h @ d
    return d


def _power_steps(out: NDArray, k: int, count: int, d: NDArray, block: int) -> None:
    """Write rows k+1 … k+count of ``out`` as out[j+1] = out[j] + D out[j], D = P - I.

    ``block`` rows go per matrix product with the stack D_1 … D_block, D_j = P^j - I,
    built by doubling (D_(i+j) = D_i D_j + D_i + D_j); the rest go one row at a time."""
    m = d.shape[0]
    stack = np.empty((block, m, m), dtype=d.dtype)
    stack[0] = d
    del d  # the stack holds D from here
    have = 1
    while have < block:
        more = min(have, block - have)
        new = stack[have:have + more]
        np.matmul(stack[:more], stack[have - 1], out=new)
        new += stack[:more]
        new += stack[have - 1]
        have += more
    stack = stack.reshape(block * m, m)
    end = k + count
    while end - k >= block:
        out[k + 1:k + block + 1] = (stack @ out[k]).reshape(block, *out.shape[1:]) + out[k]
        k += block
    for k in range(k, end):
        out[k + 1] = out[k] + stack[:m] @ out[k]


def _stage_steps(out: NDArray, k: int, count: int, g: PathStencil, dt: float) -> None:
    """Write rows k+1 … k+count of ``out`` by :func:`rk4_step` on the field -G y, G y = ``g @ y``
    by the stencil's slices."""
    def field(t: float, y: NDArray) -> NDArray:
        return -(g @ y)

    for row in range(k + 1, k + count + 1):
        out[row] = rk4_step(field, 0.0, out[row - 1], dt)


class SegmentPath(NamedTuple):
    """The path :func:`propagate_linear` takes for one segment of ``steps`` RK4 steps:
    ``"block"`` with ``block`` = B steps per matrix product, or, for a PathStencil,
    :func:`rk4_step` on its slices (``"stencil"``), ``block`` 0."""

    path: str
    block: int
    steps: int


def block_size(m: int, count: int) -> int:
    """B of the block path for ``count`` steps of an m x m G: min(``POWER_STACK_CAP``, count // m),
    at least 1, so that the stack is never larger than the segment's rows."""
    return min(POWER_STACK_CAP, max(1, count // m))


def _block_muladds(m: int, count: int, columns: int, dtype: np.dtype) -> int:
    """(B + 2) · m³ · p² + count · m² · columns · p²: the real multiply-adds of the block
    path's m x m products that form D and its stack, and of its products with ``columns``
    state columns, for ``count`` steps of an m x m G of ``dtype`` (p float64 parts an entry)."""
    parts = dtype.itemsize // 8
    return ((block_size(m, count) + 2) * m + count * columns) * m * m * parts * parts


def segment_path(g: NDArray | PathStencil, count: int, columns: int) -> SegmentPath:
    """The path of ``count`` RK4 steps of G on ``columns`` state columns (the last axis of
    :func:`_rows`): :func:`rk4_step` on the slices of a PathStencil whose
    :func:`_block_muladds` exceed count · ``STENCIL_STEP_MULADDS``, else the block path. It
    reads only G's kind, size and dtype."""
    m = g.shape[0]
    if isinstance(g, PathStencil) and count * STENCIL_STEP_MULADDS < _block_muladds(m, count, columns, g.dtype):
        return SegmentPath("stencil", 0, count)
    return SegmentPath("block", block_size(m, count), count)


def _rows(out: NDArray[np.float64], g: NDArray | PathStencil) -> NDArray:
    """``out`` (steps + 1, size) as (steps + 1, m, size / m) rows for an m x m G acting on
    axis 1, taken from the complex128 view (planar points x + iy) when G is complex. A
    real n x n G so acts on each of the d columns of (n, d) rows, a dn x dn G on one."""
    m = g.shape[0]
    complex_rows = np.iscomplexobj(g)
    if out.shape[1] % (2 * m if complex_rows else m):
        raise ValueError(f"a {m} x {m} operator does not act on rows of {out.shape[1]} coordinates")
    rows = out.view(np.complex128) if complex_rows else out
    return rows.reshape(rows.shape[0], m, -1)


def propagate_linear(
    c0: NDArray[np.float64],
    segments: Iterable[tuple[NDArray | PathStencil, int]],
    dt: float,
    steps: int,
) -> tuple[NDArray[np.float64], tuple[SegmentPath, ...]]:
    """Classical RK4 on dc/dt = -G c over consecutive (G, step_count) segments, read once.

    ``c0`` is a flat state or an (n, d) array of rows. It returns the
    (steps + 1, c0.size) array of the flat states, row 0 being ``c0``, and
    the :func:`segment_path` each segment took. The step counts must add up
    to ``steps``. Each segment's G is an m x m array or a
    :class:`PathStencil` (L - shift·I of a planar tree, held as its degrees,
    cut edge and shift), and acts on the state as :func:`_rows` says: on the
    (m, -1) rows of the state, or of its complex128 view when G is complex.
    On a segment RK4 is exactly c_{k+1} = P c_k with
    P = I + H + H²/2 + H³/6 + H⁴/24, H = -dt G. An array G takes the block
    path; a stencil takes the path of :func:`segment_path`, by its m, dtype,
    step count and the columns of its rows, and forms its dense G only for
    the block path.

    - ``block``: it forms D = P - I once, stacks D_j = P^j - I for
      j = 1 … B with B = :func:`block_size`, and writes B states per matrix
      product, the leftover steps one product each. It agrees with
      :func:`rk4_step` on -(G @ y) to a few units of rounding.
    - ``stencil``: :func:`rk4_step` on the field -G y, one call a step,
      with G y summed over the stencil's nonzero entries by slices, O(m) a
      stage; it agrees with the dense product to rounding.

    Overflow is left to the caller's ``np.errstate``; it shows as
    non-finite states.
    """
    c0 = np.asarray(c0, dtype=float)
    out = np.empty((steps + 1, c0.size))
    out[0] = c0.ravel()
    paths = []
    k = 0
    for g, count in segments:
        rows = _rows(out, g)
        path = segment_path(g, count, rows.shape[2])
        paths.append(path)
        if path.path == "block":
            _power_steps(rows, k, count, _rk4_increment(g.dense() if isinstance(g, PathStencil) else g, dt),
                         path.block)
        else:
            _stage_steps(rows, k, count, g, dt)
        k += count
        del g  # released before the next run's G is formed
    if k != steps:
        raise ValueError(f"segments hold {k} steps, expected {steps}")
    return out, tuple(paths)


def _phases(lap: SymmetryLaplacian) -> NDArray[np.complex128]:
    """The planar chain rotations S_i as unit complex numbers cos θ_i + i sin θ_i."""
    return lap.chain[0::2, 0] + 1j * lap.chain[1::2, 0]


def _to_gauge(lap: SymmetryLaplacian, c: NDArray[np.float64]) -> NDArray[np.float64]:
    """Gauge rows q_i = S_iᵀ c_i (n x d) of a flat configuration c."""
    n, d = lap.n, lap.dim
    if d == 2:  # S_iᵀ rotates by -θ_i
        z = np.ascontiguousarray(c).view(np.complex128) * _phases(lap).conj()
        return z.view(np.float64).reshape(n, 2)
    return np.einsum("nji,nj->ni", lap.chain.reshape(n, d, d), c.reshape(n, d))


def _to_world(lap: SymmetryLaplacian, rows: NDArray[np.float64]) -> None:
    """Rotate gauge rows (steps + 1, dn) into world coordinates c_i = S_i q_i, in place."""
    n, d = lap.n, lap.dim
    if d == 2:
        rows.view(np.complex128)[:] *= _phases(lap)
        return
    points = rows.reshape(rows.shape[0], n, d)
    np.matmul(points[:, :, None, :], lap.chain.reshape(n, d, d).transpose(0, 2, 1), out=points[:, :, None, :])


def _edge_errors(lap: SymmetryLaplacian, rows: NDArray[np.float64]) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Per-edge errors ‖q_u - q_v‖ of gauge rows (steps + 1, dn) and the potentials.

    Edge (u, v) maps p_u to p_v by W, and S_v = W S_u, so its residual
    p_u - Wᵀ p_v is S_u (q_u - q_v), taken from the rows at the edge ends one coordinate
    at a time, so the errors stay C-ordered and the potentials' row sums keep their bits."""
    u, v = lap.dim * lap.ends.T
    squares = sum((rows.take(u + j, axis=1) - rows.take(v + j, axis=1)) ** 2 for j in range(lap.dim))
    errors = np.sqrt(squares)
    return errors, 0.5 * (errors ** 2).sum(axis=1)


def _gauge_run(
    lap: SymmetryLaplacian,
    c0: NDArray[np.float64],
    segments: Iterable[tuple[NDArray | PathStencil, int]],
    dt: float,
    steps: int,
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64], tuple[SegmentPath, ...]]:
    """RK4 of dc/dt = -G c from ``c0`` by :func:`propagate_linear` in gauge coordinates, each
    segment's G acting on gauge rows, as the (steps + 1, dn) world states (row 0 is ``c0``),
    the per-edge errors, the potentials and each segment's path. The states are rotated out
    of the gauge in place, after the errors are taken from them."""
    rows, solver = propagate_linear(_to_gauge(lap, c0), segments, dt, steps)
    errors, potentials = _edge_errors(lap, rows)
    _to_world(lap, rows)
    rows[0] = c0
    return rows, errors, potentials, solver


def require_finite(stage: str, times: NDArray[np.float64], *, first_step: int = 0,
                   **arrays: NDArray[np.float64]) -> None:
    """Raise NumericFailure naming the first array and step with a non-finite entry; row j
    of each array is step ``first_step`` + j."""
    for name, arr in arrays.items():
        ok = np.isfinite(arr).reshape(arr.shape[0], -1).all(axis=1)
        if not ok.all():
            k = first_step + int(np.argmin(ok))
            raise NumericFailure(
                f"{stage}: {name} is not finite from step {k} (t = {float(times[k]):g}); "
                "the run overflowed"
            )


def _start_and_grid(
    lap: SymmetryLaplacian, p0: NDArray[np.float64], dt: float | None, horizon: float | None
) -> tuple[NDArray[np.float64], float, float, int]:
    """``p0`` as a new float array of the dn coordinates of ``lap``, and the (dt, horizon,
    steps) of :func:`resolve_grid` for its spectrum: the start and grid of a stationary or
    maneuvering run."""
    p = np.array(p0, dtype=float)
    dn = lap.n * lap.dim
    if p.shape != (dn,):
        raise ValueError(f"initial state has shape {p.shape}, expected ({dn},)")
    return (p, *resolve_grid(lap.spectrum, dt, horizon))


def integrate(
    lap: SymmetryLaplacian,
    p0: NDArray[np.float64],
    dt: float | None = None,
    horizon: float | None = None,
) -> SimulationTrace:
    """Fixed-step RK4 integration of dp/dt = -Q p.

    Runs in gauge coordinates q_i = S_iᵀ p_i, where the flow is dq/dt = -L q
    on the n x n tree Laplacian, one column per coordinate, as one segment of
    :func:`propagate_linear`. Defaults: dt = 0.5/λ_max, horizon = 40/λ⁺_min.
    Step sizes at or beyond the stability limit raise ValueError with a
    suggested dt.
    """
    p, dt, horizon, steps = _start_and_grid(lap, p0, dt, horizon)
    times = np.arange(steps + 1) * dt
    # overflow is reported once, by require_finite, instead of as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        states, errors, potentials, solver = _gauge_run(lap, p, [(lap.shifted(0.0), steps)], dt, steps)
    require_finite("integrate", times, states=states, edge_errors=errors, potentials=potentials)
    return SimulationTrace(
        times=times, states=states, edge_errors=errors, potentials=potentials,
        n=lap.n, dim=lap.dim, ends=lap.ends, dt=dt, horizon=horizon, solver=solver,
    )


def final_state(
    lap: SymmetryLaplacian,
    p0: NDArray[np.float64],
    dt: float | None = None,
    horizon: float | None = None,
) -> tuple[float, NDArray[np.float64]]:
    """The last time and state of :func:`integrate`'s run, bit for bit, without its trace:
    the same gauge run, of which only the last row is rotated to the world frame.
    Raises NumericFailure when that row is not finite."""
    p, dt, horizon, steps = _start_and_grid(lap, p0, dt, horizon)
    with np.errstate(over="ignore", invalid="ignore"):
        rows, _ = propagate_linear(_to_gauge(lap, p), [(lap.shifted(0.0), steps)], dt, steps)
        state = rows[-1:].copy()
        del rows
        _to_world(lap, state)
    times = np.arange(steps + 1) * dt
    require_finite("integrate", times, first_step=steps, final_state=state)
    return float(times[-1]), state[0]


def fit_rate(trace: SimulationTrace) -> float:
    """Least-squares slope of log total error over the tail of a trace.

    The fit window is the final third of the samples up to the last one whose
    total error is above ``FIT_FLOOR`` (1e-12, two decades above the 1e-14
    underflow floor, so the window stays clear of rounding noise), less any
    sample at or below that floor; when the error never falls below it, the
    window is the final third of the trace. Raises ValueError when the error
    never rises above the fit floor (e.g. a start already inside the
    constraint set), or when the window's times are too small to square
    (below about 1.5e-154).
    """
    total = trace.total_errors
    valid = np.nonzero(total > FIT_FLOOR)[0]
    if valid.size < 2:
        raise ValueError("total error stays within two decades of the underflow floor; nothing to fit")
    last = valid[-1]
    lo = (2 * last) // 3
    window = np.arange(lo, last + 1)
    window = window[total[window] > FIT_FLOOR]
    if window.size < 2:
        raise ValueError("fewer than two points above the fit floor in the fit window")
    times = trace.times[window]
    if times[-1] ** 2 < np.finfo(float).tiny:  # polyfit divides by the norm of the times
        raise ValueError(f"the fit window's times, up to {times[-1]:g}, are too small to square")
    slope = np.polyfit(times, np.log(total[window]), 1)[0]
    return float(slope)
