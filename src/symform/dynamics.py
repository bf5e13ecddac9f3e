"""Gradient-flow dynamics toward symmetry-compatible formations."""
from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np
from numpy.typing import NDArray

from .laplacian import NumericFailure, Spectrum, SymmetryLaplacian, WeightedEdge
from .topology import InteractionGraph, weighted_edges

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
# errors, frame coordinates) and what writing the run's files adds to them (the
# CSVs are streamed a block at a time, so only the SVGs' pixel arrays grow with
# the rows). Measured peaks of long planar, maneuver and cube runs through
# write_outputs, less the fixed bytes per row, lie at 18-39 bytes per coordinate
# per row; the top of that range is a 12,001-row cube maneuver, which peaks in the run.
TRACE_ROW_BYTES_PER_COORD = 48
TRACE_ROW_BYTES_FIXED = 256
MAX_BUILD_BYTES = 512 * 2**20  # largest estimated memory of a formation's dense build
# Estimated dn x dn float64 arrays held while ``sweep`` builds and checks a formation:
# Q, E (half of dn x dn), the gauge matrix and E Eᵀ; a planar n = 300 sweep peaks at
# 3.5. A run forms none of them (it integrates on the n x n tree Laplacian) but is
# held to the same bound.
BUILD_DENSE_MATRICES = 5
# ``verify`` holds the same arrays while a dense eigh of Q adds its copy, workspace and
# eigenvectors: a planar n = 300 verify peaks at 7.0 dn x dn arrays (7.27 as a
# process's first command).
VERIFY_DENSE_MATRICES = 8
POWER_STACK_CAP = 256  # most RK4 steps propagate_linear writes with one matrix product
# The RK4 stage loop applies a real m x m G through its nonzero entries from
# m = NONZERO_STAGE_ROWS x (columns of the state) up, the dense product below.
# Measured per apply (best of 9 x 300, one BLAS thread, 2-vCPU 2.0 GHz Xeon) on
# tree Laplacians, dense / nonzeros in µs: dn x dn Q on 1 column, m = 256:
# 15.1 / 15.9, m = 320: 20.9 / 18.8, m = 512: 72 / 25; n x n L on 2 columns,
# m = 256: 12.4 / 17.5, m = 512: 61 / 27, m = 640: 142 / 29; on 3 columns,
# m = 768: 700 / 55.
NONZERO_STAGE_ROWS = 256


def edge_residual_norms(
    p: NDArray[np.float64], wedges: list[WeightedEdge] | tuple[WeightedEdge, ...], dim: int
) -> NDArray[np.float64]:
    """Constraint violation per edge, computed directly from the edge list."""
    p = np.asarray(p, dtype=float)
    out = np.empty(len(wedges))
    for e, (u, v, w) in enumerate(wedges):
        r = p[dim * (u - 1):dim * u] - w.T @ p[dim * (v - 1):dim * v]
        out[e] = math.sqrt(float(r @ r))
    return out


def edge_errors(p: NDArray[np.float64], graph: InteractionGraph) -> NDArray[np.float64]:
    """Per-edge constraint violations of a planar tree."""
    return edge_residual_norms(p, weighted_edges(graph), 2)


def potential(p: NDArray[np.float64], graph: InteractionGraph) -> float:
    """Half the summed squared edge residuals (the flow's Lyapunov function)."""
    errs = edge_errors(p, graph)
    return 0.5 * float(errs @ errs)


def control(p: NDArray[np.float64], q_matrix: NDArray[np.float64] | SymmetryLaplacian) -> NDArray[np.float64]:
    """Gradient-descent velocity -Q p."""
    q = np.asarray(getattr(q_matrix, "matrix", q_matrix), dtype=float)
    return -(q @ np.asarray(p, dtype=float))


def control_per_agent(p: NDArray[np.float64], graph: InteractionGraph) -> NDArray[np.float64]:
    """Neighbor-sum form of the gradient velocity.

    Agent i moves by the sum over incident edges of (rotated neighbor - self),
    with the edge rotation applied forward or inverted by traversal direction.
    Independent route kept for cross-checking against :func:`control`.
    """
    p = np.asarray(p, dtype=float)
    n, d = graph.n, 2
    pts = p.reshape(n, d)
    out = np.zeros_like(pts)
    for (u, v, w) in weighted_edges(graph):
        out[u - 1] += w.T @ pts[v - 1] - pts[u - 1]
        out[v - 1] += w @ pts[u - 1] - pts[v - 1]
    return out.ravel()


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
    edge_index: tuple[tuple[int, int], ...]
    dt: float
    horizon: float

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


def rk4_step(
    f: Callable[[float, NDArray[np.float64]], NDArray[np.float64]],
    t: float,
    y: NDArray[np.float64],
    h: float,
) -> NDArray[np.float64]:
    """One classical fixed-step RK4 update of a general field (the reference stepper)."""
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
    build_bytes = matrices * dn * dn * 8
    if build_bytes > MAX_BUILD_BYTES:
        fit = math.isqrt(MAX_BUILD_BYTES // (matrices * 8)) // dim
        mib = build_bytes / 2**20 if build_bytes < 2**1000 else math.inf  # inf beyond a float
        raise ValueError(
            f"n = {reprlib.repr(n)} needs about {mib:.1f} MiB for its dense "
            f"{reprlib.repr(dn)}x{reprlib.repr(dn)} matrices, "
            f"above the {MAX_BUILD_BYTES / 2**20:g} MiB bound (the largest n that fits is {fit})"
        )


def _step_count(dt: float, horizon: float) -> int | float:
    """ceil(horizon / dt), at least 1 (less 1e-12, so an exact multiple takes no extra
    step); inf when horizon / dt overflows."""
    span = horizon / dt - 1e-12
    return max(1, int(math.ceil(span))) if math.isfinite(span) else math.inf


def resolve_grid(
    spec: Spectrum, dt: float | None, horizon: float | None
) -> tuple[float, float, int]:
    """Default/validated (dt, horizon, steps) for a flow with this spectrum.

    Raises ValueError, with a horizon that would fit, when the estimated
    memory of the grid's trace and its output would exceed ``MAX_TRACE_BYTES``,
    so a run is rejected before its trace is allocated.
    """
    lam_max = spec.lambda_max
    if dt is None:
        dt = DEFAULT_STEP_FACTOR / lam_max if lam_max > 0 else 0.1
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError(f"step size must be positive and finite, got {dt}")
    if lam_max > 0 and dt * lam_max >= STABILITY_LIMIT:
        raise ValueError(
            f"step size {dt:g} is unstable for the stiffest mode {lam_max:g} "
            f"(need dt < {STABILITY_LIMIT / lam_max:g}; try dt = {DEFAULT_STEP_FACTOR / lam_max:g})"
        )
    if horizon is None:
        rate = spec.lambda_min_pos
        horizon = DEFAULT_HORIZON_FACTOR / rate if rate else 10.0
    if not (horizon > 0 and math.isfinite(horizon)):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    steps = _step_count(dt, horizon)
    dn = spec.eigenvalues.size
    _require_grid_fits(steps, dt, TRACE_ROW_BYTES_PER_COORD * dn + TRACE_ROW_BYTES_FIXED,
                       f"steps of {dn} coordinates", "the trace and its output")
    return dt, horizon, steps


def _require_grid_fits(steps: int | float, dt: float, row_bytes: int, rows: str, holding: str) -> None:
    """Raise ValueError, with a horizon that would fit, when ``steps`` + 1 rows of ``row_bytes``
    each would exceed ``MAX_TRACE_BYTES``; ``rows`` and ``holding`` name the steps and
    their arrays in the message."""
    grid_bytes = (steps + 1) * row_bytes
    if grid_bytes > MAX_TRACE_BYTES:
        fit = max(1, MAX_TRACE_BYTES // row_bytes - 1) * dt
        unit = 10.0 ** (math.floor(math.log10(fit)) - 2)
        fit = math.floor(fit / unit) * unit  # three significant digits, rounded down
        raise ValueError(
            f"{steps:.3g} {rows} need about {grid_bytes / 2**20:.4g} MiB "
            f"for {holding}, above the {MAX_TRACE_BYTES / 2**20:g} MiB bound "
            f"(try horizon = {fit:.3g})"
        )


def _rk4_increment(g: NDArray[np.float64], dt: float) -> NDArray[np.float64]:
    """D = P - I = H + H²/2 + H³/6 + H⁴/24 for the RK4 step matrix P of dc/dt = -G c, H = -dt G.

    Kept apart from I so that its rounding scales with dt G, not with 1."""
    m = g.shape[0]
    h = -dt * g
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
        out[k + 1] = out[k] + d @ out[k]


def _stage_product(g: NDArray, columns: int) -> Callable[[NDArray], NDArray]:
    """x ↦ G x on (m, ``columns``) rows, for the stage loop.

    A real G of at least ``NONZERO_STAGE_ROWS`` rows per column is applied
    through its nonzero entries, read from G itself (one bincount per column);
    any other G, complex ones included, through the dense product."""
    m = g.shape[0]
    if np.iscomplexobj(g) or m < NONZERO_STAGE_ROWS * columns:
        return g.__matmul__
    rows, cols = np.nonzero(g)
    entries = g[rows, cols]

    def product(x: NDArray[np.float64]) -> NDArray[np.float64]:
        y = np.empty((m, columns))
        for j in range(columns):
            y[:, j] = np.bincount(rows, entries * x[cols, j], minlength=m)
        return y

    return product


def _stage_steps(out: NDArray, k: int, count: int, product: Callable[[NDArray], NDArray], dt: float) -> None:
    """Write rows k+1 … k+count of ``out`` by RK4 stages on the field -G y, G y = ``product(y)``,
    in the operation order of :func:`rk4_step`."""
    half, sixth = dt / 2, dt / 6
    x = out[k]
    for row in range(k + 1, k + count + 1):
        k1 = -product(x)
        k2 = -product(x + half * k1)
        k3 = -product(x + half * k2)
        k4 = -product(x + dt * k3)
        x = x + sixth * (k1 + 2 * k2 + 2 * k3 + k4)
        out[row] = x


def _rows(out: NDArray[np.float64], g: NDArray) -> NDArray:
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
    segments: Iterable[tuple[NDArray, int]],
    dt: float,
    steps: int,
) -> NDArray[np.float64]:
    """Classical RK4 on dc/dt = -G c over consecutive (G, step_count) segments, read once.

    ``c0`` is a flat state or an (n, d) array of rows; the returned
    (steps + 1, c0.size) array holds the flat states, row 0 being ``c0``.
    The step counts must add up to ``steps``. Each segment's G is m x m and
    acts on the state as :func:`_rows` says: on the (m, -1) rows of the
    state, or of its complex128 view when G is complex. On a
    segment RK4 is exactly c_{k+1} = P c_k with
    P = I + H + H²/2 + H³/6 + H⁴/24, H = -dt G.

    - A segment of at least ``2 * m`` steps takes the block path: it forms
      D = P - I once, stacks D_j = P^j - I for j = 1 … B with
      B = min(``POWER_STACK_CAP``, step_count // m), and writes B states
      per matrix product, the leftover steps one product each. The stack is
      never larger than the segment's rows of the returned array.
    - A shorter segment takes the stage loop, which uses the operation order
      of :func:`rk4_step` on the field -G y. Below the crossover of
      :func:`_stage_product` (a complex G, or a real one of fewer than
      ``NONZERO_STAGE_ROWS`` rows per column) G y is the dense ``g @ y``,
      so the loop reproduces :func:`rk4_step` on -(G @ y) bitwise. Past it,
      G y is summed over G's nonzero entries and agrees with the dense
      product only to rounding, as the block path does.

    Overflow is left to the caller's ``np.errstate``; it shows as
    non-finite states.
    """
    c0 = np.asarray(c0, dtype=float)
    out = np.empty((steps + 1, c0.size))
    out[0] = c0.ravel()
    k = 0
    for g, count in segments:
        rows = _rows(out, g)
        block = min(POWER_STACK_CAP, count // g.shape[0])
        if block >= 2:
            _power_steps(rows, k, count, _rk4_increment(g, dt), block)
        else:
            _stage_steps(rows, k, count, _stage_product(g, rows.shape[2]), dt)
        k += count
        del g  # released before the next run's G is formed
    if k != steps:
        raise ValueError(f"segments hold {k} steps, expected {steps}")
    return out


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
    for i, s in enumerate(lap.chain.reshape(n, d, d)):
        points[:, i] = points[:, i] @ s.T


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
    segments: Iterable[tuple[NDArray, int]],
    dt: float,
    steps: int,
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64]]:
    """RK4 of dc/dt = -G c from ``c0`` in gauge coordinates, each segment's G acting on
    gauge rows: the (steps + 1, dn) world states (row 0 is ``c0``), the per-edge errors
    and the potentials. The states are rotated out of the gauge in place, after the
    errors are taken from them."""
    rows = propagate_linear(_to_gauge(lap, c0), segments, dt, steps)
    errors, potentials = _edge_errors(lap, rows)
    _to_world(lap, rows)
    rows[0] = c0
    return rows, errors, potentials


def require_finite(stage: str, times: NDArray[np.float64], **arrays: NDArray[np.float64]) -> None:
    """Raise NumericFailure naming the first array and step with a non-finite entry."""
    for name, arr in arrays.items():
        ok = np.isfinite(arr).reshape(arr.shape[0], -1).all(axis=1)
        if not ok.all():
            k = int(np.argmin(ok))
            raise NumericFailure(
                f"{stage}: {name} is not finite from step {k} (t = {float(times[k]):g}); "
                "the run overflowed"
            )


def integrate(
    lap: SymmetryLaplacian,
    p0: NDArray[np.float64],
    dt: float | None = None,
    horizon: float | None = None,
) -> SimulationTrace:
    """Fixed-step RK4 integration of dp/dt = -Q p.

    Runs in gauge coordinates q_i = S_iᵀ p_i, where the flow is dq/dt = -L q
    on the n x n tree Laplacian, one column per coordinate. Defaults:
    dt = 0.5/λ_max, horizon = 40/λ⁺_min. Step sizes at or beyond the
    stability limit raise ValueError with a suggested dt.
    """
    p = np.array(p0, dtype=float)
    dn = lap.n * lap.dim
    if p.shape != (dn,):
        raise ValueError(f"initial state has shape {p.shape}, expected ({dn},)")
    spec = lap.spectrum
    dt, horizon, steps = resolve_grid(spec, dt, horizon)

    times = np.arange(steps + 1) * dt
    # overflow is reported once, by require_finite, instead of as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        states, errors, potentials = _gauge_run(lap, p, [(lap.scalar, steps)], dt, steps)
    require_finite("integrate", times, states=states, edge_errors=errors, potentials=potentials)
    return SimulationTrace(
        times=times, states=states, edge_errors=errors, potentials=potentials,
        n=lap.n, dim=lap.dim, edge_index=lap.edge_index, dt=dt, horizon=horizon,
    )


def fit_rate(trace: SimulationTrace) -> float:
    """Least-squares slope of log total error over the tail of a trace.

    The fit window is the final third of the samples up to the last one whose
    total error is above ``FIT_FLOOR`` (1e-12, two decades above the 1e-14
    underflow floor, so the window stays clear of rounding noise), less any
    sample at or below that floor; when the error never falls below it, the
    window is the final third of the trace. Raises ValueError when the error
    never rises above the fit floor (e.g. a start already inside the
    constraint set).
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
    slope = np.polyfit(trace.times[window], np.log(total[window]), 1)[0]
    return float(slope)
