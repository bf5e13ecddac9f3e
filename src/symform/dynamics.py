"""Gradient-flow dynamics toward symmetry-compatible formations."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np
from numpy.typing import NDArray

from .laplacian import NumericFailure, Spectrum, SymmetryLaplacian, WeightedEdge
from .symgroup import PointGroupAssignment
from .topology import InteractionGraph, weighted_edges

UNDERFLOW_FLOOR = 1e-14  # error magnitudes below this are float noise
# Rate fits stop two decades above the noise: below 1e-12 the total error of a
# converged run carries rounding, and the fitted slope follows its last bits.
FIT_FLOOR = 100 * UNDERFLOW_FLOOR

DEFAULT_STEP_FACTOR = 0.5     # dt = 0.5 / lambda_max
DEFAULT_HORIZON_FACTOR = 40.0  # T = 40 / lambda_min_pos
STABILITY_LIMIT = 2.0          # RK4 real-axis stability edge is ~2.785; stay under 2
MAX_TRACE_BYTES = 512 * 2**20  # largest estimated memory of a run's trace and its CSV text
# Estimated bytes per trace row: the float64 trace arrays (states, residuals,
# errors, frame coordinates) and the trace CSV text, which is held twice while
# it is joined and written. Measured peaks of planar, maneuver and cube runs
# through write_outputs lie at 75-110 bytes per coordinate per row.
TRACE_ROW_BYTES_PER_COORD = 96
TRACE_ROW_BYTES_FIXED = 256
MAX_BUILD_BYTES = 512 * 2**20  # largest estimated memory of a formation's dense build
# Estimated dn x dn float64 arrays held while a formation is built and checked:
# Q, E, the gauge matrix and two temporaries (a maneuver's G, an eigensolver's
# copy of Q - I⊗Ω, or a route held for comparison).
BUILD_DENSE_MATRICES = 5
POWER_STACK_CAP = 256  # most RK4 steps propagate_linear writes with one matrix product


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


def edge_errors(
    p: NDArray[np.float64], graph: InteractionGraph, tau: PointGroupAssignment
) -> NDArray[np.float64]:
    """Per-edge constraint violations of a planar tree."""
    return edge_residual_norms(p, weighted_edges(graph, tau), 2)


def potential(
    p: NDArray[np.float64], graph: InteractionGraph, tau: PointGroupAssignment
) -> float:
    """Half the summed squared edge residuals (the flow's Lyapunov function)."""
    errs = edge_errors(p, graph, tau)
    return 0.5 * float(errs @ errs)


def control(p: NDArray[np.float64], q_matrix: NDArray[np.float64] | SymmetryLaplacian) -> NDArray[np.float64]:
    """Gradient-descent velocity -Q p."""
    q = np.asarray(getattr(q_matrix, "matrix", q_matrix), dtype=float)
    return -(q @ np.asarray(p, dtype=float))


def control_per_agent(
    p: NDArray[np.float64], graph: InteractionGraph, tau: PointGroupAssignment
) -> NDArray[np.float64]:
    """Neighbor-sum form of the gradient velocity.

    Agent i moves by the sum over incident edges of (rotated neighbor - self),
    with the edge rotation applied forward or inverted by traversal direction.
    Independent route kept for cross-checking against :func:`control`.
    """
    p = np.asarray(p, dtype=float)
    n, d = graph.n, 2
    pts = p.reshape(n, d)
    out = np.zeros_like(pts)
    for (u, v, w) in weighted_edges(graph, tau):
        out[u - 1] += w.T @ pts[v - 1] - pts[u - 1]
        out[v - 1] += w @ pts[u - 1] - pts[v - 1]
    return out.ravel()


@dataclass(eq=False)
class SimulationTrace:
    """Sampled gradient-flow run: states, per-edge errors, and the potential."""

    times: NDArray[np.float64]
    states: NDArray[np.float64]
    edge_errors: NDArray[np.float64]
    potentials: NDArray[np.float64]
    n: int
    dim: int
    edge_index: tuple[tuple[int, int], ...]
    metadata: dict = field(default_factory=dict)

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


def require_build_fits(n: int, dim: int) -> None:
    """Raise ValueError, naming the largest n that fits, when the dense matrices of an
    n-agent formation in R^dim would exceed ``MAX_BUILD_BYTES``, before any is built."""
    dn = dim * n
    build_bytes = BUILD_DENSE_MATRICES * dn * dn * 8
    if build_bytes > MAX_BUILD_BYTES:
        fit = math.isqrt(MAX_BUILD_BYTES // (BUILD_DENSE_MATRICES * 8)) // dim
        raise ValueError(
            f"n = {n} needs about {build_bytes / 2**20:.1f} MiB for its dense {dn}x{dn} matrices, "
            f"above the {MAX_BUILD_BYTES / 2**20:g} MiB bound (the largest n that fits is {fit})"
        )


def resolve_grid(
    spec: Spectrum, dt: float | None, horizon: float | None
) -> tuple[float, float, int]:
    """Default/validated (dt, horizon, steps) for a flow with this spectrum.

    Raises ValueError, with a horizon that would fit, when the estimated
    memory of the grid's trace and CSV text would exceed ``MAX_TRACE_BYTES``,
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
    span = horizon / dt - 1e-12
    steps = max(1, int(math.ceil(span))) if math.isfinite(span) else math.inf
    dn = spec.eigenvalues.size
    row_bytes = TRACE_ROW_BYTES_PER_COORD * dn + TRACE_ROW_BYTES_FIXED
    trace_bytes = (steps + 1) * row_bytes
    if trace_bytes > MAX_TRACE_BYTES:
        fit = max(1, MAX_TRACE_BYTES // row_bytes - 1) * dt
        unit = 10.0 ** (math.floor(math.log10(fit)) - 2)
        fit = math.floor(fit / unit) * unit  # three significant digits, rounded down
        raise ValueError(
            f"{steps:.3g} steps of {dn} coordinates need about {trace_bytes / 2**20:.4g} MiB "
            f"for the trace and its CSV text, above the {MAX_TRACE_BYTES / 2**20:g} MiB bound "
            f"(try horizon = {fit:.3g})"
        )
    return dt, horizon, steps


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


def _power_steps(out: NDArray[np.float64], k: int, count: int, d: NDArray[np.float64], block: int) -> None:
    """Write rows k+1 … k+count of ``out`` as out[j+1] = out[j] + D out[j], D = P - I.

    ``block`` rows go per matrix product with the stack D_1 … D_block, D_j = P^j - I,
    built by doubling (D_(i+j) = D_i D_j + D_i + D_j); the rest go one row at a time."""
    dn = d.shape[0]
    stack = np.empty((block, dn, dn))
    stack[0] = d
    have = 1
    while have < block:
        more = min(have, block - have)
        new = stack[have:have + more]
        np.matmul(stack[:more], stack[have - 1], out=new)
        new += stack[:more]
        new += stack[have - 1]
        have += more
    stack = stack.reshape(block * dn, dn)
    end = k + count
    while end - k >= block:
        out[k + 1:k + block + 1] = (stack @ out[k]).reshape(block, dn) + out[k]
        k += block
    for k in range(k, end):
        out[k + 1] = out[k] + d @ out[k]


def propagate_linear(
    c0: NDArray[np.float64],
    segments: Iterable[tuple[NDArray[np.float64], int]],
    dt: float,
    steps: int,
) -> NDArray[np.float64]:
    """Classical RK4 on dc/dt = -G c over consecutive (G, step_count) segments, read once.

    Returns the (steps + 1, dim) array of states, row 0 being ``c0``; the
    step counts must add up to ``steps``. On a segment RK4 is exactly
    c_{k+1} = P c_k with P = I + H + H²/2 + H³/6 + H⁴/24, H = -dt G.

    - A segment of at least ``2 * dim`` steps takes the block path: it forms
      D = P - I once, stacks D_j = P^j - I for j = 1 … B with
      B = min(``POWER_STACK_CAP``, step_count // dim), and writes B states
      per matrix product, the leftover steps one product each. The stack is
      never larger than the segment's rows of the returned array.
    - A shorter segment takes the stage loop, which uses the operation order
      of :func:`rk4_step` on the field -(G @ y) and so reproduces that
      stepper bitwise. The block path agrees with it only to rounding.

    Overflow is left to the caller's ``np.errstate``; it shows as
    non-finite states.
    """
    x = np.array(c0, dtype=float)
    dn = x.size
    out = np.empty((steps + 1, dn))
    out[0] = x
    half, sixth = dt / 2, dt / 6
    k = 0
    for g, count in segments:
        block = min(POWER_STACK_CAP, count // dn)
        if block >= 2:
            _power_steps(out, k, count, _rk4_increment(g, dt), block)
            k += count
            x = out[k]
        else:
            for _ in range(count):
                k1 = -(g @ x)
                k2 = -(g @ (x + half * k1))
                k3 = -(g @ (x + half * k2))
                k4 = -(g @ (x + dt * k3))
                x = x + sixth * (k1 + 2 * k2 + 2 * k3 + k4)
                k += 1
                out[k] = x
        del g  # released before the next run's G is formed
    if k != steps:
        raise ValueError(f"segments hold {k} steps, expected {steps}")
    return out


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


def _trace_tail(
    stage: str,
    lap: SymmetryLaplacian,
    shifted: NDArray[np.float64],
    times: NDArray[np.float64],
    dt: float,
    horizon: float,
    metadata: dict | None,
    **checked: NDArray[np.float64],
) -> tuple[NDArray[np.float64], NDArray[np.float64], dict]:
    """Per-edge errors and potentials of the rows of ``shifted``, checked finite after
    the ``checked`` arrays, and the trace metadata, updated from ``metadata``."""
    steps = times.size - 1
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = shifted @ lap.incidence
        errors = np.sqrt((residuals.reshape(steps + 1, -1, lap.dim) ** 2).sum(axis=2))
        potentials = 0.5 * (errors ** 2).sum(axis=1)
    require_finite(stage, times, **checked, edge_errors=errors, potentials=potentials)
    spec = lap.spectrum
    meta = {"dt": dt, "horizon": horizon, "steps": steps, "method": "rk4",
            "lambda_max": spec.lambda_max, "lambda_min_pos": spec.lambda_min_pos}
    if metadata:
        meta.update(metadata)
    return errors, potentials, meta


def integrate(
    lap: SymmetryLaplacian,
    p0: NDArray[np.float64],
    dt: float | None = None,
    horizon: float | None = None,
    metadata: dict | None = None,
) -> SimulationTrace:
    """Fixed-step RK4 integration of dp/dt = -Q p.

    Defaults: dt = 0.5/λ_max, horizon = 40/λ⁺_min. Step sizes at or beyond
    the stability limit raise ValueError with a suggested dt.
    """
    q = lap.matrix
    p = np.array(p0, dtype=float)
    if p.shape != (q.shape[0],):
        raise ValueError(f"initial state has shape {p.shape}, expected ({q.shape[0]},)")
    spec = lap.spectrum
    dt, horizon, steps = resolve_grid(spec, dt, horizon)

    times = np.arange(steps + 1) * dt
    # overflow is reported once, by require_finite, instead of as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        states = propagate_linear(p, [(q, steps)], dt, steps)
    errors, potentials, meta = _trace_tail("integrate", lap, states, times, dt, horizon, metadata,
                                           states=states)
    return SimulationTrace(
        times=times, states=states, edge_errors=errors, potentials=potentials,
        n=lap.n, dim=lap.dim, edge_index=lap.edge_index, metadata=meta,
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
