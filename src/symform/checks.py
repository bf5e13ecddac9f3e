"""The paper's structural claims about Q, checked with named tolerances, and the
independent routes that ``verify`` and the tests check the run path against."""
from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from . import dynamics, laplacian
from .laplacian import SYMMETRY_TOL, Gap, Spectrum, SymmetryLaplacian, WeightedEdge
from .maneuver import ReferenceState, omega_matrix
from .spatial3d import CubeSpec
from .symgroup import rotation3
from .topology import InteractionGraph, weighted_edges

ROUTE_TOL = 1e-12     # max |Q - M| for an independent construction route M
NULL_TOL = 1e-10      # max |Q V0| for the null basis V0
GRADIENT_TOL = 1e-6   # max |FD gradient - Q p| / (1 + max |Q p|)
SOLVER_TOL = 1e-6     # |RK4 - closed form| after unit time
SPECTRUM_TOL = 1e-12  # max |run spectrum - eigvalsh of Q| beyond the spread, relative to max(1, λ_max)
TAYLOR_DEGREE = 17    # last term of each factor of exponential_flow: Σ_{k≥18} 1/k! < 1.7e-16

Route = tuple[str, str, NDArray[np.float64]]  # (check name, detail label, matrix)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    value: float | None = None  # the measured quantity the verdict rests on


def _tol(tol: float) -> str:
    """A tolerance as printed in check details: 1e-06 reads '1e-6'."""
    mantissa, exponent = f"{tol:.0e}".split("e")
    return f"{mantissa}e{int(exponent)}"


def structure_checks(spec: Spectrum, n: int, dim: int, gaps: Sequence[Gap], null_gap: float) -> list[CheckResult]:
    """PSD, rank dn - d with a d-dimensional null space, agreement with each construction
    route and Q V0 = 0, from measured values. ``spec`` is a spectrum of (the symmetric
    part of) Q: eigenvalues below its ``threshold`` are zero. ``gaps`` holds
    (name, label, max |Q - M|) for each route M and ``null_gap`` is max |Q V0|, measured
    on dense matrices (:func:`dense_gaps`) or on a tree's blocks
    (``SymmetryLaplacian.route_gaps`` and ``null_gap``).
    Each eigenvalue of Q lies within ``spec.spread`` of the one reported, so PSD and rank
    pass only when they hold for every value in that interval."""
    threshold = spec.threshold
    lam, spread = spec.eigenvalues, spec.spread
    min_eig = float(lam[0]) - spread
    surely_null = int(np.sum(np.abs(lam) + spread < threshold))
    maybe_null = int(np.sum(np.abs(lam) - spread < threshold))
    expected = dim * n - dim
    out = [CheckResult("positive_semidefinite", min_eig >= -threshold,
                       f"min eigenvalue {min_eig:.3e} (tol -{threshold:.1e})", min_eig),
           CheckResult("rank", surely_null == maybe_null == dim and lam.size - dim == expected,
                       f"rank {spec.rank} null {spec.null_dim} (expected {expected} and {dim})", spec.rank)]
    for name, label, gap in gaps:
        out.append(CheckResult(name, gap <= ROUTE_TOL, f"max {label} {gap:.3e} (tol {_tol(ROUTE_TOL)})", gap))
    out.append(CheckResult("null_basis", null_gap <= NULL_TOL,
                           f"max |Q V0| = {null_gap:.3e} (tol {_tol(NULL_TOL)})", null_gap))
    return out


def dense_gaps(q: NDArray[np.float64], null_matrix: NDArray[np.float64],
               routes: Sequence[Route]) -> tuple[list[Gap], float]:
    """(name, label, max |Q - M|) of each (name, label, matrix) route and max |Q V0|, from
    the dense matrices: the arguments of :func:`structure_checks` for ``verify`` and ``sweep``."""
    gaps = [(name, label, laplacian.max_abs_difference(q, matrix)) for name, label, matrix in routes]
    return gaps, float(np.abs(q @ null_matrix).max())


def _perturbed_potentials(incidence: NDArray[np.float64], points: NDArray[np.float64], h: float) -> NDArray[np.float64]:
    """Φ(x ± h e_i) - Φ(x) for Φ(x) = 0.5 ||Eᵀ x||², at each of the k ``points`` x and coordinate i:
    +h in row 0 and -h in row 1 (2 x k x dn). Moving x_i by s moves r_j of r = Eᵀ x to r_j + s E_ij,
    so the change sums 0.5 ((r_j + s E_ij)² - r_j²) over the nonzero entries E_ij of row i."""
    k, size = points.shape
    rows, cols = np.nonzero(incidence)
    entries = incidence[rows, cols]
    r = (points @ incidence)[:, cols]
    index = (rows + size * np.arange(k)[:, None]).ravel()
    return np.array([np.bincount(index, (0.5 * ((r + s * entries) ** 2 - r ** 2)).ravel(), minlength=k * size)
                     for s in (h, -h)]).reshape(2, k, size)


def verification_checks(q_matrix: NDArray[np.float64], incidence_matrix: NDArray[np.float64],
                        null_matrix: NDArray[np.float64], lap: SymmetryLaplacian,
                        routes: Sequence[Route] = (), seed: int = 0) -> list[CheckResult]:
    """Construction and dynamics checks of explicit matrices against the built system ``lap``.

    Takes raw matrices (not built objects) so a deliberately corrupted input
    is detected rather than silently rebuilt. Q's one eigensolver call is ``eigvalsh`` of
    its symmetric part (:func:`laplacian.spectrum`); no eigenvectors are formed. Its values
    give PSD and rank, and ``lap.spectrum`` (the path formula, or ``eigvalsh`` of L for
    another tree) is checked against them: they may differ by its ``spread`` plus
    rounding, ``SPECTRUM_TOL``·max(1, λ_max). ``routes`` (:func:`construction_routes`)
    are checked after the product route E Eᵀ.
    The solver cross-check runs ``lap`` through the integrator of a run, to the last state
    of :func:`dynamics.integrate` (:func:`dynamics.final_state`), and compares it with
    e^(−Qt) p0 on the dense Q (:func:`exponential_flow`, with ρ = max(|λ_min|, λ_max) from
    the same values), so a Q that disagrees with its tree fails it too. The Q of a tree has
    ρ ≤ 2·(its largest degree) ≤ 2(n - 1) (Gershgorin, on the L it shares its eigenvalues
    with); a Q past that bound for ``lap``'s tree fails the check, naming its ρ, without
    the ⌈tρ⌉ factors it would ask for. Raises ValueError when Q is not dn x dn for
    ``lap``'s dn.
    """
    dn = lap.n * lap.dim
    if q_matrix.shape != (dn, dn):
        raise ValueError(f"Q is {' x '.join(map(str, q_matrix.shape))}, but the built system has dn = {dn}")
    rng = np.random.default_rng(seed)
    asym = laplacian.max_abs_difference(q_matrix, q_matrix.T)
    out = [CheckResult("symmetric", asym <= SYMMETRY_TOL,
                       f"max asymmetry {asym:.3e} (tol {_tol(SYMMETRY_TOL)})", asym)]
    sym = 0.5 * (q_matrix + q_matrix.T)  # for the spectrum and the exact flow; asymmetry already reported
    spec = laplacian.spectrum(sym)
    product = ("incidence_product", "|Q - E E^T| =", laplacian.product_laplacian(incidence_matrix))
    out += structure_checks(spec, lap.n, lap.dim, *dense_gaps(q_matrix, null_matrix, [product, *routes]))
    # sorted, and each eigenvalue of Q lies within the run spectrum's spread of its own
    run_spectrum = lap.spectrum
    tol = run_spectrum.spread + SPECTRUM_TOL * max(1.0, spec.lambda_max)
    gap = float(np.abs(run_spectrum.eigenvalues - spec.eigenvalues).max())
    out.append(CheckResult("tree_spectrum", gap <= tol,
                           f"max |run - eigvalsh| = {gap:.3e} (tol {tol:.3e}: spread {run_spectrum.spread:.1e} "
                           f"+ {_tol(SPECTRUM_TOL)} * max(1, lambda_max))", gap))

    # gradient of 0.5 ||E^T p||^2 must match Q p (central differences, h = 1e-5)
    h = 1e-5
    points = rng.uniform(-2.0, 2.0, size=(10, dn))
    plus, minus = _perturbed_potentials(incidence_matrix, points, h)
    grads = points @ q_matrix.T  # Q p for each point p
    worst = float(np.max(np.abs((plus - minus) / (2 * h) - grads).max(axis=1) / (1.0 + np.abs(grads).max(axis=1))))
    out.append(CheckResult("gradient", worst <= GRADIENT_TOL,
                           f"max relative FD mismatch {worst:.3e} (tol {_tol(GRADIENT_TOL)})", worst))

    # a short run of the built system, as a run integrates it, against Q's exact flow
    p0 = rng.uniform(-2.0, 2.0, size=dn)
    t, state = dynamics.final_state(lap, p0, dt=0.01 / run_spectrum.lambda_max, horizon=1.0)
    rho = max(-float(spec.eigenvalues[0]), spec.lambda_max)
    bound = 2 * int(lap.degrees.max())
    if rho <= bound:
        value = float(np.linalg.norm(state - exponential_flow(sym, p0, t, rho)))
        passed, detail = value <= SOLVER_TOL, f"|RK4 - closed form| = {value:.3e} at t = {t:.3f}"
    else:  # more factors than any tree's Q needs, or a ρ that is not a number
        value, passed, detail = rho, False, f"spectral radius of Q {rho:.3e} exceeds twice the tree's largest degree, {bound}"
    out.append(CheckResult("solver_cross_check", passed, f"{detail} (tol {_tol(SOLVER_TOL)})", value))
    return out


# Independent routes: the paper's claims computed a second way. verify reads the construction
# routes (construction_routes and the cube's composed form) and exponential_flow; the rest,
# the maneuver routes among them (moving_frame, frame_to_world, maneuver_control, shifted_errors),
# are read only by the tests.

def construction_routes(lap: SymmetryLaplacian, cube_spec: CubeSpec | None = None) -> tuple[Route, ...]:
    """Independent constructions of ``lap.matrix`` as (name, label, matrix): the gauge form
    S (L ⊗ I_d) Sᵀ, or for a cube of ``cube_spec`` its composed form, then the gauge form."""
    if cube_spec is None:
        return (("construction_routes", "route disagreement", lap.gauge),)
    return (("construction_routes", "route disagreement", composed_cube_laplacian(cube_spec)),
            ("gauge_route", "|Q - S (L x I) S^T| =", lap.gauge))


def assemble_laplacian(n: int, dim: int, wedges: list[WeightedEdge]) -> NDArray[np.float64]:
    """Block-entry assembly of Q for matrix-weighted edges (u, v, W), any edge set."""
    Q = np.zeros((dim * n, dim * n))
    eye = np.eye(dim)
    for (u, v, w) in wedges:
        bu = slice(dim * (u - 1), dim * u)
        bv = slice(dim * (v - 1), dim * v)
        Q[bu, bu] += eye
        Q[bv, bv] += eye
        Q[bu, bv] -= w.T
        Q[bv, bu] -= w
    return Q


def composed_cube_laplacian(spec: CubeSpec) -> NDArray[np.float64]:
    """The cube's Q from sub-blocks, each added at its agents' coordinates (agent k holds
    3(k - 1) … 3(k - 1) + 2): the face-chain block at ``top_nodes`` and again at
    ``bottom_nodes``, and the cross-edge block at ``cross_edge``, in its direction."""
    w_face = rotation3(spec.face_axis, spec.face_angle).matrix
    w_cross = rotation3(spec.cross_axis, spec.cross_angle).matrix
    face_block = assemble_laplacian(4, 3, [(i + 1, i + 2, w_face) for i in range(3)])
    cross_block = assemble_laplacian(2, 3, [(1, 2, w_cross)])
    q = np.zeros((24, 24))
    for nodes, block in ((spec.top_nodes, face_block), (spec.bottom_nodes, face_block),
                         (spec.cross_edge, cross_block)):
        coords = [3 * (k - 1) + c for k in nodes for c in range(3)]
        q[np.ix_(coords, coords)] += block
    return q


def segment_value(segs: tuple, t: float):
    """The value of the piecewise-constant series ``segs`` ((start, value) pairs) at time t:
    the scalar lookup that ``maneuver.propagate_reference`` makes for every step at once, by
    one ``searchsorted`` of the segment starts on the grid."""
    idx = bisect_right([s[0] for s in segs], t) - 1
    return segs[max(idx, 0)][1]


def edge_errors(p: NDArray[np.float64], graph: InteractionGraph) -> NDArray[np.float64]:
    """Per-edge constraint violations ‖p_u - Wᵀ p_v‖ of a planar tree, from its edge list."""
    p = np.asarray(p, dtype=float)
    wedges = weighted_edges(graph)
    out = np.empty(len(wedges))
    for e, (u, v, w) in enumerate(wedges):
        r = p[2 * (u - 1):2 * u] - w.T @ p[2 * (v - 1):2 * v]
        out[e] = math.sqrt(float(r @ r))
    return out


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


def symmetric_configuration(chain: NDArray[np.float64], seed_point: NDArray[np.float64]) -> NDArray[np.float64]:
    """Stacked configuration placing node i at S_i applied to the seed point (``chain``: dn x d)."""
    return chain @ np.asarray(seed_point, dtype=float)


def steady_state_per_agent(
    p0: NDArray[np.float64], matrices: list[NDArray[np.float64]]
) -> NDArray[np.float64]:
    """Per-agent form of the flow limit: node i converges to S_i times the
    chain-aligned average (1/n)·Σ_k S_k^T p_k(0). Independent route kept for
    cross-checking against :func:`laplacian.steady_state`."""
    p0 = np.asarray(p0, dtype=float)
    n = len(matrices)
    dim = matrices[0].shape[0]
    pts = p0.reshape(n, dim)
    mean = sum(matrices[k].T @ pts[k] for k in range(n)) / n
    return np.concatenate([matrices[i] @ mean for i in range(n)])


def exponential_flow(q_matrix: NDArray[np.float64], p0: NDArray[np.float64], t: float,
                     rho: float) -> NDArray[np.float64]:
    """e^(−Qt) p0, the flow of dp/dt = −Q p at time t ≥ 0, for a symmetric Q whose eigenvalues
    lie in [−ρ, ρ], from matvecs with Q alone: s = max(1, ⌈tρ⌉) factors, each the Taylor sum
    Σ_{k=0}^{17} (−hQ)ᵏ/k! with h = t/s, applied by 17 matvecs. As ‖hQ‖₂ ≤ 1, each factor is
    within Σ_{k≥18} 1/k! < 1.7e-16 of e^(−hQ) in the 2-norm, so for a PSD Q the result is
    within s·1.7e-16·‖p0‖ of e^(−Qt) p0, plus rounding. A null vector of Q comes back to
    rounding, with no eigenvalue clamped to zero."""
    s = max(1, math.ceil(t * rho))
    h = t / s
    p = np.array(p0, dtype=float)
    for _ in range(s):
        term, total = p, p.copy()
        for k in range(1, TAYLOR_DEGREE + 1):
            term = (q_matrix @ term) * (-h / k)
            total += term
        p = total
    return p


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


def shifted_errors(p: NDArray[np.float64], ref: ReferenceState, graph: InteractionGraph) -> NDArray[np.float64]:
    """Per-edge constraint violations of the recentered configuration."""
    return edge_errors(np.asarray(p, dtype=float) - np.tile(ref.position, graph.n), graph)
