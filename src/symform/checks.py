"""The paper's structural claims about Q, checked with named tolerances."""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from . import dynamics, laplacian
from .laplacian import SYMMETRY_TOL, Gap, Route, Spectrum

ROUTE_TOL = 1e-12     # max |Q - M| for an independent construction route M
NULL_TOL = 1e-10      # max |Q V0| for the null basis V0
GRADIENT_TOL = 1e-6   # max |FD gradient - Q p| / (1 + max |Q p|)
SOLVER_TOL = 1e-6     # |RK4 - closed form| after unit time


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
                        null_matrix: NDArray[np.float64], n: int, dim: int,
                        routes: Sequence[Route] = (), seed: int = 0) -> list[CheckResult]:
    """Construction and dynamics checks on explicit matrices.

    Takes raw matrices (not built objects) so a deliberately corrupted input
    is detected rather than silently rebuilt. ``routes`` (a built Laplacian's
    ``routes``) are checked after the product route E Eᵀ.
    """
    rng = np.random.default_rng(seed)
    asym = laplacian.max_abs_difference(q_matrix, q_matrix.T)
    out = [CheckResult("symmetric", asym <= SYMMETRY_TOL,
                       f"max asymmetry {asym:.3e} (tol {_tol(SYMMETRY_TOL)})", asym)]
    sym = 0.5 * (q_matrix + q_matrix.T)  # for the spectrum only; asymmetry already reported
    spec = laplacian.spectrum(sym)
    product = ("incidence_product", "|Q - E E^T| =", incidence_matrix @ incidence_matrix.T)
    out += structure_checks(spec, n, dim, *dense_gaps(q_matrix, null_matrix, [product, *routes]))

    # gradient of 0.5 ||E^T p||^2 must match Q p (central differences, h = 1e-5)
    h = 1e-5
    points = rng.uniform(-2.0, 2.0, size=(10, dim * n))
    plus, minus = _perturbed_potentials(incidence_matrix, points, h)
    grads = points @ q_matrix.T  # Q p for each point p
    worst = float(np.max(np.abs((plus - minus) / (2 * h) - grads).max(axis=1) / (1.0 + np.abs(grads).max(axis=1))))
    out.append(CheckResult("gradient", worst <= GRADIENT_TOL,
                           f"max relative FD mismatch {worst:.3e} (tol {_tol(GRADIENT_TOL)})", worst))

    # short run of the run-path RK4 propagator against the closed-form solution
    p0 = rng.uniform(-2.0, 2.0, size=dim * n)
    dt = 0.01 / spec.lambda_max if spec.lambda_max > 0 else 0.01
    steps = int(math.ceil(1.0 / dt))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the check, unwarned
        p = dynamics.propagate_linear(p0, [(sym, steps)], dt, steps)[-1]
    solver_gap = float(np.linalg.norm(p - laplacian.closed_form_solution(sym, p0, steps * dt, spec=spec)))
    out.append(CheckResult("solver_cross_check", solver_gap <= SOLVER_TOL,
                           f"|RK4 - closed form| = {solver_gap:.3e} at t = {steps * dt:.3f} "
                           f"(tol {_tol(SOLVER_TOL)})", solver_gap))
    return out
