"""Symmetry-constraining incidence and Laplacian matrices, null bases, spectra."""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from .symgroup import PointGroupAssignment, _freeze
from .topology import InteractionGraph, RotationChain, chain_matrices, rotation_chain, weighted_edges

SYMMETRY_TOL = 1e-10
RANK_TOL = 1e-9

WeightedEdge = tuple[int, int, NDArray[np.float64]]
Route = tuple[str, str, NDArray[np.float64]]  # (check name, detail label, matrix)


class NumericFailure(Exception):
    """A linear-algebra routine failed to converge or produced garbage."""


@dataclass(frozen=True, eq=False)
class SymmetryIncidence:
    """Block incidence matrix of a constraint-labeled tree.

    The block column of edge (u, v) holds +I at node u and minus the edge
    rotation at node v, so column e of ``residuals`` is p_u - W_e^T p_v:
    zero exactly when the edge constraint p_v = W_e p_u holds.
    """

    matrix: NDArray[np.float64]
    n: int
    dim: int
    edge_count: int
    edge_index: tuple[tuple[int, int], ...]

    def residuals(self, p: NDArray[np.float64]) -> NDArray[np.float64]:
        """Per-edge residual vectors, shape (m, d)."""
        return (self.matrix.T @ np.asarray(p, dtype=float)).reshape(self.edge_count, self.dim)


def incidence_from_edges(n: int, dim: int, wedges: list[WeightedEdge]) -> SymmetryIncidence:
    """Assemble the dn x dm incidence matrix from matrix-weighted edges."""
    m = len(wedges)
    E = np.zeros((dim * n, dim * m))
    index = []
    for e, (u, v, w) in enumerate(wedges):
        if w.shape != (dim, dim):
            raise ValueError(f"edge ({u}, {v}) weight has shape {w.shape}, expected ({dim}, {dim})")
        E[dim * (u - 1):dim * u, dim * e:dim * (e + 1)] = np.eye(dim)
        E[dim * (v - 1):dim * v, dim * e:dim * (e + 1)] = -w
        index.append((u, v))
    return SymmetryIncidence(matrix=_freeze(E), n=n, dim=dim, edge_count=m, edge_index=tuple(index))


def build_incidence(graph: InteractionGraph, tau: PointGroupAssignment) -> SymmetryIncidence:
    """Incidence matrix of a planar constraint tree."""
    return incidence_from_edges(graph.n, 2, weighted_edges(graph, tau))


@dataclass(frozen=True, eq=False)
class TreeGauge:
    """A constraint tree in the gauge of its chain rotations: Q = S (L ⊗ I_d) Sᵀ.

    ``chain`` stacks the rotations S_i (dn x d, the null basis V0), ``scalar``
    is the n x n scalar tree Laplacian L and ``matrix`` the dn x dn product
    S (L ⊗ I_d) Sᵀ, whose block (i, j) is L_ij S_i S_jᵀ.
    """

    chain: NDArray[np.float64]
    scalar: NDArray[np.float64]
    matrix: NDArray[np.float64]


def tree_gauge(basis: NullBasis, wedges: tuple[WeightedEdge, ...] | list[WeightedEdge]) -> TreeGauge:
    """Gauge form of a spanning tree whose chain rotations are stacked in ``basis``."""
    n, d = basis.n, basis.dim
    if len(wedges) != n - 1:
        raise ValueError(f"the gauge form needs a spanning tree of {n - 1} edges, got {len(wedges)}")
    u = np.array([a - 1 for (a, _, _) in wedges], dtype=int)
    v = np.array([b - 1 for (_, b, _) in wedges], dtype=int)
    nodes = np.arange(n)
    scalar = np.zeros((n, n))
    scalar[nodes, nodes] = np.bincount(np.concatenate([u, v]), minlength=n)
    scalar[u, v] = scalar[v, u] = -1.0
    # only the blocks on L's pattern (diagonal and tree edges) are nonzero
    rows, cols = np.concatenate([nodes, u, v]), np.concatenate([nodes, v, u])
    chain = basis.v0.reshape(n, d, d)
    matrix = np.zeros((n, d, n, d))
    blocks = np.einsum("kab,kcb->kac", chain[rows], chain[cols])
    matrix[rows, :, cols, :] = scalar[rows, cols, None, None] * blocks
    return TreeGauge(chain=basis.v0, scalar=_freeze(scalar), matrix=_freeze(matrix.reshape(n * d, n * d)))


@dataclass(frozen=True, eq=False)
class SymmetryLaplacian:
    """Matrix-weighted Laplacian of a constraint tree.

    ``matrix`` is assembled block-wise: degree·I on the diagonal, minus the
    transposed edge rotation at (u, v) and minus the edge rotation at (v, u).
    It equals incidence @ incidence.T up to float roundoff; the product route
    lives in :func:`product_laplacian` so the two stay independently checkable.
    ``basis`` stacks the chain rotations S_i when they are known at assembly
    (planar trees: exact integer shifts, the cube: its BFS chain); without it
    they are taken from BFS products of the edge rotations when ``gauge`` is
    first read. ``composed`` is a second assembly of ``matrix`` from
    sub-blocks, when the builder has one (the cube's face and cross blocks).
    """

    matrix: NDArray[np.float64]
    incidence: SymmetryIncidence
    n: int
    dim: int
    wedges: tuple[WeightedEdge, ...] = field(default=())
    basis: NullBasis | None = None
    composed: NDArray[np.float64] | None = None

    @property
    def edge_count(self) -> int:
        return self.incidence.edge_count

    @cached_property
    def gauge(self) -> TreeGauge:
        """Q = S (L ⊗ I_d) Sᵀ, built on first use (a non-spanning edge set raises ValueError)."""
        basis = self.basis
        if basis is None:
            basis = null_basis_from_chain(chain_matrices(self.n, list(self.wedges)))
        return tree_gauge(basis, self.wedges)

    @cached_property
    def routes(self) -> tuple[Route, ...]:
        """Independent constructions of ``matrix`` as (name, label, matrix), built on first use.

        ``construction_routes`` is ``composed`` when the builder gave one,
        followed by the gauge form as ``gauge_route``; otherwise it is the
        gauge form.
        """
        gauge = self.gauge.matrix
        if self.composed is None:
            return (("construction_routes", "route disagreement", gauge),)
        return (("construction_routes", "route disagreement", self.composed),
                ("gauge_route", "|Q - S (L x I) S^T| =", gauge))

    @cached_property
    def spectrum(self) -> Spectrum:
        """Spectrum of ``matrix`` from one eigendecomposition of the n x n tree Laplacian L.

        Eigenvalues are L's, each repeated d times, and eigenvectors
        S (V_L ⊗ I_d). ``spread`` is ‖Q - S (L ⊗ I_d) Sᵀ‖_F, which by Weyl's
        inequality bounds how far each eigenvalue of ``matrix`` lies from the
        one reported. Computed on first use and kept (the matrix is read-only).
        """
        gauge = self.gauge
        scalar = spectrum(gauge.scalar)
        n, d = self.n, self.dim
        chain = gauge.chain.reshape(n, d, d)
        vectors = np.empty((n, d, n, d))  # entry (i, a, k, b) is (S_i)_ab (V_L)_ik
        for a in range(d):
            for b in range(d):
                np.multiply(chain[:, a, b, None], scalar.eigenvectors, out=vectors[:, a, :, b])
        return Spectrum(
            eigenvalues=_freeze(np.repeat(scalar.eigenvalues, d)),
            eigenvectors=_freeze(vectors.reshape(n * d, n * d)),
            tol=scalar.tol, rank=d * scalar.rank, null_dim=d * scalar.null_dim,
            spread=float(np.linalg.norm(self.matrix - gauge.matrix)),
        )


def laplacian_from_edges(
    n: int, dim: int, wedges: list[WeightedEdge], basis: NullBasis | None = None,
    composed: NDArray[np.float64] | None = None,
) -> SymmetryLaplacian:
    """Block-entry Laplacian assembly for matrix-weighted edges (``basis``: the tree's chain,
    ``composed``: a second assembly of the same matrix, if known)."""
    Q = np.zeros((dim * n, dim * n))
    eye = np.eye(dim)
    for (u, v, w) in wedges:
        bu = slice(dim * (u - 1), dim * u)
        bv = slice(dim * (v - 1), dim * v)
        Q[bu, bu] += eye
        Q[bv, bv] += eye
        Q[bu, bv] -= w.T
        Q[bv, bu] -= w
    inc = incidence_from_edges(n, dim, wedges)
    frozen = tuple((u, v, _freeze(w)) for (u, v, w) in wedges)
    return SymmetryLaplacian(matrix=_freeze(Q), incidence=inc, n=n, dim=dim, wedges=frozen, basis=basis,
                             composed=None if composed is None else _freeze(composed))


def build_laplacian(graph: InteractionGraph, tau: PointGroupAssignment) -> SymmetryLaplacian:
    """Laplacian of a planar constraint tree, carrying its exact-shift chain as ``basis``."""
    return laplacian_from_edges(graph.n, 2, weighted_edges(graph, tau), basis=null_basis(graph, tau))


def product_laplacian(incidence: SymmetryIncidence) -> NDArray[np.float64]:
    """The independent product-form route E @ E.T (cross-check against block assembly)."""
    return incidence.matrix @ incidence.matrix.T


@dataclass(frozen=True, eq=False)
class NullBasis:
    """Stacked rotation-chain basis of the Laplacian null space (dn x d).

    Columns are orthogonal with squared norm n; ``normalized`` rescales to an
    orthonormal basis.
    """

    v0: NDArray[np.float64]
    n: int
    dim: int

    @property
    def normalized(self) -> NDArray[np.float64]:
        return self.v0 / np.sqrt(self.n)

    def project(self, p: NDArray[np.float64]) -> NDArray[np.float64]:
        """Orthogonal projection onto the basis span."""
        p = np.asarray(p, dtype=float)
        return self.v0 @ (self.v0.T @ p) / self.n


def null_basis_from_chain(matrices: list[NDArray[np.float64]]) -> NullBasis:
    """Stack per-node chain rotations into a null-space basis."""
    n = len(matrices)
    dim = matrices[0].shape[0]
    return NullBasis(v0=_freeze(np.vstack(matrices)), n=n, dim=dim)


def null_basis(graph: InteractionGraph, tau: PointGroupAssignment) -> NullBasis:
    """Null-space basis of a planar constraint tree's Laplacian."""
    return null_basis_from_chain(rotation_chain(graph, tau).matrices())


def symmetric_configuration(chain: RotationChain | list[NDArray[np.float64]], seed_point: NDArray[np.float64]) -> NDArray[np.float64]:
    """Stacked configuration placing node i at S_i applied to the seed point."""
    mats = chain.matrices() if isinstance(chain, RotationChain) else chain
    q = np.asarray(seed_point, dtype=float)
    return np.concatenate([m @ q for m in mats])


def steady_state(p0: NDArray[np.float64], basis: NullBasis) -> NDArray[np.float64]:
    """Limit of the constraint gradient flow: the null-space projection of the start."""
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (basis.n * basis.dim,):
        raise ValueError(f"configuration has shape {p0.shape}, expected ({basis.n * basis.dim},)")
    return basis.project(p0)


def steady_state_per_agent(
    p0: NDArray[np.float64], matrices: list[NDArray[np.float64]]
) -> NDArray[np.float64]:
    """Per-agent form of the flow limit: node i converges to S_i times the
    chain-aligned average (1/n)·Σ_k S_k^T p_k(0). Independent route kept for
    cross-checking against :func:`steady_state`."""
    p0 = np.asarray(p0, dtype=float)
    n = len(matrices)
    dim = matrices[0].shape[0]
    pts = p0.reshape(n, dim)
    mean = sum(matrices[k].T @ pts[k] for k in range(n)) / n
    return np.concatenate([matrices[i] @ mean for i in range(n)])


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigen-decomposition of a symmetric PSD matrix with a rank tolerance.

    Eigenvalues below tol·max(1, λ_max) count as zero. ``spread`` bounds the
    distance of each eigenvalue of the matrix from ``eigenvalues``: 0 for a
    direct decomposition, ‖Q - S (L ⊗ I_d) Sᵀ‖_F for one taken in the gauge.
    """

    eigenvalues: NDArray[np.float64]
    eigenvectors: NDArray[np.float64]
    tol: float
    rank: int
    null_dim: int
    spread: float = 0.0

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])

    @property
    def lambda_min_pos(self) -> float | None:
        """Smallest eigenvalue counted as nonzero; None for a zero matrix."""
        if self.rank == 0:
            return None
        return float(self.eigenvalues[self.null_dim])


def spectrum(q_matrix: NDArray[np.float64], tol: float = RANK_TOL) -> Spectrum:
    """Symmetric eigendecomposition with a relative zero threshold.

    Raises ValueError when the matrix is visibly asymmetric (a construction
    bug, never silently symmetrized) and NumericFailure when the
    eigensolver does not converge.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    q_matrix = np.asarray(q_matrix, dtype=float)
    asym = np.abs(q_matrix - q_matrix.T).max()
    if asym > SYMMETRY_TOL:
        raise ValueError(f"matrix asymmetry {asym:.3e} exceeds {SYMMETRY_TOL:.0e}")
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(q_matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure(f"eigendecomposition failed: {exc}") from exc
    threshold = tol * max(1.0, float(eigenvalues[-1]))
    null_dim = int(np.sum(np.abs(eigenvalues) < threshold))
    rank = eigenvalues.size - null_dim
    return Spectrum(
        eigenvalues=_freeze(eigenvalues), eigenvectors=_freeze(eigenvectors),
        tol=tol, rank=rank, null_dim=null_dim,
    )


def closed_form_solution(
    q_matrix: NDArray[np.float64],
    p0: NDArray[np.float64],
    t: float,
    spec: Spectrum | None = None,
) -> NDArray[np.float64]:
    """Exact solution of dp/dt = -Q p at time t via the eigendecomposition.

    Eigenvalues under the rank tolerance are clamped to zero so the
    null-space component is preserved exactly for any horizon.
    """
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    p0 = np.asarray(p0, dtype=float)
    if spec is None:
        spec = spectrum(q_matrix)
    lam = spec.eigenvalues.copy()
    lam[np.abs(lam) < spec.tol * max(1.0, spec.lambda_max)] = 0.0
    V = spec.eigenvectors
    return V @ (np.exp(-lam * t) * (V.T @ p0))
