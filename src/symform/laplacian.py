"""Constraint trees as arrays (edge rotations, the chain, the scalar tree Laplacian) and their spectra."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from .symgroup import _freeze
from .topology import InteractionGraph, chain_matrices, rotation_chain, tree_problem, weighted_edges

SYMMETRY_TOL = 1e-10
RANK_TOL = 1e-9
ROW_BLOCK = 64  # rows per block when two dn x dn matrices are compared

WeightedEdge = tuple[int, int, NDArray[np.float64]]
Route = tuple[str, str, NDArray[np.float64]]  # (check name, detail label, matrix)
Gap = tuple[str, str, float]  # (check name, detail label, max |Q - M| for a route M)


class NumericFailure(Exception):
    """A linear-algebra routine failed to converge or produced garbage."""


def max_abs_difference(a: NDArray[np.float64], b: NDArray[np.float64]) -> float:
    """max |a - b|, formed ``ROW_BLOCK`` rows at a time, so two dn x dn matrices are
    compared without a dn x dn temporary."""
    return float(np.max([np.abs(a[lo:lo + ROW_BLOCK] - b[lo:lo + ROW_BLOCK]).max()
                         for lo in range(0, a.shape[0], ROW_BLOCK)]))


@dataclass(frozen=True, eq=False)
class SymmetryLaplacian:
    """A spanning tree of n - 1 rotation-labelled edges on n agents in R^d, held as arrays.

    ``rotations`` (m x d x d) holds each edge's rotation W, mapping p_u to p_v
    on the edge (u, v) that ``edge_index`` lists at the same position.
    ``chain`` stacks the chain rotations S_i (dn x d): its columns, of squared
    norm n, span the null space of Q. ``scalar`` is the n x n scalar tree
    Laplacian L. On a tree Q = S (L ⊗ I_d) Sᵀ, so a run needs only these
    arrays: it integrates in gauge coordinates q_i = S_iᵀ p_i on L.

    The dense dn x dn arrays are built on first read, for ``verify``, ``sweep``
    and the tests, each by one scatter of its blocks. ``matrix`` is Q: degree·I
    on the diagonal, minus the transposed edge rotation at (u, v) and minus
    the edge rotation at (v, u). ``incidence`` is E (dn x d(n-1)): the block
    column of edge (u, v) holds +I at node u and minus W at node v, so block
    e of Eᵀ p is p_u - Wᵀ p_v, zero exactly when the edge constraint
    p_v = W p_u holds. Q equals E Eᵀ up to float roundoff; the product route
    lives in :func:`product_laplacian` so the two stay independently
    checkable. ``gauge`` is the gauge form S (L ⊗ I_d) Sᵀ of Q, whose block
    (i, j) is L_ij S_i S_jᵀ. ``composed`` is a second assembly of Q from
    sub-blocks, when the builder has one (the cube's face and cross blocks).
    """

    rotations: NDArray[np.float64]
    edge_index: tuple[tuple[int, int], ...]
    chain: NDArray[np.float64]
    scalar: NDArray[np.float64]
    n: int
    dim: int
    composed: NDArray[np.float64] | None = None

    @cached_property
    def matrix(self) -> NDArray[np.float64]:
        return self._dense(self._blocks)

    @cached_property
    def incidence(self) -> NDArray[np.float64]:
        u, v = self.ends.T
        edges = np.arange(len(u))
        E = np.zeros((self.n, self.dim, len(u), self.dim))
        E[u, :, edges, :] = np.eye(self.dim)
        E[v, :, edges, :] = -self.rotations
        return _freeze(E.reshape(self.n * self.dim, -1))

    @cached_property
    def gauge(self) -> NDArray[np.float64]:
        return self._dense(self._gauge_blocks)

    def _dense(self, blocks: NDArray[np.float64]) -> NDArray[np.float64]:
        """The dn x dn array of ``blocks`` on ``_pattern``, zero elsewhere. The blocks are
        added onto zeros, so an entry -0.0 lands as 0.0, the bits a per-edge assembly writes."""
        n, d = self.n, self.dim
        rows, cols = self._pattern
        dense = np.zeros((n, d, n, d))
        dense[rows, :, cols, :] += blocks
        return _freeze(dense.reshape(n * d, n * d))

    @cached_property
    def ends(self) -> NDArray[np.intp]:
        """The 0-based ends (u, v) of each edge of ``edge_index`` (m x 2)."""
        return np.array(self.edge_index, dtype=np.intp).reshape(-1, 2) - 1

    @cached_property
    def _pattern(self) -> tuple[NDArray[np.intp], NDArray[np.intp]]:
        """Block rows and columns of L's nonzero pattern: the n diagonal blocks, then
        (u, v) of every edge, then (v, u) of every edge (0-based)."""
        u, v = self.ends.T
        nodes = np.arange(self.n)
        return np.concatenate([nodes, u, v]), np.concatenate([nodes, v, u])

    @cached_property
    def _blocks(self) -> NDArray[np.float64]:
        """Q's blocks on ``_pattern``, in its order: deg_i I, then -Wᵀ at (u, v), then -W at (v, u)."""
        n, d = self.n, self.dim
        q = np.empty((n + 2 * len(self.edge_index), d, d))
        q[:n] = self.scalar[np.arange(n), np.arange(n), None, None] * np.eye(d)
        q[n:] = -np.concatenate([self.rotations.transpose(0, 2, 1), self.rotations])
        return q

    @cached_property
    def _gauge_blocks(self) -> NDArray[np.float64]:
        """The gauge form's blocks L_ij S_i S_jᵀ on ``_pattern``, in its order."""
        rows, cols = self._pattern
        blocks = self.chain.reshape(self.n, self.dim, self.dim)
        return self.scalar[rows, cols, None, None] * np.einsum("kab,kcb->kac", blocks[rows], blocks[cols])

    @property
    def routes(self) -> tuple[Route, ...]:
        """Independent constructions of ``matrix`` as (name, label, matrix).

        ``construction_routes`` is ``composed`` when the builder gave one,
        followed by the gauge form as ``gauge_route``; otherwise it is the
        gauge form.
        """
        if self.composed is None:
            return (("construction_routes", "route disagreement", self.gauge),)
        return (("construction_routes", "route disagreement", self.composed),
                ("gauge_route", "|Q - S (L x I) S^T| =", self.gauge))

    @property
    def route_gaps(self) -> tuple[Gap, ...]:
        """max |Q - M| for each of ``routes``, as (name, label, gap), without a dense Q for
        the gauge form: its gap is taken on the tree's blocks, where both matrices are
        nonzero. The cube's 24 x 24 ``composed`` is compared densely."""
        gauge = float(np.abs(self._blocks - self._gauge_blocks).max())
        if self.composed is None:
            return (("construction_routes", "route disagreement", gauge),)
        return (("construction_routes", "route disagreement", max_abs_difference(self.matrix, self.composed)),
                ("gauge_route", "|Q - S (L x I) S^T| =", gauge))

    @property
    def null_gap(self) -> float:
        """max |Q V0| for V0 = ``chain``: row block i of Q V0 sums Q_ij S_j over the tree's blocks."""
        rows, cols = self._pattern
        product = np.zeros((self.n, self.dim, self.dim))
        np.add.at(product, rows, self._blocks @ self.chain.reshape(self.n, self.dim, self.dim)[cols])
        return float(np.abs(product).max())

    @cached_property
    def spectrum(self) -> Spectrum:
        """Eigenvalues of ``matrix`` from one eigendecomposition of the n x n tree Laplacian L.

        Eigenvalues are L's, each repeated d times; no eigenvectors are kept.
        ``spread`` is ‖Q - S (L ⊗ I_d) Sᵀ‖_F, summed over the tree's n diagonal
        and 2(n - 1) edge blocks (both matrices are zero elsewhere); by Weyl's
        inequality it bounds how far each eigenvalue of ``matrix`` lies from
        the one reported. Computed on first use and kept (the arrays are read-only).
        """
        gaps = self._blocks - self._gauge_blocks
        spread = math.sqrt(float(np.vdot(gaps, gaps)))
        scalar = spectrum(self.scalar)
        return Spectrum(eigenvalues=_freeze(np.repeat(scalar.eigenvalues, self.dim)),
                        tol=scalar.tol, spread=spread)


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


def laplacian_from_edges(
    n: int, dim: int, wedges: list[WeightedEdge], chain: NDArray[np.float64] | None = None,
) -> SymmetryLaplacian:
    """The arrays of a spanning tree of matrix-weighted edges (u, v, W), W mapping p_u to p_v.

    ``chain`` is the stacked chain rotations when the caller has walked the
    tree already (planar trees: exact shifts, see :func:`null_basis`);
    otherwise the edges are checked with :func:`topology.tree_problem` and
    walked by :func:`chain_matrices`. Any other edge set raises ValueError.
    No dn x dn array is formed.
    """
    if chain is not None:
        problem = None if len(wedges) == n - 1 else f"{len(wedges)} edges on {n} nodes"
    else:
        problem = tree_problem(n, wedges)
        if problem is None:
            try:
                chain = np.vstack(chain_matrices(n, wedges))
            except ValueError as exc:
                problem = str(exc)
    if problem is not None:
        raise ValueError(f"constraint edges do not form a spanning tree: {problem}")
    for (u, v, w) in wedges:
        if w.shape != (dim, dim):
            raise ValueError(f"edge ({u}, {v}) weight has shape {w.shape}, expected ({dim}, {dim})")
    u = np.array([a - 1 for (a, _, _) in wedges], dtype=int)
    v = np.array([b - 1 for (_, b, _) in wedges], dtype=int)
    nodes = np.arange(n)
    scalar = np.zeros((n, n))
    scalar[nodes, nodes] = np.bincount(np.concatenate([u, v]), minlength=n)
    scalar[u, v] = scalar[v, u] = -1.0
    return SymmetryLaplacian(
        rotations=_freeze(np.array([w for (_, _, w) in wedges], dtype=float).reshape(-1, dim, dim)),
        edge_index=tuple((a, b) for (a, b, _) in wedges), chain=_freeze(chain),
        scalar=_freeze(scalar), n=n, dim=dim,
    )


def build_laplacian(graph: InteractionGraph) -> SymmetryLaplacian:
    """Laplacian of a planar constraint tree that :func:`topology.validate` accepts,
    carrying its exact-shift chain (the tree is walked once, by :func:`null_basis`)."""
    return laplacian_from_edges(graph.n, 2, weighted_edges(graph), chain=null_basis(graph))


def product_laplacian(incidence: NDArray[np.float64]) -> NDArray[np.float64]:
    """The independent product-form route E @ E.T (cross-check against block assembly)."""
    return incidence @ incidence.T


def null_basis(graph: InteractionGraph) -> NDArray[np.float64]:
    """Stacked chain rotations S_i = R(k_i · 2π/n) of a planar tree (dn x d), the null basis of Q.

    Entries are cos and sin of the exact shifts of :func:`rotation_chain`, the
    bits :func:`symgroup.rotation2` gives each rotation.
    """
    angles = [k * (math.tau / graph.n) for k in rotation_chain(graph)]
    cos = np.array([math.cos(a) for a in angles])
    sin = np.array([math.sin(a) for a in angles])
    chain = np.empty((graph.n, 2, 2))
    chain[:, 0, 0] = chain[:, 1, 1] = cos
    chain[:, 0, 1] = -sin
    chain[:, 1, 0] = sin
    return _freeze(chain.reshape(2 * graph.n, 2))


def symmetric_configuration(chain: NDArray[np.float64], seed_point: NDArray[np.float64]) -> NDArray[np.float64]:
    """Stacked configuration placing node i at S_i applied to the seed point (``chain``: dn x d)."""
    return chain @ np.asarray(seed_point, dtype=float)


def steady_state(p0: NDArray[np.float64], chain: NDArray[np.float64]) -> NDArray[np.float64]:
    """Limit of the constraint gradient flow: the orthogonal projection of the start onto
    the span of the stacked chain (dn x d, columns of squared norm n)."""
    p0 = np.asarray(p0, dtype=float)
    dn, d = chain.shape
    if p0.shape != (dn,):
        raise ValueError(f"configuration has shape {p0.shape}, expected ({dn},)")
    return chain @ (chain.T @ p0) / (dn // d)


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
    """Eigenvalues of a symmetric PSD matrix with a rank tolerance.

    Eigenvalues below ``threshold`` = tol·max(1, λ_max) count as zero.
    ``spread`` bounds the distance of each eigenvalue of the matrix from
    ``eigenvalues``: 0 for a direct decomposition (:func:`spectrum`, the only
    one with ``eigenvectors``), ‖Q - S (L ⊗ I_d) Sᵀ‖_F for one in the gauge.
    """

    eigenvalues: NDArray[np.float64]
    tol: float
    spread: float = 0.0
    eigenvectors: NDArray[np.float64] | None = None

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])

    @property
    def threshold(self) -> float:
        """The zero threshold tol·max(1, λ_max)."""
        return self.tol * max(1.0, self.lambda_max)

    @cached_property
    def null_dim(self) -> int:
        return int(np.sum(np.abs(self.eigenvalues) < self.threshold))

    @property
    def rank(self) -> int:
        return self.eigenvalues.size - self.null_dim

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
    asym = max_abs_difference(q_matrix, q_matrix.T)
    if asym > SYMMETRY_TOL:
        raise ValueError(f"matrix asymmetry {asym:.3e} exceeds {SYMMETRY_TOL:.0e}")
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(q_matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure(f"eigendecomposition failed: {exc}") from exc
    return Spectrum(eigenvalues=_freeze(eigenvalues), tol=tol, eigenvectors=_freeze(eigenvectors))


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
    lam[np.abs(lam) < spec.threshold] = 0.0
    V = spec.eigenvectors
    return V @ (np.exp(-lam * t) * (V.T @ p0))
