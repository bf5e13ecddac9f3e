"""Constraint trees as arrays (edge rotations, the chain, the scalar tree Laplacian) and their spectra."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from .symgroup import _freeze
from .topology import InteractionGraph, chain_matrices, edge_rotations, rotation_chain, tree_problem

SYMMETRY_TOL = 1e-10
RANK_TOL = 1e-9
ROW_BLOCK = 64  # rows per block when two dn x dn matrices are compared

WeightedEdge = tuple[int, int, NDArray[np.float64]]
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
    on the edge whose 0-based ends (u, v) are the same row of ``ends`` (m x 2).
    ``chain`` stacks the chain rotations S_i (dn x d): its columns, of squared
    norm n, span the null space of Q. These three are all a tree holds; ``n``
    and ``dim`` are read off the chain's shape, ``degrees`` counts the edge
    ends at each node, and ``cut`` names the missing edge of a tree that is
    the cycle C_n less one edge, as every planar tree is. On a tree
    Q = S (L ⊗ I_d) Sᵀ for the n x n scalar tree Laplacian L, so a run needs
    only these arrays: it integrates in gauge coordinates q_i = S_iᵀ p_i on
    L - shift·I, which :meth:`shifted` gives as a :class:`PathStencil` for a
    cut cycle. ``scalar``, L as a dense array, is read by the cube's runs
    (its trees are not cut cycles), and by :meth:`numeric_spectrum` for
    ``sweep`` and for the ``verify`` or run of a tree that is not a path; a
    planar segment that takes the block path forms its dense G from the
    stencil instead.

    The dense dn x dn arrays are built on first read, for ``verify``, ``sweep``
    and the tests, each by one scatter of its blocks. ``matrix`` is Q: degree·I
    on the diagonal, minus the transposed edge rotation at (u, v) and minus
    the edge rotation at (v, u). ``incidence`` is E (dn x d(n-1)): the block
    column of edge (u, v) holds +I at node u and minus W at node v, so block
    e of Eᵀ p is p_u - Wᵀ p_v, zero exactly when the edge constraint
    p_v = W p_u holds. Q equals E Eᵀ up to float roundoff; the product route
    lives in :func:`product_laplacian` so the two stay independently
    checkable. ``gauge`` is the gauge form S (L ⊗ I_d) Sᵀ of Q, whose block
    (i, j) is L_ij S_i S_jᵀ.
    """

    rotations: NDArray[np.float64]
    ends: NDArray[np.intp]
    chain: NDArray[np.float64]

    @cached_property
    def dim(self) -> int:
        return self.chain.shape[1]

    @cached_property
    def n(self) -> int:
        return self.chain.shape[0] // self.dim

    @cached_property
    def degrees(self) -> NDArray[np.intp]:
        """The number of edges at each node (n)."""
        return np.bincount(self.ends.ravel(), minlength=self.n)

    @cached_property
    def cut(self) -> int | None:
        """The 0-based node a when the tree is the cycle C_n without its edge (a, a + 1 mod n),
        as every planar tree that :func:`topology.tree_problem` passes is; None for any other tree.
        A tree whose edges all join cycle neighbours is such a path, cut between its two ends."""
        n = self.n
        u, v = self.ends.T
        if n < 3 or not np.isin((v - u) % n, (1, n - 1)).all():
            return None
        p, q = np.flatnonzero(self.degrees == 1)
        return int(p) if q == p + 1 else n - 1

    def shifted(self, shift: float | complex) -> PathStencil | NDArray:
        """G = L - shift·I: a :class:`PathStencil` when the tree is C_n less one edge
        (:attr:`cut`), so no n x n array is formed; else a new dense n x n array, complex
        for a complex ``shift``."""
        if self.cut is not None:
            return PathStencil(self.degrees, self.cut, shift)
        g = self.scalar.astype(np.result_type(shift))
        g.flat[::self.n + 1] -= shift
        return g

    @cached_property
    def scalar(self) -> NDArray[np.float64]:
        """L: the degrees on the diagonal, -1 at (u, v) and (v, u) of each edge."""
        u, v = self.ends.T
        nodes = np.arange(self.n)
        scalar = np.zeros((self.n, self.n))
        scalar[nodes, nodes] = self.degrees
        scalar[u, v] = scalar[v, u] = -1.0
        return _freeze(scalar)

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
        q = np.empty((n + 2 * len(self.ends), d, d))
        q[:n] = self.degrees[:, None, None] * np.eye(d)
        q[n:] = -np.concatenate([self.rotations.transpose(0, 2, 1), self.rotations])
        return q

    @cached_property
    def _gauge_blocks(self) -> NDArray[np.float64]:
        """The gauge form's blocks L_ij S_i S_jᵀ on ``_pattern``, in its order."""
        rows, cols = self._pattern
        entries = np.concatenate([self.degrees, np.full(2 * len(self.ends), -1.0)])  # L on the pattern
        blocks = self.chain.reshape(self.n, self.dim, self.dim)
        return entries[:, None, None] * np.einsum("kab,kcb->kac", blocks[rows], blocks[cols])

    @cached_property
    def _gauge_gap(self) -> tuple[float, float]:
        """max |Q - S (L ⊗ I_d) Sᵀ| and its Frobenius norm, from one difference of the tree's blocks."""
        gaps = self._blocks - self._gauge_blocks
        return float(np.abs(gaps).max()), math.sqrt(float(np.vdot(gaps, gaps)))

    @property
    def route_gaps(self) -> tuple[Gap, ...]:
        """The gauge route's (name, label, max |Q - S (L ⊗ I_d) Sᵀ|), taken without a dense Q on the
        tree's blocks, where both matrices are nonzero; ``verify`` checks the other routes."""
        return (("construction_routes", "route disagreement", self._gauge_gap[0]),)

    @property
    def null_gap(self) -> float:
        """max |Q V0| for V0 = ``chain``: row block i of Q V0 sums Q_ij S_j over the tree's blocks."""
        rows, cols = self._pattern
        product = np.zeros((self.n, self.dim, self.dim))
        np.add.at(product, rows, self._blocks @ self.chain.reshape(self.n, self.dim, self.dim)[cols])
        return float(np.abs(product).max())

    @property
    def spread(self) -> float:
        """‖Q - S (L ⊗ I_d) Sᵀ‖_F, summed over the tree's n diagonal and 2(n - 1) edge
        blocks (both matrices are zero elsewhere). By Weyl's inequality it bounds how far
        the k-th smallest eigenvalue of ``matrix`` lies from the k-th smallest of L ⊗ I_d."""
        return self._gauge_gap[1]

    @property
    def is_path(self) -> bool:
        """True when no node has degree 3 or more: the tree is a path, and :attr:`spectrum`
        reads the path formula instead of an eigensolver."""
        return bool(self.degrees.max() <= 2)

    @cached_property
    def spectrum(self) -> Spectrum:
        """Eigenvalues of ``matrix``: those of the n x n tree Laplacian L, each repeated d
        times, with ``spread`` as the bound on their distance from Q's.

        A spanning tree in which no node has degree 3 or more is a path, and the
        Laplacian of a path on n nodes has the eigenvalues 4 sin²(kπ/2n),
        k = 0, …, n - 1 (Brouwer & Haemers, *Spectra of Graphs*, §1.4.4): sorted,
        λ_0 exactly 0, each within a few ulps of λ_max of the true value, and no
        eigensolver runs. Every planar tree and the default cube tree are paths.
        Any other tree takes :meth:`numeric_spectrum`. No eigenvectors are formed,
        so ``eigenvectors`` is None. Computed on first use and kept (the arrays are
        read-only).
        """
        if not self.is_path:
            return self.numeric_spectrum()
        path = 4.0 * np.sin(np.arange(self.n) * (math.pi / (2 * self.n))) ** 2
        return Spectrum(eigenvalues=_freeze(np.repeat(path, self.dim)), spread=self.spread)

    def numeric_spectrum(self) -> Spectrum:
        """The spectrum of any tree from an eigensolver: ``eigvalsh`` of L
        (``spectrum(L, vectors=False)``), each value repeated d times, with ``spread``.
        ``sweep`` takes its PSD and rank verdicts from it, so they are measured, not
        read off the path formula; :attr:`spectrum` takes it for a tree that is not a path."""
        scalar = spectrum(self.scalar, vectors=False)
        return Spectrum(eigenvalues=_freeze(np.repeat(scalar.eigenvalues, self.dim)), spread=self.spread)


@dataclass(frozen=True, eq=False)
class PathStencil:
    """G = L - shift·I for the Laplacian L of the cycle C_n without its edge (cut, cut + 1 mod n),
    held as L's ``degrees`` (n), the 0-based ``cut`` and the ``shift``: real, or complex for a
    G acting on planar points x + iy. No n x n array is formed until :meth:`dense` is called.

    ``g @ x`` applies G to (n, columns) rows by slices over all columns at once: row i is
    (deg_i - shift)·x_i less its cycle neighbours x_(i-1) and x_(i+1) (mod n), but for
    the cut edge's. Each row sums its terms in ascending column order (row 0 takes its
    wrap term x_(n-1) last, row n - 1 its wrap term x_0 first) and adds 0.0 to the sum,
    which turns a -0.0 sum into 0.0 and leaves every other as it is. The bytes of every
    planar segment that takes the stencil path depend on that order.
    """

    degrees: NDArray[np.intp]
    cut: int
    shift: float | complex

    @property
    def shape(self) -> tuple[int, int]:
        return self.degrees.size, self.degrees.size

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(complex if np.iscomplexobj(self.shift) else float)

    @cached_property
    def _diagonal(self) -> NDArray:
        """deg_i - shift as an (n, 1) column, the entries :meth:`dense` puts on G's diagonal."""
        return (self.degrees - self.shift)[:, None]

    @cached_property
    def _terms(self) -> tuple[tuple[slice, slice], ...]:
        """(rows, neighbours) slice pairs, each row's neighbour terms in the order the row
        takes them: x_(i-1), then x_(i+1), then row 0's wrap term x_(n-1). A row n - 1 of
        three terms is left out: ``@`` subtracts x_0 + x_(n-2) from it in one step."""
        a, n = self.cut, self.degrees.size
        if a == n - 1:  # the path runs in node order
            pairs = [(slice(1, n), slice(0, n - 1)), (slice(0, n - 1), slice(1, n))]
        else:
            pairs = [(slice(1, a + 1), slice(0, a)), (slice(a + 2, n - 1), slice(a + 1, n - 2)),
                     (slice(0, a), slice(1, a + 1)), (slice(a + 1, n - 1), slice(a + 2, n)),
                     (slice(0, 1), slice(n - 1, n))]
            if a == n - 2:
                pairs.append((slice(n - 1, n), slice(0, 1)))
        return tuple((rows, cols) for rows, cols in pairs if rows.start < rows.stop)

    def __matmul__(self, x: NDArray) -> NDArray:
        y = self._diagonal * x
        for rows, cols in self._terms:
            block = y[rows]
            np.subtract(block, x[cols], out=block)
        if self.cut < x.shape[0] - 2:  # row n - 1 sums (-x_0 - x_(n-2)) + D, which is D - (x_0 + x_(n-2))
            block = y[-1]
            np.subtract(block, x[0] + x[-2], out=block)
        y += 0.0
        return y

    def dense(self) -> NDArray:
        """G as a new n x n array, the bits ``L - shift·I`` has from the dense L."""
        n = self.degrees.size
        g = np.zeros((n, n), dtype=self.dtype)
        g.flat[::n + 1] = self.degrees
        u = np.delete(np.arange(n), self.cut)
        v = (u + 1) % n
        g[u, v] = g[v, u] = -1.0
        g.flat[::n + 1] -= self.shift
        return g


def laplacian_from_edges(n: int, dim: int, wedges: list[WeightedEdge]) -> SymmetryLaplacian:
    """The arrays of a spanning tree of matrix-weighted edges (u, v, W), W mapping p_u to p_v.

    The edges are checked with :func:`topology.tree_problem` and walked by
    :func:`chain_matrices`; any other edge set raises ValueError. No dn x dn
    array is formed.
    """
    problem = tree_problem(n, [(u, v) for (u, v, _) in wedges], cycle=False)
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
    return SymmetryLaplacian(
        rotations=_freeze(np.array([w for (_, _, w) in wedges], dtype=float).reshape(-1, dim, dim)),
        ends=np.array([(u, v) for (u, v, _) in wedges], dtype=np.intp).reshape(-1, 2) - 1, chain=_freeze(chain),
    )


def build_laplacian(graph: InteractionGraph) -> SymmetryLaplacian:
    """The arrays of a planar constraint tree whose ends :func:`topology.tree_problem` passes:
    its edge rotations (:func:`topology.edge_rotations`), its 0-based ends and the exact-shift
    chain of :func:`null_basis`. No per-edge or per-node Python object is formed."""
    return SymmetryLaplacian(rotations=_freeze(edge_rotations(graph)), ends=graph.ends - 1,
                             chain=null_basis(graph))


def product_laplacian(incidence: NDArray[np.float64]) -> NDArray[np.float64]:
    """The independent product-form route E @ E.T (cross-check against block assembly)."""
    return incidence @ incidence.T


def null_basis(graph: InteractionGraph) -> NDArray[np.float64]:
    """Stacked chain rotations S_i = R(k_i · 2π/n) of a planar tree (dn x d), the null basis of Q.

    Entries are ``np.cos`` and ``np.sin`` of the angles k_i · (2π/n) of the exact shifts
    of :func:`rotation_chain`; the tests hold them to the bits :func:`symgroup.rotation2`
    (``math.cos``, ``math.sin``) gives each rotation.
    """
    angles = rotation_chain(graph) * (math.tau / graph.n)
    cos, sin = np.cos(angles), np.sin(angles)
    chain = np.empty((graph.n, 2, 2))
    chain[:, 0, 0] = chain[:, 1, 1] = cos
    chain[:, 0, 1] = -sin
    chain[:, 1, 0] = sin
    return _freeze(chain.reshape(2 * graph.n, 2))


def steady_state(p0: NDArray[np.float64], chain: NDArray[np.float64]) -> NDArray[np.float64]:
    """Limit of the constraint gradient flow: the orthogonal projection of the start onto
    the span of the stacked chain (dn x d, columns of squared norm n)."""
    p0 = np.asarray(p0, dtype=float)
    dn, d = chain.shape
    if p0.shape != (dn,):
        raise ValueError(f"configuration has shape {p0.shape}, expected ({dn},)")
    return chain @ (chain.T @ p0) / (dn // d)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues of a symmetric PSD matrix with a rank tolerance.

    Eigenvalues below ``threshold`` = ``RANK_TOL``·max(1, λ_max) count as zero.
    ``spread`` bounds the distance of each eigenvalue of the matrix from
    ``eigenvalues``: 0 for a direct decomposition (:func:`spectrum`),
    ‖Q - S (L ⊗ I_d) Sᵀ‖_F for one in the gauge. ``eigenvectors`` are
    filled only by ``spectrum(q)`` with its default ``vectors=True``; the
    gauge spectrum and ``spectrum(q, vectors=False)`` hold eigenvalues only.
    """

    eigenvalues: NDArray[np.float64]
    spread: float = 0.0
    eigenvectors: NDArray[np.float64] | None = None

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])

    @property
    def threshold(self) -> float:
        """The zero threshold ``RANK_TOL``·max(1, λ_max)."""
        return RANK_TOL * max(1.0, self.lambda_max)

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


def spectrum(q_matrix: NDArray[np.float64], *, vectors: bool = True) -> Spectrum:
    """Symmetric eigendecomposition with a relative zero threshold.

    With ``vectors=False`` only the eigenvalues are computed (``eigvalsh``,
    about half the time of ``eigh`` on a large matrix) and ``eigenvectors``
    is None; the values agree with ``eigh``'s to rounding, not bit for bit.
    Raises ValueError when the matrix is visibly asymmetric (a construction
    bug, never silently symmetrized) and NumericFailure when the
    eigensolver does not converge.
    """
    q_matrix = np.asarray(q_matrix, dtype=float)
    asym = max_abs_difference(q_matrix, q_matrix.T)
    if asym > SYMMETRY_TOL:
        raise ValueError(f"matrix asymmetry {asym:.3e} exceeds {SYMMETRY_TOL:.0e}")
    try:
        if not vectors:
            return Spectrum(eigenvalues=_freeze(np.linalg.eigvalsh(q_matrix)))
        eigenvalues, eigenvectors = np.linalg.eigh(q_matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure(f"eigendecomposition failed: {exc}") from exc
    return Spectrum(eigenvalues=_freeze(eigenvalues), eigenvectors=_freeze(eigenvectors))

