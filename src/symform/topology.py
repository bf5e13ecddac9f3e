"""Cycle graphs, constraint-labeled spanning trees, and rotation chains."""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .symgroup import CyclicAutomorphism, PointGroupAssignment, Rotation, rotation2


@dataclass(frozen=True)
class CycleGraph:
    """The undirected cycle C_n on vertices 1..n."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError(f"cycle graphs need n >= 3 nodes, got n={self.n}")

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, i % self.n + 1) for i in range(1, self.n + 1))

    def contains_edge(self, u: int, v: int) -> bool:
        """Undirected membership test."""
        if not (1 <= u <= self.n and 1 <= v <= self.n):
            return False
        return (u % self.n + 1 == v) or (v % self.n + 1 == u)


@dataclass(frozen=True)
class InteractionGraph:
    """A spanning tree of C_n whose directed edges carry automorphism labels.

    A stored edge (u, v, g) means the constraint "agent v sits at g applied to
    agent u": at a constraint-compatible configuration, p_v = τ(g) p_u.
    Traversed v→u the label acts as its inverse.
    """

    n: int
    edges: tuple[tuple[int, int, CyclicAutomorphism], ...]
    dim: int = 2


def cycle_minus_edge(n: int, removed: tuple[int, int]) -> InteractionGraph:
    """Spanning tree of C_n obtained by deleting one cycle edge.

    Every remaining edge (i, i+1) (and (n, 1) if kept) carries the shift-1
    automorphism, so the compatible formations are full C_n orbits.
    """
    cycle = CycleGraph(n)
    ru, rv = removed
    if not cycle.contains_edge(ru, rv):
        raise ValueError(f"removed edge {removed} is not an edge of C_{n}")
    one = CyclicAutomorphism(n, 1)
    kept = []
    for (u, v) in cycle.edges:
        if {u, v} == {ru, rv}:
            continue
        kept.append((u, v, one))
    return InteractionGraph(n=n, edges=tuple(kept))


def validate(graph: InteractionGraph) -> str | None:
    """Check the spanning-tree invariants; return the first violation or None."""
    n = graph.n
    cycle = CycleGraph(n)
    seen: set[frozenset[int]] = set()
    for (u, v, g) in graph.edges:
        if not (1 <= u <= n and 1 <= v <= n) or u == v:
            return f"invalid edge ({u}, {v})"
        if g.n != n:
            return f"edge ({u}, {v}) labeled with an automorphism of C_{g.n}, expected C_{n}"
        if not cycle.contains_edge(u, v):
            return f"edge ({u}, {v}) is not an edge of C_{n}"
        key = frozenset((u, v))
        if key in seen:
            return f"duplicate edge ({u}, {v})"
        seen.add(key)
    if len(graph.edges) > n - 1:
        return "not acyclic"
    if len(graph.edges) < n - 1:
        return "not connected"
    if len(_bfs_tree(n, graph.edges)) != n:
        return "not connected"
    return None


def require_valid(graph: InteractionGraph) -> None:
    msg = validate(graph)
    if msg is not None:
        raise ValueError(f"invalid interaction graph: {msg}")


def weighted_edges(
    graph: InteractionGraph, tau: PointGroupAssignment
) -> list[tuple[int, int, NDArray[np.float64]]]:
    """Materialize each stored edge label as its assigned rotation matrix."""
    require_valid(graph)
    if tau.n != graph.n:
        raise ValueError(f"assignment on C_{tau.n} does not match graph on C_{graph.n}")
    labels = {g.shift: g for (_, _, g) in graph.edges}
    matrices = {shift: tau.rotation_for(g).matrix for shift, g in labels.items()}  # one rotation per shift
    return [(u, v, matrices[g.shift]) for (u, v, g) in graph.edges]


def _bfs_tree(
    n: int, edges: tuple[tuple[int, int, CyclicAutomorphism], ...] | list
) -> list[tuple[int, int, object, bool]]:
    """BFS from node 1; yields (node, parent, edge_label, forward) per reached non-root node.

    ``forward`` is True when the stored edge is (parent, node).
    """
    adj: dict[int, list[tuple[int, object, bool]]] = {i: [] for i in range(1, n + 1)}
    for (u, v, g) in edges:
        adj[u].append((v, g, True))
        adj[v].append((u, g, False))
    seen = {1}
    order: list[tuple[int, int, object, bool]] = [(1, 0, None, True)]
    queue = deque([1])
    while queue:
        u = queue.popleft()
        for (v, g, fwd) in adj[u]:
            if v not in seen:
                seen.add(v)
                order.append((v, u, g, fwd))
                queue.append(v)
    return order


@dataclass(frozen=True)
class RotationChain:
    """Per-node rotations S_i mapping a seed point to each agent's target.

    S_1 is the identity; following a stored edge (u, v) multiplies by the
    edge rotation on the left, so at a compatible target p_i = S_i q.
    """

    n: int
    rotations: tuple[Rotation, ...]
    shifts: tuple[int, ...]

    def matrices(self) -> list[NDArray[np.float64]]:
        return [r.matrix for r in self.rotations]


def rotation_chain(graph: InteractionGraph, tau: PointGroupAssignment) -> RotationChain:
    """Accumulate edge automorphisms from node 1 outward.

    Shifts are composed with exact integer arithmetic mod n and materialized
    as rotations once, so no floating-point products accumulate.
    """
    require_valid(graph)
    if tau.n != graph.n:
        raise ValueError(f"assignment on C_{tau.n} does not match graph on C_{graph.n}")
    n = graph.n
    shifts: dict[int, int] = {}
    for (node, parent, g, forward) in _bfs_tree(n, graph.edges):
        if parent == 0:
            shifts[node] = 0
            continue
        step = g.shift if forward else -g.shift
        shifts[node] = (shifts[parent] + step) % n
    ordered = tuple(shifts[i] for i in range(1, n + 1))
    rotations = tuple(rotation2(s * tau.base_angle) for s in ordered)
    return RotationChain(n=n, rotations=rotations, shifts=ordered)


def chain_matrices(
    n: int, wedges: list[tuple[int, int, NDArray[np.float64]]]
) -> list[NDArray[np.float64]]:
    """Rotation chain for arbitrary matrix-weighted tree edges (BFS products from node 1)."""
    adj: dict[int, list[tuple[int, NDArray[np.float64], bool]]] = {i: [] for i in range(1, n + 1)}
    for (u, v, w) in wedges:
        adj[u].append((v, w, True))
        adj[v].append((u, w, False))
    mats: dict[int, NDArray[np.float64]] = {}
    dim = wedges[0][2].shape[0] if wedges else 2
    mats[1] = np.eye(dim)
    queue = deque([1])
    while queue:
        u = queue.popleft()
        for (v, w, fwd) in adj[u]:
            if v not in mats:
                mats[v] = (w @ mats[u]) if fwd else (w.T @ mats[u])
                queue.append(v)
    if len(mats) != n:
        raise ValueError("edges do not connect all nodes from node 1")
    return [mats[i] for i in range(1, n + 1)]
