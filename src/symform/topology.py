"""Cycle graphs, constraint-labeled spanning trees, and rotation chains."""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .symgroup import CyclicAutomorphism


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
    agent u": at a constraint-compatible configuration, p_v = R(g) p_u, with
    R(g) = ``g.rotation``.
    Traversed v→u the label acts as its inverse.
    """

    n: int
    edges: tuple[tuple[int, int, CyclicAutomorphism], ...]


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


def tree_problem(n: int, edges, edge_problem=None) -> str | None:
    """First reason the (u, v, label) ``edges`` cannot be a spanning tree of nodes 1..n, or None.

    Each edge needs distinct endpoints in 1..n, then passes ``edge_problem(u, v, label)`` (a
    message or None) when given, and may not repeat an earlier edge; then the count must be
    n - 1. Such a set is a spanning tree exactly when it is connected, which the walk that
    builds the chain (:func:`_bfs_tree`) finds out.
    """
    seen: set[frozenset[int]] = set()
    for (u, v, label) in edges:
        if not (1 <= u <= n and 1 <= v <= n) or u == v:
            return f"invalid edge ({u}, {v})"
        msg = None if edge_problem is None else edge_problem(u, v, label)
        if msg is not None:
            return msg
        key = frozenset((u, v))
        if key in seen:
            return f"duplicate edge ({u}, {v})"
        seen.add(key)
    if len(edges) > n - 1:
        return "not acyclic"
    if len(edges) < n - 1:
        return "not connected"
    return None


def validate(graph: InteractionGraph) -> str | None:
    """Check the spanning-tree invariants; return the first violation or None.

    Any n - 1 distinct edges of C_n are C_n without one edge, a path through
    every node, so a graph that passes needs no walk to prove it connected.
    """
    n = graph.n
    cycle = CycleGraph(n)

    def label_problem(u: int, v: int, g: CyclicAutomorphism) -> str | None:
        if g.n != n:
            return f"edge ({u}, {v}) labeled with an automorphism of C_{g.n}, expected C_{n}"
        if not cycle.contains_edge(u, v):
            return f"edge ({u}, {v}) is not an edge of C_{n}"
        return None

    return tree_problem(n, graph.edges, label_problem)


def weighted_edges(graph: InteractionGraph) -> list[tuple[int, int, NDArray[np.float64]]]:
    """Materialize each stored edge label as its assigned rotation matrix (one per distinct shift)."""
    labels = {g.shift: g for (_, _, g) in graph.edges}
    matrices = {shift: g.rotation.matrix for shift, g in labels.items()}
    return [(u, v, matrices[g.shift]) for (u, v, g) in graph.edges]


def _bfs_tree(n: int, edges) -> list[tuple[int, int, object, bool]]:
    """BFS from node 1 over (u, v, label) edges; (node, parent, label, forward) per reached node.

    The root comes first as (1, 0, None, True). ``forward`` is True when the
    stored edge is (parent, node). Fewer than n entries means the edges do not
    connect every node.
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


def rotation_chain(graph: InteractionGraph) -> tuple[int, ...]:
    """Shift k_i of each node's chain rotation S_i = R(k_i · 2π/n), nodes in order.

    Shifts are composed from node 1 (shift 0) outward with exact integer
    arithmetic mod n: following a stored edge (u, v) adds its shift, walking
    it backwards subtracts it. At a compatible target p_i = S_i q.
    """
    n = graph.n
    order = _bfs_tree(n, graph.edges)
    if len(order) != n:
        raise ValueError("invalid interaction graph: not connected")
    shifts = [0] * (n + 1)
    for (node, parent, g, forward) in order[1:]:
        shifts[node] = (shifts[parent] + (g.shift if forward else -g.shift)) % n
    return tuple(shifts[1:])


def chain_matrices(
    n: int, wedges: list[tuple[int, int, NDArray[np.float64]]]
) -> list[NDArray[np.float64]]:
    """Rotation chain for arbitrary matrix-weighted tree edges (BFS products from node 1)."""
    order = _bfs_tree(n, wedges)
    if len(order) != n:
        raise ValueError("edges do not connect all nodes from node 1")
    mats: dict[int, NDArray[np.float64]] = {1: np.eye(wedges[0][2].shape[0] if wedges else 2)}
    for (node, parent, w, forward) in order[1:]:
        mats[node] = (w @ mats[parent]) if forward else (w.T @ mats[parent])
    return [mats[i] for i in range(1, n + 1)]
