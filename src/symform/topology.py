"""Cycle edges, constraint-labeled spanning trees held as arrays, and rotation chains."""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .symgroup import rotation2


def is_cycle_edge(n: int, u: int, v: int) -> bool:
    """True when (u, v), in either order, is an edge of the cycle C_n on nodes 1..n (n >= 3)."""
    return n >= 3 and 1 <= u <= n and 1 <= v <= n and (u % n + 1 == v or v % n + 1 == u)


@dataclass(frozen=True, eq=False)
class InteractionGraph:
    """A spanning tree of C_n whose directed edges carry cyclic shifts, held as arrays.

    Row e of ``ends`` (m x 2) is a stored edge (u, v), 1-based, and ``shifts[e]``
    its shift k in 0..n-1, an element of the cyclic group C_n: the constraint "agent v
    sits at R(k·2π/n) applied to agent u", p_v = R(k·2π/n) p_u. Traversed v→u the shift
    acts negated. :func:`cycle_minus_edge` and :func:`planar_tree` form one;
    :func:`tree_problem` checks its ends.
    """

    n: int
    ends: NDArray[np.intp]
    shifts: NDArray[np.intp]


def cycle_minus_edge(n: int, removed: tuple[int, int]) -> InteractionGraph:
    """Spanning tree of C_n obtained by deleting one cycle edge.

    The remaining edges (i, i+1), then (n, 1) if kept, each carry shift 1, so
    the compatible formations are full C_n orbits.
    """
    ru, rv = removed
    if not is_cycle_edge(n, ru, rv):
        raise ValueError(f"removed edge {removed} is not an edge of C_{n}")
    cut = ru if rv == ru % n + 1 else rv  # the removed edge is (cut, cut + 1 mod n)
    u = np.arange(1, n)
    u[cut - 1:] += 1  # every i in 1..n but the cut
    return InteractionGraph(n=n, ends=np.stack([u, u % n + 1], axis=1), shifts=np.ones(n - 1, np.intp))


def planar_tree(n: int, edges) -> InteractionGraph:
    """The (u, v, shift) integer triples ``edges`` as an :class:`InteractionGraph`, each shift
    reduced mod n; raises ValueError with :func:`tree_problem`'s message when they are not a
    spanning tree of C_n.

    The triples are checked as Python integers of any size (an object array), so a value
    beyond int64 is named as it was given; a tree that passes holds values below n = m + 1.
    """
    raw = np.array(edges, dtype=object).reshape(-1, 3)
    problem = tree_problem(n, raw[:, :2])
    if problem is not None:
        raise ValueError(problem)
    return InteractionGraph(n=n, ends=raw[:, :2].astype(np.intp), shifts=(raw[:, 2] % n).astype(np.intp))


def tree_problem(n: int, ends, *, cycle: bool = True) -> str | None:
    """First reason the 1-based (u, v) rows of ``ends`` are not the edges of a spanning tree
    on nodes 1..n, or None; with ``cycle``, of a spanning tree of C_n.

    An edge needs distinct ends in 1..n, must join cycle neighbours (with ``cycle``), and
    may not repeat an earlier edge; the first edge that fails one of these, in that order,
    is named. Then the count must be n - 1. Such a set is a spanning tree exactly when it is
    connected: any n - 1 distinct edges of C_n are C_n without one edge, a path through
    every node; other trees are walked by :func:`chain_matrices`, which finds out.
    """
    ends = np.asarray(ends).reshape(-1, 2)
    m = len(ends)
    # each edge's ends in order, an end below 1 as 0 and one above n as n + 1
    low, high = np.minimum(np.maximum(np.sort(ends, axis=1), 0), n + 1).T
    invalid = (low == 0) | (high == n + 1) | (low == high)
    gap = high - low  # 1, or n - 1 for the edge (1, n), between cycle neighbours
    chord = ~invalid & (gap != 1) & (gap != n - 1) if cycle else np.zeros(m, dtype=bool)
    # an edge is keyed by its ordered ends; a failed one by -1 - e, matching no key
    key = np.where(invalid | chord, -1 - np.arange(m), low * (n + 2) + high)
    order = np.argsort(key, kind="stable")
    repeat = np.zeros(m, dtype=bool)
    repeat[order[1:]] = key[order[1:]] == key[order[:-1]]
    failed = invalid | chord | repeat
    if failed.any():
        e = int(np.argmax(failed))
        a, b = ends[e]
        if invalid[e]:
            return f"invalid edge ({a}, {b})"
        if chord[e]:
            return f"edge ({a}, {b}) is not an edge of C_{n}"
        return f"duplicate edge ({a}, {b})"
    if m > n - 1:
        return "not acyclic"
    if m < n - 1:
        return "not connected"
    return None


def edge_rotations(graph: InteractionGraph) -> NDArray[np.float64]:
    """Each edge's rotation R(shift·2π/n) (m x 2 x 2), one ``Rotation`` built per distinct shift."""
    shifts = np.flatnonzero(np.bincount(graph.shifts))  # the distinct shifts, ascending
    table = np.array([rotation2(k * (math.tau / graph.n)).matrix for k in shifts.tolist()])
    return table.reshape(-1, 2, 2)[np.searchsorted(shifts, graph.shifts)]


def weighted_edges(graph: InteractionGraph) -> list[tuple[int, int, NDArray[np.float64]]]:
    """Each stored edge as (u, v, its rotation matrix): the edge list the independent routes walk."""
    return [(u, v, w) for (u, v), w in zip(graph.ends.tolist(), edge_rotations(graph))]


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


def rotation_chain(graph: InteractionGraph) -> NDArray[np.intp]:
    """Shift k_i of each node's chain rotation S_i = R(k_i · 2π/n), nodes in order.

    Shifts are composed from node 1 (shift 0) along the path with exact integer
    arithmetic mod n: following a stored edge (u, v) adds its shift, walking it
    backwards subtracts it. Cycle position c (0-based) holds the edge between
    nodes c and c + 1 mod n, whose signed shift delta_c is read walking forward
    (0 at the cut a). Nodes 0..a are reached forward, so k_i is the prefix sum
    of delta_0..delta_(i-1); nodes past the cut are reached backwards through
    node n - 1, which subtracts the total: one cumulative sum gives both. At a
    compatible target p_i = S_i q.
    """
    n = graph.n
    u, v = (graph.ends - 1).T
    forward = (v - u) % n == 1
    position = np.where(forward, u, v)
    covered = np.zeros(n, dtype=bool)
    # a tree of C_n: n - 1 edges at distinct positions, each joining its position's two nodes
    if len(position) == n - 1 and ((0 <= position) & (position < n)
                                   & (np.where(forward, v, u) == (position + 1) % n)).all():
        covered[position] = True
    if covered.sum() != n - 1:
        raise ValueError(f"invalid interaction graph: {tree_problem(n, graph.ends)}")
    cut = int(np.argmin(covered))
    delta = np.zeros(n, np.intp)
    delta[position] = np.where(forward, graph.shifts, -graph.shifts)
    walk = np.cumsum(delta)
    chain = np.empty(n, np.intp)
    chain[0] = 0
    chain[1:] = walk[:-1]
    chain[cut + 1:] -= walk[-1]
    return chain % n


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
