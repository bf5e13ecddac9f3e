from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symform as sf
from symform import cli, topology

from conftest import random_tree, random_tree_cases


def graph(n: int, edges: list[tuple[int, int, int]]) -> sf.InteractionGraph:
    """The (u, v, shift) triples as arrays, unchecked, for the checks to judge."""
    triples = np.array(edges).reshape(-1, 3)
    return sf.InteractionGraph(n=n, ends=triples[:, :2], shifts=triples[:, 2] % n)


def object_walk(n: int, edges: list[tuple[int, int, int]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The planar build made edge by edge and node by node: the 0-based ends, the edge
    rotations and the stacked chain of the (u, v, shift) triples. Each edge carries its
    shift mod n and its rotation ``rotation2`` of it, one ``Rotation`` per distinct shift;
    the chain shifts are composed along ``topology._bfs_tree`` from node 1, and each node's
    rotation is ``rotation2`` of its exact shift. The reference the array build is checked against."""
    labels = [(u, v, k % n) for (u, v, k) in edges]
    matrices = {k: sf.rotation2(k * (math.tau / n)).matrix for k in {k for (_, _, k) in labels}}
    shifts = [0] * (n + 1)
    for (node, parent, k, forward) in topology._bfs_tree(n, labels)[1:]:
        shifts[node] = (shifts[parent] + (k if forward else -k)) % n
    chain = np.vstack([sf.rotation2(k * (math.tau / n)).matrix for k in shifts[1:]])
    ends = np.array([(u, v) for (u, v, _) in labels]) - 1
    return ends, np.array([matrices[k] for (_, _, k) in labels]), chain


class TestCycleGraph:
    """C_n's edges as the predicate ``topology.is_cycle_edge``."""

    def test_edges(self):
        pairs = [(u, v) for u in range(-1, 7) for v in range(-1, 7) if u < v]
        assert [e for e in pairs if topology.is_cycle_edge(4, *e)] == [(1, 2), (1, 4), (2, 3), (3, 4)]

    def test_membership_is_undirected(self):
        assert topology.is_cycle_edge(5, 1, 2) and topology.is_cycle_edge(5, 2, 1)
        assert topology.is_cycle_edge(5, 5, 1) and topology.is_cycle_edge(5, 1, 5)  # the (n, 1) wrap
        assert not topology.is_cycle_edge(5, 1, 3)
        assert not topology.is_cycle_edge(5, 2, 2)

    def test_ends_out_of_range(self):
        assert not topology.is_cycle_edge(5, 0, 1) and not topology.is_cycle_edge(5, 1, 0)
        assert not topology.is_cycle_edge(5, 5, 6) and not topology.is_cycle_edge(5, 6, 1)
        assert not topology.is_cycle_edge(5, -4, 1)  # -4 % 5 + 1 == 2 would pass a wrap check alone

    def test_small_n_rejected(self):
        assert not any(topology.is_cycle_edge(n, u, v) for n in (0, 1, 2) for u in range(3) for v in range(3))
        with pytest.raises(ValueError, match="not an edge of C_2"):
            sf.cycle_minus_edge(2, (1, 2))

    def test_huge_n(self):
        # Python integers of any size: the wrap edge of C_(10^30) is an edge, its chord is not
        n = 10 ** 30
        assert topology.is_cycle_edge(n, n, 1) and topology.is_cycle_edge(n, n - 1, n)
        assert not topology.is_cycle_edge(n, 1, n - 1) and not topology.is_cycle_edge(n, n + 1, 1)


class TestCycleMinusEdge:
    def test_canonical_path(self):
        g = sf.cycle_minus_edge(4, (4, 1))
        assert g.ends.tolist() == [[1, 2], [2, 3], [3, 4]]
        assert g.shifts.tolist() == [1, 1, 1]

    def test_removal_order_does_not_matter(self):
        a, b = sf.cycle_minus_edge(4, (1, 4)), sf.cycle_minus_edge(4, (4, 1))
        assert np.array_equal(a.ends, b.ends) and np.array_equal(a.shifts, b.shifts)

    def test_interior_removal(self):
        g = sf.cycle_minus_edge(4, (2, 3))
        assert g.ends.tolist() == [[1, 2], [3, 4], [4, 1]]

    def test_non_cycle_edge_rejected(self):
        with pytest.raises(ValueError, match="not an edge"):
            sf.cycle_minus_edge(4, (1, 3))


def problem(g: sf.InteractionGraph) -> str | None:
    """``topology.tree_problem`` of the graph's ends on C_n."""
    return topology.tree_problem(g.n, g.ends)


class TestValidate:
    def test_valid_tree(self):
        assert problem(sf.cycle_minus_edge(6, (6, 1))) is None

    def test_full_cycle_is_cyclic(self):
        assert problem(graph(4, [(i, i % 4 + 1, 1) for i in range(1, 5)])) == "not acyclic"

    def test_split_graph_is_disconnected(self):
        assert problem(graph(4, [(1, 2, 1), (3, 4, 1)])) == "not connected"

    def test_chord_rejected(self):
        assert "not an edge" in problem(graph(4, [(1, 2, 1), (2, 3, 1), (1, 3, 1)]))

    def test_duplicate_edge_rejected(self):
        assert "duplicate" in problem(graph(4, [(1, 2, 1), (2, 1, 1), (3, 4, 1)]))

    def test_self_loop_rejected(self):
        assert "invalid edge" in problem(graph(4, [(1, 1, 1), (2, 3, 1), (3, 4, 1)]))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 40).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(1, n),
        st.lists(st.integers(0, n - 1), min_size=n - 1, max_size=n - 1),
        st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))))
    def test_any_n_minus_one_cycle_edges_are_a_spanning_tree(self, case):
        # so tree_problem needs no walk: its count check leaves no disconnected graph
        n, cut, shifts, flips = case
        g = random_tree(n, cut, shifts, flips)
        assert problem(g) is None
        edges = [(u, v, None) for u, v in g.ends.tolist()]
        assert sorted(node for node, *_ in topology._bfs_tree(n, edges)) == list(range(1, n + 1))

    def test_invalid_graph_blocks_downstream_ops(self):
        with pytest.raises(ValueError, match="not connected"):
            sf.rotation_chain(graph(4, [(1, 2, 1), (3, 4, 1)]))


class TestRotationChain:
    def test_square_chain_frozen(self):
        # expected: identity, quarter, half, three-quarter turns
        graph = sf.cycle_minus_edge(4, (4, 1))
        assert sf.rotation_chain(graph).tolist() == [0, 1, 2, 3]
        mats = sf.null_basis(graph).reshape(4, 2, 2)
        for k, mat in enumerate(mats):
            assert np.array_equal(mat, sf.rotation2(k * (math.tau / 4)).matrix)
        assert np.allclose(mats[1], [[0.0, -1.0], [1.0, 0.0]], atol=1e-15)
        assert np.array_equal(mats[0], np.eye(2))

    def test_hexagon_last_link(self):
        graph = sf.cycle_minus_edge(6, (6, 1))
        mats = sf.null_basis(graph).reshape(6, 2, 2)
        assert np.array_equal(mats[5], sf.rotation2(5 * (math.tau / 6)).matrix)
        assert sf.rotation_chain(graph).tolist() == [0, 1, 2, 3, 4, 5]

    def test_interior_removal_reaches_all_nodes(self):
        # BFS must cross the (n,1) edge backwards; shifts still enumerate 0..n-1
        graph = sf.cycle_minus_edge(4, (2, 3))
        assert sf.rotation_chain(graph).tolist() == [0, 1, 2, 3]

    @given(st.integers(3, 12), st.integers(0, 11))
    @settings(max_examples=40, deadline=None)
    def test_chain_satisfies_edge_relations(self, n, removed_idx):
        i = removed_idx % n + 1
        graph = sf.cycle_minus_edge(n, (i, i % n + 1))
        mats = sf.null_basis(graph).reshape(n, 2, 2)
        for (u, v, w) in sf.weighted_edges(graph):
            assert np.allclose(mats[v - 1], w @ mats[u - 1], atol=1e-12)
        assert np.array_equal(mats[0], np.eye(2))

    def test_mixed_shifts_flagged(self):
        g = graph(4, [(1, 2, 2), (2, 3, 1), (3, 4, 1)])
        assert sf.rotation_chain(g).tolist() == [0, 2, 3, 0]  # not the full C_4 orbit (0, 1, 2, 3)

    def test_generic_chain_matches_shift_chain(self):
        # independent route: BFS matrix products vs exact shift arithmetic
        for n in (3, 5, 8):
            graph = sf.cycle_minus_edge(n, (2, 3))
            by_shift = sf.null_basis(graph).reshape(n, 2, 2)
            by_product = sf.chain_matrices(n, sf.weighted_edges(graph))
            for a, b in zip(by_shift, by_product):
                assert np.allclose(a, b, atol=1e-13)

    def test_chain_matrices_requires_connectivity(self):
        w = np.eye(2)
        with pytest.raises(ValueError, match="connect"):
            sf.chain_matrices(4, [(1, 2, w), (3, 4, w)])


class TestHelpers:
    def test_weighted_edges_materialization(self):
        graph = sf.cycle_minus_edge(3, (3, 1))
        wedges = sf.weighted_edges(graph)
        assert [(u, v) for (u, v, _) in wedges] == [(1, 2), (2, 3)]
        for (_, _, w) in wedges:
            assert np.array_equal(w, sf.rotation2(2 * math.pi / 3).matrix)

    def test_weighted_edges_one_rotation_per_shift(self, monkeypatch):
        built = []
        original = sf.Rotation.__post_init__
        monkeypatch.setattr(sf.Rotation, "__post_init__", lambda r: built.append(r) or original(r))
        n = 20
        g = graph(n, [(i, i + 1, 1 if i % 2 else 3) for i in range(1, n)])
        wedges = sf.weighted_edges(g)
        assert len(built) == 2
        for (_, _, w), shift in zip(wedges, g.shifts.tolist()):
            assert np.array_equal(w, sf.rotation2(shift * 2 * math.pi / n).matrix)

    @pytest.mark.parametrize("n", [3, 4, 7, 600])
    def test_edge_rotations_are_rotation2_of_each_shift(self, n):
        # every shift n - 1, ..., 0 once, on the n edges of C_n (edge_rotations reads no tree)
        g = graph(n, [(i, i % n + 1, n - i) for i in range(1, n + 1)])
        expected = np.array([sf.rotation2(k * (math.tau / n)).matrix for k in g.shifts.tolist()])
        assert bits(topology.edge_rotations(g)) == bits(expected)


def bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


class TestArrayBuild:
    """The planar tree as arrays builds what the object walk built, bit for bit."""

    @staticmethod
    def check(n: int, edges: list[tuple[int, int, int]]) -> None:
        lap = sf.build_laplacian(topology.planar_tree(n, edges))
        ends, rotations, chain = object_walk(n, edges)
        assert lap.ends.tolist() == ends.tolist()
        assert bits(lap.rotations) == bits(rotations)
        assert bits(lap.chain) == bits(chain)

    @settings(max_examples=120, deadline=None)
    @given(random_tree_cases(40))
    def test_equals_object_walk(self, case):
        n, cut, shifts, flips = case
        g = random_tree(n, cut, shifts, flips)
        self.check(n, [(u, v, k) for (u, v), k in zip(g.ends.tolist(), g.shifts.tolist())])

    @pytest.mark.parametrize("n", [600, 4099])
    def test_equals_object_walk_at_large_n(self, n):
        rng = np.random.default_rng(n)
        cut = int(rng.integers(1, n + 1))
        kept = [(i, i % n + 1) for i in range(1, n + 1) if i != cut]
        flips, shifts = rng.random(n - 1) < 0.5, rng.integers(-n, 2 * n, n - 1).tolist()
        self.check(n, [(v, u, k) if flip else (u, v, k) for (u, v), k, flip in zip(kept, shifts, flips)])

    @pytest.mark.parametrize("removed", [(64, 1), (1, 2), (31, 32), (64, 63)])
    def test_default_cut_equals_object_walk(self, removed):
        g = sf.cycle_minus_edge(64, removed)
        lap = sf.build_laplacian(g)
        ends, rotations, chain = object_walk(64, [(u, v, 1) for u, v in g.ends.tolist()])
        assert lap.ends.tolist() == ends.tolist()
        assert bits(lap.rotations) == bits(rotations) and bits(lap.chain) == bits(chain)

    def test_custom_edges_and_default_cut_build_the_same_arrays(self):
        custom = cli.build_system(cli.parse_scenario({"n": 5, "tree": {"edges": [[1, 2, 1], [2, 3, 1],
                                                                              [3, 4, 1], [4, 5, 1]]}}))
        default = cli.build_system(cli.parse_scenario({"n": 5}))
        for name in ("ends", "rotations", "chain"):
            assert bits(getattr(custom, name)) == bits(getattr(default, name))

    def test_custom_tree_one_rotation_per_distinct_shift(self, monkeypatch):
        built = []
        original = sf.Rotation.__post_init__
        monkeypatch.setattr(sf.Rotation, "__post_init__", lambda r: built.append(r) or original(r))
        cli.build_system(cli.parse_scenario({"n": 5, "tree": {"edges": [[1, 2, 1], [3, 2, 4], [3, 4, 6],
                                                                         [4, 5, 1]]}}))
        assert len(built) == 2  # shifts 1, 4, 1 and 1 mod 5


class TestParsedEdges:
    """``tree.edges`` are checked at parse time, each failure named as it always was."""

    @pytest.mark.parametrize("edges, message", [
        ([[0, 1, 1], [2, 3, 1], [3, 4, 1]], "tree: invalid edge (0, 1)"),
        ([[1, 2, 1], [2, 3, 1], [4, 5, 1]], "tree: invalid edge (4, 5)"),
        ([[1, 2, 1], [10 ** 30, 2, 1], [3, 4, 1]], "tree: invalid edge (1000000000000000000000000000000, 2)"),
        ([[1, 2, 1], [3, 3, 1], [3, 4, 1]], "tree: invalid edge (3, 3)"),
        ([[1, 2, 1], [1, 3, 1], [3, 4, 1]], "tree: edge (1, 3) is not an edge of C_4"),
        ([[1, 2, 1], [3, 4, 1], [2, 1, 0]], "tree: duplicate edge (2, 1)"),
        ([[1, 2, 1], [2, 3, 1], [3, 4, 1], [4, 1, 1]], "tree: not acyclic"),
        ([[1, 2, 1], [2, 3, 1]], "tree: not connected"),
        ([], "tree: not connected"),
        ([[1, 2, 1], [2, 1, 1], [1, 3, 1], [5, 5, 1]], "tree: duplicate edge (2, 1)"),  # the first failure
    ], ids=["out_of_range", "beyond_n", "beyond_int64", "self_loop", "not_cycle_edge", "duplicate",
            "too_many", "too_few", "empty", "first_failure"])
    def test_malformed_edges_named(self, edges, message):
        with pytest.raises(cli.ScenarioError) as info:
            cli.parse_scenario({"n": 4, "tree": {"edges": edges}})
        assert str(info.value) == message

    def test_huge_n_is_counted_not_walked(self):
        with pytest.raises(cli.ScenarioError, match="^tree: not connected$"):
            cli.parse_scenario({"n": 10 ** 30, "tree": {"edges": [[10 ** 30, 1, 3], [1, 2, 5]]}})

    def test_shift_reduced_mod_n(self):
        shifts = [-1, 9, 10 ** 30, -(10 ** 40) - 3]
        edges = [[i, i + 1, k] for i, k in enumerate(shifts, start=1)]
        g = cli.parse_scenario({"n": 5, "tree": {"edges": edges}}).tree_graph
        assert g.shifts.tolist() == [k % 5 for k in shifts] == [4, 4, 0, 2]
