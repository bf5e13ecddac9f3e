from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symform as sf


class TestCycleGraph:
    def test_edges(self):
        assert sf.CycleGraph(4).edges == ((1, 2), (2, 3), (3, 4), (4, 1))

    def test_membership_is_undirected(self):
        g = sf.CycleGraph(5)
        assert g.contains_edge(1, 2) and g.contains_edge(2, 1)
        assert g.contains_edge(5, 1) and g.contains_edge(1, 5)
        assert not g.contains_edge(1, 3)
        assert not g.contains_edge(0, 1)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            sf.CycleGraph(2)


class TestCycleMinusEdge:
    def test_canonical_path(self):
        g = sf.cycle_minus_edge(4, (4, 1))
        assert [(u, v) for (u, v, _) in g.edges] == [(1, 2), (2, 3), (3, 4)]
        assert all(a.shift == 1 for (_, _, a) in g.edges)

    def test_removal_order_does_not_matter(self):
        assert sf.cycle_minus_edge(4, (1, 4)).edges == sf.cycle_minus_edge(4, (4, 1)).edges

    def test_interior_removal(self):
        g = sf.cycle_minus_edge(4, (2, 3))
        assert [(u, v) for (u, v, _) in g.edges] == [(1, 2), (3, 4), (4, 1)]

    def test_non_cycle_edge_rejected(self):
        with pytest.raises(ValueError, match="not an edge"):
            sf.cycle_minus_edge(4, (1, 3))


class TestValidate:
    def test_valid_tree(self):
        assert sf.validate(sf.cycle_minus_edge(6, (6, 1))) is None

    def test_full_cycle_is_cyclic(self):
        one = sf.CyclicAutomorphism(4, 1)
        g = sf.InteractionGraph(n=4, edges=tuple((i, i % 4 + 1, one) for i in range(1, 5)))
        assert sf.validate(g) == "not acyclic"

    def test_split_graph_is_disconnected(self):
        one = sf.CyclicAutomorphism(4, 1)
        g = sf.InteractionGraph(n=4, edges=((1, 2, one), (3, 4, one)))
        assert sf.validate(g) == "not connected"

    def test_chord_rejected(self):
        one = sf.CyclicAutomorphism(4, 1)
        g = sf.InteractionGraph(n=4, edges=((1, 2, one), (2, 3, one), (1, 3, one)))
        assert "not an edge" in sf.validate(g)

    def test_duplicate_edge_rejected(self):
        one = sf.CyclicAutomorphism(4, 1)
        g = sf.InteractionGraph(n=4, edges=((1, 2, one), (2, 1, one), (3, 4, one)))
        assert "duplicate" in sf.validate(g)

    def test_self_loop_rejected(self):
        one = sf.CyclicAutomorphism(4, 1)
        g = sf.InteractionGraph(n=4, edges=((1, 1, one), (2, 3, one), (3, 4, one)))
        assert "invalid edge" in sf.validate(g)

    def test_wrong_group_rejected(self):
        bad = sf.CyclicAutomorphism(5, 1)
        one = sf.CyclicAutomorphism(4, 1)
        g = sf.InteractionGraph(n=4, edges=((1, 2, bad), (2, 3, one), (3, 4, one)))
        assert "C_5" in sf.validate(g)

    def test_invalid_graph_blocks_downstream_ops(self):
        one = sf.CyclicAutomorphism(4, 1)
        g = sf.InteractionGraph(n=4, edges=((1, 2, one), (3, 4, one)))
        with pytest.raises(ValueError, match="not connected"):
            sf.rotation_chain(g, sf.assignment(4))


class TestRotationChain:
    def test_square_chain_frozen(self):
        # expected: identity, quarter, half, three-quarter turns
        graph, tau = sf.cycle_minus_edge(4, (4, 1)), sf.assignment(4)
        chain = sf.rotation_chain(graph, tau)
        assert chain.shifts == (0, 1, 2, 3)
        for k, rot in enumerate(chain.rotations):
            assert np.array_equal(rot.matrix, sf.rotation2(k * tau.base_angle).matrix)
        assert np.allclose(chain.rotations[1].matrix, [[0.0, -1.0], [1.0, 0.0]], atol=1e-15)
        assert chain.rotations[0].is_identity()

    def test_hexagon_last_link(self):
        graph, tau = sf.cycle_minus_edge(6, (6, 1)), sf.assignment(6)
        chain = sf.rotation_chain(graph, tau)
        assert np.array_equal(chain.rotations[5].matrix, sf.rotation2(5 * tau.base_angle).matrix)
        assert chain.shifts == (0, 1, 2, 3, 4, 5)

    def test_interior_removal_reaches_all_nodes(self):
        # BFS must cross the (n,1) edge backwards; shifts still enumerate 0..n-1
        graph, tau = sf.cycle_minus_edge(4, (2, 3)), sf.assignment(4)
        chain = sf.rotation_chain(graph, tau)
        assert chain.shifts == (0, 1, 2, 3)

    @given(st.integers(3, 12), st.integers(0, 11))
    @settings(max_examples=40, deadline=None)
    def test_chain_satisfies_edge_relations(self, n, removed_idx):
        removed = sf.CycleGraph(n).edges[removed_idx % n]
        tau = sf.assignment(n)
        graph = sf.cycle_minus_edge(n, removed)
        mats = sf.rotation_chain(graph, tau).matrices()
        for (u, v, w) in sf.weighted_edges(graph, tau):
            assert np.allclose(mats[v - 1], w @ mats[u - 1], atol=1e-12)
        assert np.array_equal(mats[0], np.eye(2))

    def test_mixed_shifts_flagged(self):
        two = sf.CyclicAutomorphism(4, 2)
        one = sf.CyclicAutomorphism(4, 1)
        g = sf.InteractionGraph(n=4, edges=((1, 2, two), (2, 3, one), (3, 4, one)))
        chain = sf.rotation_chain(g, sf.assignment(4))
        assert chain.shifts == (0, 2, 3, 0)  # not the full C_4 orbit (0, 1, 2, 3)

    def test_generic_chain_matches_shift_chain(self):
        # independent route: BFS matrix products vs exact shift arithmetic
        for n in (3, 5, 8):
            tau = sf.assignment(n)
            graph = sf.cycle_minus_edge(n, (2, 3))
            by_shift = sf.rotation_chain(graph, tau).matrices()
            by_product = sf.chain_matrices(n, sf.weighted_edges(graph, tau))
            for a, b in zip(by_shift, by_product):
                assert np.allclose(a, b, atol=1e-13)

    def test_chain_matrices_requires_connectivity(self):
        w = np.eye(2)
        with pytest.raises(ValueError, match="connect"):
            sf.chain_matrices(4, [(1, 2, w), (3, 4, w)])


class TestHelpers:
    def test_weighted_edges_materialization(self):
        graph, tau = sf.cycle_minus_edge(3, (3, 1)), sf.assignment(3)
        wedges = sf.weighted_edges(graph, tau)
        assert [(u, v) for (u, v, _) in wedges] == [(1, 2), (2, 3)]
        for (_, _, w) in wedges:
            assert np.array_equal(w, sf.rotation2(2 * math.pi / 3).matrix)

    def test_weighted_edges_one_rotation_per_shift(self, monkeypatch):
        built = []
        original = sf.Rotation.__post_init__
        monkeypatch.setattr(sf.Rotation, "__post_init__", lambda r: built.append(r) or original(r))
        n = 20
        one, three = sf.CyclicAutomorphism(n, 1), sf.CyclicAutomorphism(n, 3)
        graph = sf.InteractionGraph(n=n, edges=tuple((i, i + 1, one if i % 2 else three) for i in range(1, n)))
        wedges = sf.weighted_edges(graph, sf.assignment(n))
        assert len(built) == 2
        for (_, _, w), (_, _, g) in zip(wedges, graph.edges):
            assert np.array_equal(w, sf.rotation2(g.shift * 2 * math.pi / n).matrix)

    def test_weighted_edges_group_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            sf.weighted_edges(sf.cycle_minus_edge(4, (4, 1)), sf.assignment(5))
