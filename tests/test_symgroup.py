from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symform as sf


class TestRotation2:
    def test_entries(self):
        r = sf.rotation2(0.3)
        c, s = math.cos(0.3), math.sin(0.3)
        assert np.array_equal(r.matrix, np.array([[c, -s], [s, c]]))
        assert r.dimension == 2

    def test_third_turn_frozen(self):
        # hand values: cos(2pi/3) = -1/2, sin(2pi/3) = sqrt(3)/2
        r = sf.rotation2(2 * math.pi / 3)
        expected = np.array([[-0.5, -math.sqrt(3) / 2], [math.sqrt(3) / 2, -0.5]])
        assert np.allclose(r.matrix, expected, atol=1e-15)

    def test_quarter_turn_moves_basis_vector(self):
        r = sf.rotation2(math.pi / 2)
        assert np.allclose(r.matrix @ np.array([1.0, 0.0]), [0.0, 1.0], atol=1e-15)

    @given(st.floats(-10, 10), st.floats(-10, 10))
    @settings(max_examples=50, deadline=None)
    def test_compose_adds_angles(self, a, b):
        left = sf.rotation2(a).matrix @ sf.rotation2(b).matrix
        assert np.allclose(left, sf.rotation2(a + b).matrix, atol=1e-12)

    @given(st.floats(-10, 10))
    @settings(max_examples=50, deadline=None)
    def test_inverse_is_transpose(self, a):
        r = sf.rotation2(a)
        assert np.array_equal(sf.rotation2(-a).matrix, r.matrix.T)
        assert np.allclose(r.matrix @ r.matrix.T, np.eye(2), rtol=0, atol=1e-12)

    def test_nonfinite_angle_rejected(self):
        with pytest.raises(ValueError):
            sf.rotation2(math.nan)

    def test_reflection_rejected(self):
        with pytest.raises(ValueError, match="determinant"):
            sf.Rotation(np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_nonorthogonal_rejected(self):
        with pytest.raises(ValueError, match="orthogonal"):
            sf.Rotation(np.array([[1.0, 0.1], [0.0, 1.0]]))

    def test_identity(self):
        assert np.array_equal(sf.identity(2).matrix, np.eye(2))
        assert np.array_equal(sf.identity(3).matrix, np.eye(3))
        with pytest.raises(ValueError):
            sf.identity(4)

    def test_matrix_is_readonly(self):
        r = sf.rotation2(0.2)
        with pytest.raises(ValueError):
            r.matrix[0, 0] = 5.0


def polygon(n: int) -> np.ndarray:
    """The vertices of the regular n-gon, vertex i (1-based) in column i - 1 at angle (i - 1)·2π/n."""
    angles = np.arange(n) * (math.tau / n)
    return np.array([np.cos(angles), np.sin(angles)])


def shift_rotation(n: int, k: int) -> np.ndarray:
    """R(k·2π/n) for the shift k mod n, the rotation an edge of that shift takes."""
    return sf.rotation2((k % n) * (math.tau / n)).matrix


def vertex_map(n: int, k: int) -> list[int]:
    """The vertex each vertex 1..n of the regular n-gon lands on under R(k·2π/n)."""
    moved = shift_rotation(n, k) @ polygon(n)
    gaps = np.abs(moved[:, :, None] - polygon(n)[:, None, :]).max(axis=0)
    assert (gaps.min(axis=1) < 1e-12).all()
    return (gaps.argmin(axis=1) + 1).tolist()


class TestCyclicAutomorphism:
    """Shift k acts on C_n as vertex i -> i + k (mod n), which R(k·2π/n) realizes on the regular n-gon."""

    def test_generator_action_on_triangle(self):
        assert vertex_map(3, 1) == [2, 3, 1]

    def test_square_of_generator_on_triangle(self):
        assert vertex_map(3, 2) == [3, 1, 2]

    def test_action_wraps_around(self):
        assert vertex_map(6, 2)[4:] == [1, 2]

    def test_composition_matches_function_composition(self):
        # brute-force oracle: adding shifts must act like composing the vertex maps
        for n in range(3, 9):
            for a in range(n):
                for b in range(n):
                    ga, gb = vertex_map(n, a), vertex_map(n, b)
                    assert vertex_map(n, a + b) == [ga[gb[i] - 1] for i in range(n)]

    def test_composition_frozen_example(self):
        assert vertex_map(3, 2 + 2) == vertex_map(3, 1)

    def test_shift_normalization(self):
        # an edge's shift is held mod n, so each edge takes R(k·2π/n) for k in 0..n-1
        g = sf.topology.planar_tree(5, [(1, 2, 7), (2, 3, -1), (3, 4, 5), (4, 5, 0)])
        assert g.shifts.tolist() == [2, 4, 0, 0]
        expected = np.array([shift_rotation(5, k) for k in (7, -1, 5, 0)])
        assert sf.topology.edge_rotations(g).tobytes() == expected.tobytes()

    def test_inverse(self):
        assert vertex_map(6, 2 - 2) == list(range(1, 7))
        assert vertex_map(6, -2) == [5, 6, 1, 2, 3, 4]

    def test_small_n_rejected(self):
        with pytest.raises(ValueError, match="not an edge of C_2"):
            sf.cycle_minus_edge(2, (1, 2))


class TestPointGroupAssignment:
    """Shift k maps to R(k·2π/n): a map from shifts added mod n to rotations multiplied, the
    premise of ``rotation_chain``'s integer sums."""

    @given(st.integers(3, 12), st.integers(0, 11), st.integers(0, 11))
    @settings(max_examples=60, deadline=None)
    def test_homomorphism(self, n, k1, k2):
        product = shift_rotation(n, k1) @ shift_rotation(n, k2)
        assert np.allclose(shift_rotation(n, k1 + k2), product, atol=1e-12)

    @given(st.integers(3, 12), st.integers(0, 11))
    @settings(max_examples=40, deadline=None)
    def test_inverse_maps_to_transpose(self, n, k):
        assert np.allclose(shift_rotation(n, -k), shift_rotation(n, k).T, atol=1e-12)

    def test_identity_maps_to_identity(self):
        assert np.array_equal(shift_rotation(7, 0), np.eye(2))
        assert np.array_equal(shift_rotation(7, 7), np.eye(2))

    def test_half_turn_frozen(self):
        # shift n/2 on C_6 is the half turn: R(pi) = -I
        assert np.allclose(shift_rotation(6, 3), -np.eye(2), atol=1e-15)

    def test_generator_angle(self):
        g = sf.cycle_minus_edge(4, (4, 1))  # every edge of shift 1
        assert sf.topology.edge_rotations(g)[0].tobytes() == sf.rotation2(math.tau / 4).matrix.tobytes()
