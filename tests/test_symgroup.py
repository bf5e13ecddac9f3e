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
        assert r.angle == 0.3
        assert r.dimension == 2

    def test_third_turn_frozen(self):
        # hand values: cos(2pi/3) = -1/2, sin(2pi/3) = sqrt(3)/2
        r = sf.rotation2(2 * math.pi / 3)
        expected = np.array([[-0.5, -math.sqrt(3) / 2], [math.sqrt(3) / 2, -0.5]])
        assert np.allclose(r.matrix, expected, atol=1e-15)

    def test_quarter_turn_moves_basis_vector(self):
        r = sf.rotation2(math.pi / 2)
        assert np.allclose(r.apply(np.array([1.0, 0.0])), [0.0, 1.0], atol=1e-15)

    @given(st.floats(-10, 10), st.floats(-10, 10))
    @settings(max_examples=50, deadline=None)
    def test_compose_adds_angles(self, a, b):
        left = sf.rotation2(a).compose(sf.rotation2(b))
        assert np.allclose(left.matrix, sf.rotation2(a + b).matrix, atol=1e-12)

    @given(st.floats(-10, 10))
    @settings(max_examples=50, deadline=None)
    def test_inverse_is_transpose(self, a):
        r = sf.rotation2(a)
        assert np.array_equal(r.inverse().matrix, r.matrix.T)
        assert r.compose(r.inverse()).is_identity(1e-12)

    def test_apply_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            sf.rotation2(0.1).apply(np.zeros(3))

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
        assert sf.identity(2).is_identity()
        assert sf.identity(3).is_identity()
        with pytest.raises(ValueError):
            sf.identity(4)

    def test_matrix_is_readonly(self):
        r = sf.rotation2(0.2)
        with pytest.raises(ValueError):
            r.matrix[0, 0] = 5.0


class TestCyclicAutomorphism:
    def test_generator_action_on_triangle(self):
        g = sf.CyclicAutomorphism(3, 1)
        assert [g.apply(i) for i in (1, 2, 3)] == [2, 3, 1]

    def test_square_of_generator_on_triangle(self):
        g = sf.CyclicAutomorphism(3, 2)
        assert [g.apply(i) for i in (1, 2, 3)] == [3, 1, 2]

    def test_action_wraps_around(self):
        g = sf.CyclicAutomorphism(6, 2)
        assert g.apply(5) == 1
        assert g.apply(6) == 2

    def test_composition_matches_function_composition(self):
        # brute-force oracle: composing shifts must act like composing the vertex maps
        for n in range(3, 9):
            for a in range(n):
                for b in range(n):
                    ga, gb = sf.CyclicAutomorphism(n, a), sf.CyclicAutomorphism(n, b)
                    comp = ga.compose(gb)
                    for i in range(1, n + 1):
                        assert comp.apply(i) == ga.apply(gb.apply(i))

    def test_composition_frozen_example(self):
        g2 = sf.CyclicAutomorphism(3, 2)
        assert g2.compose(g2).shift == 1

    def test_shift_normalization(self):
        assert sf.CyclicAutomorphism(5, 7).shift == 2
        assert sf.CyclicAutomorphism(5, -1).shift == 4
        assert sf.CyclicAutomorphism(5, 5).is_identity

    def test_inverse(self):
        g = sf.CyclicAutomorphism(6, 2)
        assert g.compose(g.inverse()).is_identity

    def test_vertex_range_checked(self):
        g = sf.CyclicAutomorphism(4, 1)
        with pytest.raises(ValueError):
            g.apply(0)
        with pytest.raises(ValueError):
            g.apply(5)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            sf.CyclicAutomorphism(2, 0)

    def test_mismatched_compose_rejected(self):
        with pytest.raises(ValueError):
            sf.CyclicAutomorphism(4, 1).compose(sf.CyclicAutomorphism(5, 1))


class TestPointGroupAssignment:
    """``CyclicAutomorphism.rotation`` is the assignment: shift k maps to R(k·2π/n)."""

    @given(st.integers(3, 12), st.integers(0, 11), st.integers(0, 11))
    @settings(max_examples=60, deadline=None)
    def test_homomorphism(self, n, k1, k2):
        a, b = sf.CyclicAutomorphism(n, k1), sf.CyclicAutomorphism(n, k2)
        product = a.rotation.matrix @ b.rotation.matrix
        assert np.allclose(a.compose(b).rotation.matrix, product, atol=1e-12)

    @given(st.integers(3, 12), st.integers(0, 11))
    @settings(max_examples=40, deadline=None)
    def test_inverse_maps_to_transpose(self, n, k):
        g = sf.CyclicAutomorphism(n, k)
        assert np.allclose(g.inverse().rotation.matrix, g.rotation.matrix.T, atol=1e-12)

    def test_identity_maps_to_identity(self):
        assert sf.CyclicAutomorphism(7, 0).rotation.is_identity()

    def test_half_turn_frozen(self):
        # shift n/2 on C_6 is the half turn: R(pi) = -I
        r = sf.CyclicAutomorphism(6, 3).rotation
        assert np.allclose(r.matrix, -np.eye(2), atol=1e-15)

    def test_generator_angle(self):
        r = sf.CyclicAutomorphism(4, 1).rotation
        assert r.angle == math.tau / 4
