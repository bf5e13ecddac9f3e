from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symform as sf
from conftest import path_eigenvalues
from symform.spatial3d import cube_permutation


def cube_corners(lap: sf.SymmetryLaplacian, seed_point=(1.0, 1.0, 1.0)) -> np.ndarray:
    """Target corners: the cube's chain applied to a seed corner."""
    return sf.symmetric_configuration(lap.chain, np.array(seed_point))


class TestRotation3:
    def test_quarter_turn_about_z_frozen(self):
        m = sf.rotation3("z", math.pi / 2).matrix
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.allclose(m, expected, atol=1e-15)

    def test_quarter_turn_about_x_frozen(self):
        m = sf.rotation3("x", -math.pi / 2).matrix
        expected = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
        assert np.allclose(m, expected, atol=1e-15)

    @given(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi),
           st.floats(-math.pi, math.pi))
    @settings(max_examples=50, deadline=None)
    def test_orthogonal_with_unit_determinant(self, a, b, angle):
        axis = np.array([math.cos(a) * math.cos(b), math.cos(a) * math.sin(b),
                         math.sin(a)])
        m = sf.rotation3(axis, angle).matrix
        assert np.allclose(m @ m.T, np.eye(3), atol=1e-12)
        assert math.isclose(np.linalg.det(m), 1.0, abs_tol=1e-12)

    def test_axis_is_fixed(self):
        axis = np.array([1.0, 2.0, 2.0]) / 3.0
        m = sf.rotation3(axis, 1.234).matrix
        assert np.allclose(m @ axis, axis, atol=1e-14)

    def test_agrees_with_planar_rotation_about_z(self):
        m3 = sf.rotation3("z", 0.77).matrix
        m2 = sf.rotation2(0.77).matrix
        assert np.array_equal(m3[:2, :2], m2)

    def test_bad_axis_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            sf.rotation3("w", 1.0)
        with pytest.raises(ValueError, match="norm"):
            sf.rotation3(np.array([1.0, 1.0, 0.0]), 1.0)
        with pytest.raises(ValueError, match="3-vector"):
            sf.rotation3(np.array([1.0, 0.0]), 1.0)
        with pytest.raises(ValueError, match="finite"):
            sf.rotation3("z", math.inf)


class TestBuildCube:
    def test_edge_list(self):
        lap = sf.build_cube()
        pairs = list(lap.edge_index)
        assert pairs == [(1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (7, 8), (1, 5)]
        assert lap.matrix.shape == (24, 24)

    def test_psd_and_null_dimension(self):
        lap = sf.build_cube()
        spec = sf.spectrum(lap.matrix)
        assert spec.eigenvalues[0] >= -1e-9
        assert spec.null_dim == 3
        assert spec.rank == 21

    def test_construction_routes_agree(self):
        lap = sf.build_cube()
        assert [name for name, _, _ in lap.routes] == ["construction_routes", "gauge_route"]
        for _, _, matrix in lap.routes:
            assert np.abs(lap.matrix - matrix).max() <= 1e-12
        assert np.abs(lap.matrix - sf.product_laplacian(lap.incidence)).max() <= 1e-12

    def test_symmetric(self):
        lap = sf.build_cube()
        assert np.array_equal(lap.matrix, lap.matrix.T)

    def test_spectrum_matches_eight_node_path(self):
        # the seven edges trace one path through all eight agents, so the
        # conjugated matrix is the scalar 8-path Laplacian times the identity
        lap = sf.build_cube()
        spec = sf.spectrum(lap.matrix)
        assert np.allclose(spec.eigenvalues, path_eigenvalues(8, 3), atol=1e-12)

    def test_chain_annihilated(self):
        lap = sf.build_cube()
        assert np.abs(lap.matrix @ lap.chain).max() <= 1e-12

    def test_permutation_is_orthogonal(self):
        perm = cube_permutation(sf.CubeSpec())
        assert np.array_equal(perm @ perm.T, np.eye(24))

    def test_bad_partition_rejected(self):
        with pytest.raises(ValueError, match="partition"):
            sf.build_cube(sf.CubeSpec(top_nodes=(1, 2, 3, 4), bottom_nodes=(4, 5, 6, 7)))

    def test_disconnected_edges_rejected(self):
        # a chord inside the top face leaves the bottom face unreachable
        with pytest.raises(ValueError, match="spanning tree"):
            sf.build_cube(sf.CubeSpec(cross_edge=(1, 3)))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            sf.build_cube(sf.CubeSpec(cross_edge=(1, 2)))


class TestCubeCorners:
    def test_unit_cube_from_all_ones_seed(self):
        lap = sf.build_cube()
        corners = cube_corners(lap).reshape(8, 3)
        expected = np.array([
            [1.0, 1.0, 1.0], [-1.0, 1.0, 1.0], [-1.0, -1.0, 1.0], [1.0, -1.0, 1.0],
            [1.0, 1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, -1.0], [1.0, -1.0, -1.0],
        ])
        assert np.allclose(corners, expected, atol=1e-15)

    def test_corners_have_zero_error(self):
        lap = sf.build_cube()
        corners = cube_corners(lap, seed_point=(0.3, -1.1, 0.8))
        res = lap.incidence.T @ corners
        assert np.abs(res).max() < 1e-14

    def test_edge_lengths_equal(self):
        lap = sf.build_cube()
        pts = cube_corners(lap).reshape(8, 3)
        lengths = {round(float(np.linalg.norm(pts[u - 1] - pts[v - 1])), 9)
                   for (u, v) in lap.edge_index}
        assert lengths == {2.0}


class TestSimulateCube:
    def test_stationary_converges_to_projection(self):
        lap = sf.build_cube()
        rng = np.random.default_rng(31)
        p0 = rng.uniform(-2, 2, 24)
        trace = sf.simulate_cube(lap, p0)
        limit = sf.steady_state(p0, lap.chain)
        assert np.abs(trace.final_state - limit).max() <= 1e-6
        assert trace.total_errors[-1] < 1e-6

    def test_maneuver_reports_frame_residual(self):
        lap = sf.build_cube()
        p0 = cube_corners(lap) + np.random.default_rng(32).normal(0, 0.1, 24)
        inputs = sf.ReferenceInputs.constant([0.1, 0.0, 0.05], [0.0, 0.0, 0.2], 0.0,
                                             dim=3)
        trace = sf.simulate_cube(lap, p0, inputs=inputs, dt=0.02, horizon=5.0)
        assert np.isfinite(trace.zeta_residual)
        assert trace.total_errors[-1] < trace.total_errors[0]

    def test_maneuver_about_face_axis_still_reduces(self):
        # spinning about the shared face axis commutes with six of the seven
        # edge rotations; the frame flow residual stays within step error
        lap = sf.build_cube()
        p0 = np.random.default_rng(33).uniform(-2, 2, 24)
        inputs = sf.ReferenceInputs.constant([0.0, 0.0, 0.0], [0.0, 0.0, 0.3], 0.0,
                                             dim=3)
        trace = sf.simulate_cube(lap, p0, inputs=inputs, dt=0.01, horizon=4.0)
        plain = sf.simulate_cube(lap, p0, dt=0.01, horizon=4.0)
        gap = np.abs(trace.zeta - plain.states).max()
        assert np.isfinite(gap)
        # the cross edge breaks exact commutation, so only boundedness holds
        assert trace.zeta_residual < 10.0

    def test_simulate_maneuver_reports_frame_residual(self):
        # the residual is attached by the maneuver integrator itself for any 3-D formation
        lap = sf.build_cube()
        p0 = np.random.default_rng(34).uniform(-2, 2, 24)
        inputs = sf.ReferenceInputs.constant([0.1, 0.0, 0.05], [0.0, 0.0, 0.2], 0.0, dim=3)
        trace = sf.simulate_maneuver(lap, p0, inputs, dt=0.02, horizon=1.0)
        assert trace.zeta_residual == sf.zeta_consistency_residual(trace, lap.matrix)
