from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symform as sf
from conftest import path_eigenvalues
from symform import checks


def cube_corners(lap: sf.SymmetryLaplacian, seed_point=(1.0, 1.0, 1.0)) -> np.ndarray:
    """Target corners: the cube's chain applied to a seed corner."""
    return checks.symmetric_configuration(lap.chain, np.array(seed_point))


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
        pairs = (lap.ends + 1).tolist()
        assert pairs == [[1, 2], [2, 3], [3, 4], [5, 6], [6, 7], [7, 8], [1, 5]]
        assert lap.matrix.shape == (24, 24)

    def test_psd_and_null_dimension(self):
        lap = sf.build_cube()
        spec = sf.spectrum(lap.matrix)
        assert spec.eigenvalues[0] >= -1e-9
        assert spec.null_dim == 3
        assert spec.rank == 21

    def test_construction_routes_agree(self):
        lap = sf.build_cube()
        routes = checks.construction_routes(lap, sf.CubeSpec())
        assert [name for name, _, _ in routes] == ["construction_routes", "gauge_route"]
        for _, _, matrix in routes:
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
        perm = checks.cube_permutation(sf.CubeSpec())
        assert np.array_equal(perm @ perm.T, np.eye(24))

    @pytest.mark.parametrize("fields, message", [
        ({"top_nodes": (1, 2, 3, 5)}, "top_nodes: with bottom_nodes [5, 6, 7, 8] must partition 1..8, "
                                      "got [1, 2, 3, 5]"),
        ({"bottom_nodes": (5, 6, 7, 9)}, "top_nodes: with bottom_nodes [5, 6, 7, 9] must partition 1..8"),
        ({"cross_edge": (1, 3)}, "cross_edge: must join a top node to a bottom node to make a spanning tree, "
                                 "got [1, 3]"),
        ({"cross_edge": (1, 1)}, "cross_edge: must join a top node to a bottom node"),
        ({"cross_edge": (5, 9)}, "cross_edge: must join a top node to a bottom node"),
    ], ids=["top_nodes", "bottom_nodes", "cross_in_top", "cross_loop", "cross_off_cube"])
    def test_spec_checks_its_tree(self, fields, message):
        # the one check of the cube tree; parse_scenario puts "cube." before its message
        with pytest.raises(ValueError) as info:
            sf.CubeSpec(**fields)
        assert str(info.value).startswith(message)

    def test_cross_edge_orbits_accepted(self):
        # any cross edge from a top node to a bottom node, either way round, leads the slots
        for spec in (sf.CubeSpec(), sf.CubeSpec(cross_edge=(2, 6)), sf.CubeSpec(cross_edge=(7, 3))):
            perm = checks.cube_permutation(spec)
            assert np.array_equal(perm @ perm.T, np.eye(24))
            slots = np.argmax(perm[::3, ::3], axis=0) + 1
            assert slots[:2].tolist() == list(spec.cross_edge)
            assert slots[2:].tolist() == sorted(set(range(1, 9)) - set(spec.cross_edge))

    def test_bad_partition_rejected(self):
        with pytest.raises(ValueError, match="partition"):
            sf.build_cube(sf.CubeSpec(top_nodes=(1, 2, 3, 4), bottom_nodes=(4, 5, 6, 7)))

    def test_disconnected_edges_rejected(self):
        # a chord inside the top face leaves the bottom face unreachable
        with pytest.raises(ValueError, match="spanning tree"):
            sf.build_cube(sf.CubeSpec(cross_edge=(1, 3)))

    def test_duplicate_edge_rejected(self):
        # a cross edge along a face doubles a face edge: the spec refuses it, and the tree
        # check refuses the doubled edge however the edges are given
        with pytest.raises(ValueError, match="cross_edge: must join a top node to a bottom node"):
            sf.CubeSpec(cross_edge=(1, 2))
        w = sf.rotation3("z", math.pi / 2).matrix
        wedges = [(1, 2, w), (2, 3, w), (3, 4, w), (5, 6, w), (6, 7, w), (7, 8, w), (1, 2, w)]
        with pytest.raises(ValueError, match="duplicate"):
            sf.laplacian_from_edges(8, 3, wedges)


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
                   for (u, v) in (lap.ends + 1).tolist()}
        assert lengths == {2.0}


class TestSimulateCube:
    def test_stationary_converges_to_projection(self):
        lap = sf.build_cube()
        rng = np.random.default_rng(31)
        p0 = rng.uniform(-2, 2, 24)
        trace = sf.integrate(lap, p0)
        limit = sf.steady_state(p0, lap.chain)
        assert np.abs(trace.final_state - limit).max() <= 1e-6
        assert trace.total_errors[-1] < 1e-6

    def test_maneuver_reports_frame_residual(self):
        lap = sf.build_cube()
        p0 = cube_corners(lap) + np.random.default_rng(32).normal(0, 0.1, 24)
        inputs = sf.ReferenceInputs.constant([0.1, 0.0, 0.05], [0.0, 0.0, 0.2], 0.0,
                                             dim=3)
        trace = sf.simulate_maneuver(lap, p0, inputs, dt=0.02, horizon=5.0)
        assert np.isfinite(trace.zeta_residual)
        assert trace.total_errors[-1] < trace.total_errors[0]

    def test_maneuver_about_face_axis_still_reduces(self):
        # spinning about the shared face axis commutes with six of the seven
        # edge rotations; the frame flow residual stays within step error
        lap = sf.build_cube()
        p0 = np.random.default_rng(33).uniform(-2, 2, 24)
        inputs = sf.ReferenceInputs.constant([0.0, 0.0, 0.0], [0.0, 0.0, 0.3], 0.0,
                                             dim=3)
        trace = sf.simulate_maneuver(lap, p0, inputs, dt=0.01, horizon=4.0)
        plain = sf.integrate(lap, p0, dt=0.01, horizon=4.0)
        gap = np.abs(trace.frame(slice(None)) - plain.states).max()
        assert np.isfinite(gap)
        # the cross edge breaks exact commutation, so only boundedness holds
        assert trace.zeta_residual < 10.0

    def test_frame_rows_match_moving_frame(self):
        # every frame row of a cube maneuver against checks.moving_frame of its state and reference
        lap = sf.build_cube()
        p0 = np.random.default_rng(35).uniform(-2, 2, 24)
        start = sf.ReferenceState(position=np.array([0.2, -0.4, 0.7]),
                                  rotation=sf.rotation3("y", 0.9), scale=0.8)
        inputs = sf.ReferenceInputs.constant([0.1, 0.0, 0.05], [0.1, 0.0, 0.2], -0.01, dim=3)
        trace = sf.simulate_maneuver(lap, p0, inputs, start=start, dt=0.02, horizon=1.0)
        direct = [checks.moving_frame(p, sf.ReferenceState(position=r, rotation=sf.Rotation(rot), scale=float(s)))
                  for p, r, rot, s in zip(trace.states, trace.ref_positions, trace.ref_rotations, trace.ref_scales)]
        np.testing.assert_allclose(trace.frame(slice(None)), direct, rtol=0, atol=1e-14)
        assert np.array_equal(trace.frame([0, -1]), trace.frame(slice(None))[[0, -1]])

    def test_simulate_maneuver_reports_frame_residual(self):
        # the residual is attached by the maneuver integrator itself for any 3-D formation
        lap = sf.build_cube()
        p0 = np.random.default_rng(34).uniform(-2, 2, 24)
        inputs = sf.ReferenceInputs.constant([0.1, 0.0, 0.05], [0.0, 0.0, 0.2], 0.0, dim=3)
        trace = sf.simulate_maneuver(lap, p0, inputs, dt=0.02, horizon=1.0)
        assert trace.zeta_residual == sf.zeta_consistency_residual(trace, lap.matrix)

    def test_overflowing_frame_residual_raises(self):
        # from scale 1e-306 the frame coordinates reach 1e305 and the residual's squares
        # overflow: the run fails naming the quantity and the step, it returns no inf
        lap = sf.build_cube()
        p0 = np.random.default_rng(36).uniform(-1, 1, 24)
        start = sf.ReferenceState(np.zeros(3), sf.identity(3), 1e-306)
        with pytest.raises(sf.NumericFailure, match=r"^maneuver: zeta_residual is not finite from step 1 "
                                                    r"\(t = 0\.05\); the run overflowed$"):
            sf.simulate_maneuver(lap, p0, sf.ReferenceInputs.stationary(3), start=start, dt=0.05, horizon=1.0)
