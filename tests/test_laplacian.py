from __future__ import annotations

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symform as sf
from conftest import path_eigenvalues, random_tree, random_tree_cases, slowest_rate
from symform import checks, cli, topology


def hand_built_incidence_c3() -> np.ndarray:
    # path tree on C_3: edges (1,2), (2,3), both labeled with the third turn
    w = sf.rotation2(2 * math.pi / 3).matrix
    e = np.zeros((6, 4))
    e[0:2, 0:2] = np.eye(2)
    e[2:4, 0:2] = -w
    e[2:4, 2:4] = np.eye(2)
    e[4:6, 2:4] = -w
    return e


class TestIncidence:
    def test_triangle_blocks_frozen(self):
        graph = sf.cycle_minus_edge(3, (3, 1))
        lap = sf.build_laplacian(graph)
        assert lap.incidence.shape == (6, 4)
        assert np.array_equal(lap.incidence, hand_built_incidence_c3())
        assert lap.edge_index == ((1, 2), (2, 3))

    def test_residual_zero_on_compatible_configuration(self):
        graph = sf.cycle_minus_edge(5, (5, 1))
        p = sf.symmetric_configuration(sf.null_basis(graph), np.array([1.3, -0.4]))
        lap = sf.build_laplacian(graph)
        assert np.abs(lap.incidence.T @ p).max() < 1e-14

    def test_residual_is_direct_edge_mismatch(self):
        graph = sf.cycle_minus_edge(4, (4, 1))
        lap = sf.build_laplacian(graph)
        rng = np.random.default_rng(3)
        p = rng.uniform(-2, 2, 8)
        res = (lap.incidence.T @ p).reshape(len(lap.edge_index), 2)
        for e, (u, v, w) in enumerate(sf.weighted_edges(graph)):
            direct = p[2 * u - 2:2 * u] - w.T @ p[2 * v - 2:2 * v]
            assert np.allclose(res[e], direct, atol=1e-15)

    def test_weight_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            sf.laplacian_from_edges(2, 2, [(1, 2, np.eye(3))])


class TestLaplacian:
    def test_square_block_pattern_frozen(self):
        graph = sf.cycle_minus_edge(4, (4, 1))
        q = sf.build_laplacian(graph).matrix
        r = sf.rotation2(math.pi / 2).matrix
        eye = np.eye(2)
        assert np.array_equal(q[0:2, 0:2], eye)
        assert np.array_equal(q[2:4, 2:4], 2 * eye)
        assert np.array_equal(q[4:6, 4:6], 2 * eye)
        assert np.array_equal(q[6:8, 6:8], eye)
        assert np.array_equal(q[0:2, 2:4], -r.T)
        assert np.array_equal(q[2:4, 0:2], -r)
        assert np.array_equal(q[2:4, 4:6], -r.T)
        assert np.array_equal(q[6:8, 4:6], -r)
        assert np.array_equal(q[0:2, 4:6], np.zeros((2, 2)))
        assert np.array_equal(q[0:2, 6:8], np.zeros((2, 2)))
        assert np.array_equal(q[2:4, 6:8], np.zeros((2, 2)))

    @given(st.integers(3, 12), st.integers(0, 11))
    @settings(max_examples=40, deadline=None)
    def test_product_route_agrees(self, n, removed_idx):
        removed = sf.CycleGraph(n).edges[removed_idx % n]
        graph = sf.cycle_minus_edge(n, removed)
        lap = sf.build_laplacian(graph)
        assert np.abs(lap.matrix - sf.product_laplacian(lap.incidence)).max() <= 1e-12

    def test_symmetric_exactly(self):
        graph = sf.cycle_minus_edge(7, (7, 1))
        q = sf.build_laplacian(graph).matrix
        assert np.array_equal(q, q.T)

    def test_quadratic_form_nonnegative_and_matches_residuals(self):
        graph = sf.cycle_minus_edge(6, (6, 1))
        lap = sf.build_laplacian(graph)
        rng = np.random.default_rng(11)
        samples = rng.uniform(-5, 5, size=(1000, 12))
        quad = np.einsum("ki,ij,kj->k", samples, lap.matrix, samples)
        residual_sq = ((samples @ lap.incidence) ** 2).sum(axis=1)
        assert quad.min() >= -1e-12
        assert np.allclose(quad, residual_sq, atol=1e-10)


def per_edge_matrices(lap) -> tuple[np.ndarray, np.ndarray]:
    """Q and E assembled one edge at a time: the reference for the scattered arrays."""
    d = lap.dim
    wedges = [(u, v, w) for (u, v), w in zip(lap.edge_index, lap.rotations)]
    E = np.zeros((d * lap.n, d * len(wedges)))
    for e, (u, v, w) in enumerate(wedges):
        E[d * (u - 1):d * u, d * e:d * (e + 1)] = np.eye(d)
        E[d * (v - 1):d * v, d * e:d * (e + 1)] = -w
    return sf.laplacian.assemble_laplacian(lap.n, d, wedges), E


@pytest.mark.parametrize("build", [lambda: sf.build_laplacian(sf.cycle_minus_edge(3, (3, 1))),
                                   lambda: sf.build_laplacian(sf.cycle_minus_edge(37, (12, 13))),
                                   sf.build_cube], ids=["n3", "n37", "cube"])
def test_matrix_and_incidence_equal_per_edge_assembly(build):
    lap = build()
    q, E = per_edge_matrices(lap)
    assert np.array_equal(lap.matrix, q)
    assert np.array_equal(lap.incidence, E)
    # no -0.0 where the per-edge sums write 0.0: the same bits, not only equal values
    assert lap.matrix.tobytes() == q.tobytes()
    assert lap.incidence.tobytes() == E.tobytes()


class TestSpectrum:
    def test_square_eigenvalues_frozen(self):
        # closed forms: 0, 2 - sqrt(2), 2, 2 + sqrt(2), each twice
        graph = sf.cycle_minus_edge(4, (4, 1))
        spec = sf.spectrum(sf.build_laplacian(graph).matrix)
        expected = np.sort(np.array([0.0, 0.0, 2 - math.sqrt(2), 2 - math.sqrt(2),
                                     2.0, 2.0, 2 + math.sqrt(2), 2 + math.sqrt(2)]))
        assert np.allclose(spec.eigenvalues, expected, atol=1e-12)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_rank_and_closed_form_spectrum(self, n, path_system):
        _, lap, _ = path_system(n)
        spec = sf.spectrum(lap.matrix)
        assert spec.rank == 2 * n - 2
        assert spec.null_dim == 2
        assert np.allclose(spec.eigenvalues, path_eigenvalues(n, 2), atol=1e-12)
        assert math.isclose(spec.lambda_min_pos, slowest_rate(n), rel_tol=1e-12)

    @pytest.mark.parametrize("n", (3, 6, 9))
    def test_svd_cross_route(self, n, path_system):
        # independent decomposition: squared singular values of the incidence
        _, lap, _ = path_system(n)
        svals = np.linalg.svd(lap.incidence, compute_uv=False)
        nonzero = np.sort(svals ** 2)
        spec = sf.spectrum(lap.matrix)
        assert np.allclose(np.sort(spec.eigenvalues)[2:], nonzero, atol=1e-12)

    def test_asymmetric_matrix_rejected(self):
        q = np.eye(4)
        q[0, 1] = 1e-6
        with pytest.raises(ValueError, match="asymmetry"):
            sf.spectrum(q)

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError):
            sf.spectrum(np.eye(2), tol=0.0)

    @pytest.mark.parametrize("build", [
        lambda: sf.build_laplacian(sf.cycle_minus_edge(5, (5, 1))),
        sf.build_cube,
    ])
    def test_system_spectrum_computed_once(self, build):
        lap = build()
        spec = lap.spectrum
        assert lap.spectrum is spec


def assert_gauge_spectrum_matches_dense(lap) -> None:
    """The gauge spectrum of a system against one dense eigendecomposition of its matrix."""
    gauge, dense = lap.spectrum, sf.spectrum(lap.matrix)
    lam = gauge.eigenvalues
    assert np.abs(lam - dense.eigenvalues).max() <= 1e-12 * max(1.0, dense.lambda_max)
    assert (gauge.rank, gauge.null_dim) == (dense.rank, dense.null_dim)
    assert gauge.eigenvectors is None
    assert 0.0 <= gauge.spread <= 1e-12


class TestGaugeSpectrum:
    @settings(max_examples=60, deadline=None)
    @given(random_tree_cases(40))
    def test_random_trees_match_dense_route(self, case):
        n, cut, shifts, flips = case
        assert_gauge_spectrum_matches_dense(sf.build_laplacian(random_tree(n, cut, shifts, flips)))

    @pytest.mark.parametrize("spec", [
        sf.CubeSpec(),
        sf.CubeSpec(face_axis="y", face_angle=0.7, cross_axis="z", cross_angle=1.1,
                    cross_edge=(2, 6), cross_nodes=(2, 6, 7, 3)),
    ], ids=["default", "custom"])
    def test_cube_matches_dense_route(self, spec):
        assert_gauge_spectrum_matches_dense(sf.build_cube(spec))

    def test_planar_chain_is_the_exact_shift_null_basis(self):
        graph = random_tree(9, 4, [1, 3, 0, 8, 2, 5, 7, 4], [False, True] * 4)
        lap = sf.build_laplacian(graph)
        assert np.array_equal(lap.chain, sf.null_basis(graph))

    def test_scalar_laplacian_is_one_eigendecomposition(self, monkeypatch):
        sizes = []
        original = sf.laplacian.spectrum
        monkeypatch.setattr(sf.laplacian, "spectrum", lambda q, *a: sizes.append(q.shape) or original(q, *a))
        sf.build_laplacian(sf.cycle_minus_edge(7, (7, 1))).spectrum
        assert sizes == [(7, 7)]

    def test_cycle_rejected(self):
        # n edges carry holonomy the gauge cannot remove: refused, not misreported
        w = sf.rotation2(2 * math.pi / 4).matrix
        with pytest.raises(ValueError, match="spanning tree"):
            sf.laplacian_from_edges(4, 2, [(i, i % 4 + 1, w) for i in range(1, 5)])


class TestNullBasis:
    def test_columns_orthogonal_with_norm_n(self, path_system):
        for n in (3, 5, 8):
            _, _, chain = path_system(n)
            assert np.allclose(chain.T @ chain, n * np.eye(2), atol=1e-12)
            normalized = chain / math.sqrt(n)
            assert np.allclose(normalized.T @ normalized, np.eye(2), atol=1e-12)

    def test_annihilated_by_laplacian(self, path_system):
        for n in (3, 6, 10):
            _, lap, chain = path_system(n)
            assert np.abs(lap.matrix @ chain).max() <= 1e-10

    def test_projection_idempotent(self, path_system):
        _, _, chain = path_system(6)
        rng = np.random.default_rng(5)
        p = rng.uniform(-3, 3, 12)
        once = sf.steady_state(p, chain)
        assert np.allclose(sf.steady_state(once, chain), once, atol=1e-12)

    def test_rotated_basis_stays_in_null_space(self, path_system):
        # a globally rotated symmetric formation is still symmetric (planar case)
        _, lap, chain = path_system(5)
        rng = np.random.default_rng(9)
        for _ in range(10):
            r = sf.rotation2(rng.uniform(-math.pi, math.pi)).matrix
            q_seed = rng.uniform(-2, 2, 2)
            rotated = np.kron(np.eye(5), r) @ chain @ q_seed
            assert np.abs(lap.matrix @ rotated).max() <= 1e-10


class TestSteadyState:
    def test_single_excited_agent_frozen(self, path_system):
        # start with agent 1 at (1,0), everyone else at the origin
        _, _, chain = path_system(4)
        p0 = np.zeros(8)
        p0[0] = 1.0
        limit = sf.steady_state(p0, chain)
        expected = np.array([0.25, 0.0, 0.0, 0.25, -0.25, 0.0, 0.0, -0.25])
        assert np.allclose(limit, expected, atol=1e-15)

    @given(st.integers(3, 10), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_per_agent_route_agrees(self, n, seed):
        graph = sf.cycle_minus_edge(n, (n, 1))
        chain = sf.null_basis(graph)
        p0 = np.random.default_rng(seed).uniform(-4, 4, 2 * n)
        assert np.allclose(sf.steady_state(p0, chain),
                           sf.steady_state_per_agent(p0, chain.reshape(n, 2, 2)), atol=1e-12)

    def test_shape_mismatch_rejected(self, path_system):
        _, _, chain = path_system(4)
        with pytest.raises(ValueError, match="shape"):
            sf.steady_state(np.zeros(6), chain)


class TestClosedFormSolution:
    def test_time_zero_returns_start(self, path_system):
        _, lap, _ = path_system(5)
        p0 = np.random.default_rng(2).uniform(-2, 2, 10)
        assert np.allclose(sf.closed_form_solution(lap.matrix, p0, 0.0), p0, atol=1e-12)

    def test_long_horizon_converges_to_projection(self, path_system):
        _, lap, chain = path_system(6)
        p0 = np.random.default_rng(4).uniform(-2, 2, 12)
        far = sf.closed_form_solution(lap.matrix, p0, 1e6)
        assert np.allclose(far, sf.steady_state(p0, chain), atol=1e-9)

    def test_eigenvector_decays_at_its_rate(self, path_system):
        _, lap, _ = path_system(4)
        spec = sf.spectrum(lap.matrix)
        lam = spec.eigenvalues[spec.null_dim]
        v = spec.eigenvectors[:, spec.null_dim]
        t = 1.7
        assert np.allclose(sf.closed_form_solution(lap.matrix, v, t, spec=spec),
                           math.exp(-lam * t) * v, atol=1e-12)

    def test_negative_time_rejected(self, path_system):
        _, lap, _ = path_system(4)
        with pytest.raises(ValueError):
            sf.closed_form_solution(lap.matrix, np.zeros(8), -1.0)


class TestSymmetricConfiguration:
    def test_zero_errors_at_target(self, path_system):
        graph, lap, chain = path_system(7)
        p = sf.symmetric_configuration(chain, np.array([2.0, 0.5]))
        assert sf.edge_errors(p, graph).max() < 1e-14
        assert np.abs(lap.matrix @ p).max() < 1e-13


class TestOneFormationType:
    SPECS = ({"n": 5}, {"n": 7, "tree": {"remove": [3, 4]}}, {"formation": "cube"})

    def test_planar_and_cube_build_the_same_type(self):
        built = [cli.build_system(cli.parse_scenario(spec)) for spec in self.SPECS]
        assert {type(lap) for lap in built} == {sf.SymmetryLaplacian}

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_every_route_agrees_with_the_matrix(self, spec):
        lap = cli.build_system(cli.parse_scenario(spec))
        assert lap.routes and lap.routes[0][0] == "construction_routes"
        for name, _, matrix in lap.routes:
            assert np.abs(lap.matrix - matrix).max() <= checks.ROUTE_TOL, name


class TestOneTreeWalk:
    W = sf.rotation2(2 * math.pi / 5).matrix

    @pytest.mark.parametrize("edges", [  # a cycle: TestGaugeSpectrum.test_cycle_rejected
        [(1, 2), (2, 3), (3, 1), (4, 5)],
        [(1, 2), (2, 3), (3, 4)],
    ], ids=["disconnected", "too_few_edges"])
    def test_only_spanning_trees_accepted(self, edges):
        with pytest.raises(ValueError, match="spanning tree"):
            sf.laplacian_from_edges(5, 2, [(u, v, self.W) for (u, v) in edges])

    @pytest.mark.parametrize("spec", [{"n": 600}, {"formation": "cube"}], ids=["planar_600", "cube"])
    def test_each_build_walks_its_tree_once(self, spec, monkeypatch):
        walks = []
        original = topology._bfs_tree
        monkeypatch.setattr(topology, "_bfs_tree", lambda *a: walks.append(a[0]) or original(*a))
        cli.build_system(cli.parse_scenario(spec))
        assert len(walks) == 1

    def test_planar_build_makes_one_rotation_per_edge_shift(self, monkeypatch):
        built = []
        original = sf.Rotation.__post_init__
        monkeypatch.setattr(sf.Rotation, "__post_init__", lambda r: built.append(r) or original(r))
        lap = cli.build_system(cli.parse_scenario({"n": 600}))
        assert len(built) == 1  # the path tree's one shift; the chain is cos/sin of exact shifts
        assert lap.chain.shape == (1200, 2)


def test_package_exports_are_its_imports():
    tree = ast.parse(Path(sf.__file__).read_text())
    imported = [alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names if alias.name != "annotations"]
    assert len(sf.__all__) == len(set(sf.__all__))
    assert set(sf.__all__) == set(imported)
    for name in sf.__all__:
        assert getattr(sf, name) is not None
