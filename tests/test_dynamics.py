from __future__ import annotations

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symform as sf
from conftest import random_tree, random_tree_cases, slowest_rate
from symform import cli


def triangle_example():
    """Frozen n=3 configuration: all three agents stacked at (1, 0)."""
    graph = sf.cycle_minus_edge(3, (3, 1))
    p = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    return graph, p


class TestPotential:
    def test_triangle_example_frozen(self):
        # both edge residuals are (3/2, sqrt(3)/2) with norm sqrt(3), so the
        # potential is exactly 0.5 * (3 + 3) = 3
        graph, p = triangle_example()
        assert math.isclose(sf.potential(p, graph), 3.0, abs_tol=1e-12)

    @given(st.integers(3, 9), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_quadratic_form(self, n, seed):
        graph = sf.cycle_minus_edge(n, (n, 1))
        q = sf.build_laplacian(graph).matrix
        p = np.random.default_rng(seed).uniform(-4, 4, 2 * n)
        assert math.isclose(sf.potential(p, graph), 0.5 * float(p @ q @ p),
                            rel_tol=1e-10, abs_tol=1e-10)

    def test_zero_at_compatible_configuration(self):
        graph = sf.cycle_minus_edge(6, (6, 1))
        p = sf.symmetric_configuration(sf.null_basis(graph), np.array([0.7, -1.2]))
        assert sf.potential(p, graph) < 1e-26


class TestEdgeErrors:
    def test_matches_incidence_route(self):
        graph = sf.cycle_minus_edge(5, (2, 3))
        E = sf.build_laplacian(graph).incidence
        p = np.random.default_rng(8).uniform(-3, 3, 10)
        direct = sf.edge_errors(p, graph)
        via_incidence = np.sqrt(((E.T @ p).reshape(4, 2) ** 2).sum(axis=1))
        assert np.allclose(direct, via_incidence, atol=1e-13)

    def test_triangle_example_frozen(self):
        graph, p = triangle_example()
        errs = sf.edge_errors(p, graph)
        assert np.allclose(errs, [math.sqrt(3), math.sqrt(3)], atol=1e-12)

    @staticmethod
    def check_gauge_rows(lap: sf.SymmetryLaplacian, seed: int) -> None:
        # ‖q_u - q_v‖ of the gauge rows against the dense ‖(Eᵀ p)_e‖ of the world states
        states = np.random.default_rng(seed).uniform(-3, 3, (7, lap.n * lap.dim))
        rows = np.array([sf.dynamics._to_gauge(lap, p).ravel() for p in states])
        errors, potentials = sf.dynamics._edge_errors(lap, rows)
        dense = np.sqrt(((states @ lap.incidence).reshape(7, -1, lap.dim) ** 2).sum(axis=2))
        assert errors.shape == dense.shape and errors.flags.c_contiguous
        assert np.abs(errors - dense).max() <= 1e-12 * dense.max()
        assert np.abs(potentials - 0.5 * (dense ** 2).sum(axis=1)).max() <= 1e-12 * potentials.max()

    @given(random_tree_cases(12), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_gauge_rows_match_incidence_route(self, case, seed):
        self.check_gauge_rows(sf.build_laplacian(random_tree(*case)), seed)

    def test_cube_gauge_rows_match_incidence_route(self):
        self.check_gauge_rows(sf.build_cube(), 12)

    def test_gauge_rows_form_no_incidence(self, path_system):
        # 41 rows of a planar n = 600 run peak below half of one n x (n - 1) array,
        # which a ±1 tree incidence alone would fill
        lap = path_system(600)[1]
        rows = np.random.default_rng(13).uniform(-2, 2, (41, 1200))
        tracemalloc.start()
        try:
            sf.dynamics._edge_errors(lap, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 600 * 599 * 8


class TestControl:
    def test_triangle_example_frozen(self):
        # hand-reduced gradient at the frozen stacked configuration
        graph, p = triangle_example()
        lap = sf.build_laplacian(graph)
        root3 = math.sqrt(3)
        expected = np.array([-1.5, -root3 / 2, -3.0, 0.0, -1.5, root3 / 2])
        assert np.allclose(sf.control(p, lap), expected, atol=1e-12)

    @given(st.integers(3, 9), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_per_agent_route_agrees(self, n, seed):
        graph = sf.cycle_minus_edge(n, (n, 1))
        lap = sf.build_laplacian(graph)
        p = np.random.default_rng(seed).uniform(-4, 4, 2 * n)
        assert np.allclose(sf.control(p, lap), sf.control_per_agent(p, graph),
                           atol=1e-12)

    def test_accepts_raw_matrix(self):
        graph, p = triangle_example()
        lap = sf.build_laplacian(graph)
        assert np.array_equal(sf.control(p, lap), sf.control(p, lap.matrix))

    def test_is_negative_gradient_of_potential(self):
        # central finite differences of the potential against -control
        graph = sf.cycle_minus_edge(6, (6, 1))
        lap = sf.build_laplacian(graph)
        rng = np.random.default_rng(17)
        p = rng.uniform(-2, 2, 12)
        u = sf.control(p, lap)
        h = 1e-5
        for i in range(12):
            step = np.zeros(12)
            step[i] = h
            fd = (sf.potential(p + step, graph) - sf.potential(p - step, graph)) / (2 * h)
            assert math.isclose(-u[i], fd, rel_tol=1e-6, abs_tol=1e-8)


class TestRk4Step:
    def test_scalar_decay_accuracy(self):
        # one RK4 step on y' = -y matches the degree-4 Taylor truncation exactly
        h = 0.25
        y1 = sf.rk4_step(lambda t, y: -y, 0.0, np.array([1.0]), h)
        taylor = 1 - h + h ** 2 / 2 - h ** 3 / 6 + h ** 4 / 24
        assert math.isclose(float(y1[0]), taylor, rel_tol=1e-15)

    def test_time_dependent_field(self):
        # y' = t has exact solution t^2/2; RK4 is exact on polynomials of degree <= 4
        y1 = sf.rk4_step(lambda t, y: np.array([t]), 0.0, np.array([0.0]), 2.0)
        assert math.isclose(float(y1[0]), 2.0, rel_tol=1e-15)


class TestPropagateLinear:
    def test_matches_rk4_step_bitwise(self, path_system):
        # each segment must reproduce rk4_step on -(G @ y), step for step
        _, lap, _ = path_system(5)
        rng = np.random.default_rng(31)
        c0 = rng.uniform(-2, 2, 10)
        g2 = lap.matrix + 0.3 * np.kron(np.eye(5), sf.omega_matrix(1.0, 2))
        dt = 0.05
        states = sf.propagate_linear(c0, iter([(lap.matrix, 7), (g2, 5)]), dt, 12)
        assert states.shape == (13, 10)
        assert np.array_equal(states[0], c0)
        y = c0
        for k, g in enumerate([lap.matrix] * 7 + [g2] * 5):
            y = sf.rk4_step(lambda t, x, g=g: -(g @ x), k * dt, y, dt)
            assert np.array_equal(states[k + 1], y)

    @pytest.mark.parametrize("formation", ["planar", "cube"])
    def test_block_path_matches_rk4_step(self, path_system, formation):
        # 3,000 steps of dim 10 (blocks of 256) and 2,000 of dim 24 (blocks of 83)
        if formation == "planar":
            lap, steps = path_system(5)[1], 3000
            g = lap.matrix - np.kron(np.eye(5), sf.omega_matrix(0.4, 2)) + 0.02 * np.eye(10)
        else:
            lap, steps = sf.build_cube(), 2000
            g = lap.matrix - np.kron(np.eye(8), sf.omega_matrix([0.2, -0.1, 0.3], 3)) + 0.01 * np.eye(24)
        c0 = np.random.default_rng(33).uniform(-2, 2, g.shape[0])
        states = sf.propagate_linear(c0, [(g, steps)], 0.04, steps)
        y = c0
        for k in range(steps):
            y = sf.rk4_step(lambda t, x: -(g @ x), k * 0.04, y, 0.04)
            assert np.abs(states[k + 1] - y).max() <= 1e-12 * np.abs(states).max()

    def test_block_size_follows_count_and_dim(self, path_system, monkeypatch):
        # blocks of min(256, count // dim) steps; a segment under 2·dim steps runs the stage
        # loop and reproduces rk4_step bitwise from wherever the block path left it
        _, lap, _ = path_system(5)
        g2 = lap.matrix + 0.3 * np.kron(np.eye(5), sf.omega_matrix(1.0, 2))
        g3 = lap.matrix + 0.05 * np.eye(10)
        blocks = []
        power_steps = sf.dynamics._power_steps
        monkeypatch.setattr(sf.dynamics, "_power_steps",
                            lambda out, k, count, d, block: blocks.append(block) or power_steps(out, k, count, d, block))
        c0 = np.random.default_rng(34).uniform(-2, 2, 10)
        segments = [(lap.matrix, 137), (g2, 19), (g3, 2900)]
        states = sf.propagate_linear(c0, iter(segments), 0.05, 3056)
        assert blocks == [13, 256]
        y, k = c0, 0
        for g, count in segments:
            if count < 20:
                y = states[k]
            for _ in range(count):
                y = sf.rk4_step(lambda t, x, g=g: -(g @ x), k * 0.05, y, 0.05)
                k += 1
                if count < 20:
                    assert np.array_equal(states[k], y)
                else:
                    assert np.abs(states[k] - y).max() <= 1e-12 * np.abs(states).max()

    @pytest.mark.parametrize("operator", ["scalar_on_rows", "matrix_on_one_column", "matrix_off_tree"])
    def test_nonzero_stage_loop_matches_dense(self, path_system, operator):
        # at the crossover the stage loop sums G y over G's nonzero entries; it matches the
        # dense stage loop (rk4_step on -(G @ y), on the same rows) to rounding
        rows_per_column = sf.dynamics.NONZERO_STAGE_ROWS
        if operator == "scalar_on_rows":  # an n x n L on (n, 2) rows
            g, columns = path_system(2 * rows_per_column)[1].scalar, 2
        else:  # a dn x dn Q on one column
            g, columns = path_system(rows_per_column // 2)[1].matrix, 1
        if operator == "matrix_off_tree":  # the entries are read from G, not from the tree
            g = g.copy()
            g[0, 7] = g[7, 0] = 0.25
        product = sf.dynamics._stage_product(g, columns)
        assert getattr(product, "__self__", None) is not g  # not the dense g.__matmul__
        c0 = np.random.default_rng(35).uniform(-2, 2, (g.shape[0], columns))
        states = sf.propagate_linear(c0, [(g, 12)], 0.05, 12)
        y = c0
        for k in range(12):
            y = sf.rk4_step(lambda t, x: -(g @ x), k * 0.05, y, 0.05)
            assert np.abs(states[k + 1] - y.ravel()).max() <= 1e-14 * np.abs(states).max()

    @pytest.mark.parametrize("width, g", [(6, np.eye(4)), (6, np.eye(2, dtype=complex)),
                                          (5, np.eye(2, dtype=complex))],
                             ids=["real", "complex", "complex_odd_width"])
    def test_operator_must_divide_the_row(self, width, g):
        # 6 coordinates are 3 complex points: neither a 4 x 4 nor a complex 2 x 2 G acts on them;
        # 5 coordinates are no whole number of complex points
        m = g.shape[0]
        with pytest.raises(ValueError, match=f"a {m} x {m} operator does not act on rows of {width} coordinates"):
            sf.propagate_linear(np.ones(width), [(g, 2)], 0.05, 2)

    def test_step_counts_must_add_up(self, path_system):
        _, lap, _ = path_system(3)
        with pytest.raises(ValueError, match="segments hold 7 steps, expected 12"):
            sf.propagate_linear(np.ones(6), [(lap.matrix, 7)], 0.05, 12)


class TestIntegrate:
    def test_matches_closed_form(self, path_system):
        _, lap, _ = path_system(4)
        spec = sf.spectrum(lap.matrix)
        p0 = np.random.default_rng(1).uniform(-2, 2, 8)
        dt = 0.01 / spec.lambda_max
        trace = sf.integrate(lap, p0, dt=dt, horizon=1.0)
        exact = sf.closed_form_solution(lap.matrix, p0, trace.times[-1], spec=spec)
        assert np.abs(trace.final_state - exact).max() < 1e-10

    def test_default_grid_converges(self, path_system):
        _, lap, chain = path_system(6)
        p0 = np.random.default_rng(2).uniform(-2, 2, 12)
        trace = sf.integrate(lap, p0)
        assert np.abs(trace.final_state - sf.steady_state(p0, chain)).max() < 1e-6
        assert math.isclose(trace.dt * lap.spectrum.lambda_max, 0.5, rel_tol=1e-12)

    def test_potential_monotone_under_default_step(self, path_system):
        _, lap, _ = path_system(5)
        p0 = np.random.default_rng(3).uniform(-2, 2, 10)
        trace = sf.integrate(lap, p0, horizon=5.0)
        diffs = np.diff(trace.potentials)
        assert (diffs <= 1e-15).all()

    def test_null_component_preserved(self, path_system):
        _, lap, chain = path_system(4)
        p0 = np.random.default_rng(4).uniform(-2, 2, 8)
        trace = sf.integrate(lap, p0, horizon=3.0)
        start_null = chain.T @ trace.states[0]
        end_null = chain.T @ trace.final_state
        assert np.allclose(start_null, end_null, atol=1e-12)

    def test_trace_shapes_and_grid(self, path_system):
        _, lap, _ = path_system(3)
        trace = sf.integrate(lap, np.zeros(6), dt=0.1, horizon=1.0)
        assert trace.states.shape == (11, 6)
        assert trace.edge_errors.shape == (11, 2)
        assert trace.times[0] == 0.0
        assert math.isclose(trace.times[-1], 1.0, rel_tol=1e-12)
        assert trace.edge_index == ((1, 2), (2, 3))

    def test_unstable_step_rejected_with_suggestion(self, path_system):
        _, lap, _ = path_system(4)
        with pytest.raises(ValueError, match="try dt"):
            sf.integrate(lap, np.zeros(8), dt=1.0)

    def test_bad_shape_rejected(self, path_system):
        _, lap, _ = path_system(4)
        with pytest.raises(ValueError, match="shape"):
            sf.integrate(lap, np.zeros(7))

    def test_bad_grid_rejected(self, path_system):
        _, lap, _ = path_system(4)
        with pytest.raises(ValueError):
            sf.integrate(lap, np.zeros(8), dt=-0.1)
        with pytest.raises(ValueError):
            sf.integrate(lap, np.zeros(8), horizon=0.0)


class TestFitRate:
    @pytest.mark.parametrize("n", (4, 6))
    def test_slowest_eigenvector_rate(self, n, path_system):
        # start on the slowest decaying eigenvector so the rate is known exactly
        _, lap, _ = path_system(n)
        spec = sf.spectrum(lap.matrix)
        v = spec.eigenvectors[:, spec.null_dim]
        trace = sf.integrate(lap, v, horizon=10.0 / slowest_rate(n))
        fitted = sf.fit_rate(trace)
        assert math.isclose(-fitted, slowest_rate(n), rel_tol=1e-2)

    def test_generic_start_fits_slowest_rate(self, path_system):
        _, lap, _ = path_system(6)
        p0 = np.random.default_rng(6).uniform(-2, 2, 12)
        trace = sf.integrate(lap, p0)
        assert math.isclose(-sf.fit_rate(trace), slowest_rate(6), rel_tol=0.05)

    @pytest.mark.parametrize("name", ("example2_c4", "example3_c6", "cube"))
    def test_stationary_preset_rate_clear_of_rounding(self, name):
        # a window that reaches into the rounding noise of a converged run fits
        # a rate 2.4e-4 to 6.9e-4 (relative) off the closed form
        _, _, metrics = cli.run_scenario(cli.load_scenario(name))
        assert metrics["fitted_rate_rel_gap"] <= 1e-4

    def test_zero_error_start_rejected(self, path_system):
        _, lap, chain = path_system(4)
        p0 = sf.symmetric_configuration(chain, np.array([1.0, 0.0]))
        trace = sf.integrate(lap, p0, horizon=2.0)
        with pytest.raises(ValueError, match="underflow"):
            sf.fit_rate(trace)


class TestResolveGrid:
    def test_defaults_from_spectrum(self, path_system):
        _, lap, _ = path_system(6)
        spec = sf.spectrum(lap.matrix)
        dt, horizon, steps = sf.resolve_grid(spec, None, None)
        assert math.isclose(dt, 0.5 / spec.lambda_max, rel_tol=1e-12)
        assert math.isclose(horizon, 40.0 / slowest_rate(6), rel_tol=1e-9)
        assert steps == math.ceil(horizon / dt - 1e-12)

    def test_explicit_grid_passes_through(self, path_system):
        _, lap, _ = path_system(6)
        spec = sf.spectrum(lap.matrix)
        dt, horizon, steps = sf.resolve_grid(spec, 0.25, 10.0)
        assert (dt, horizon, steps) == (0.25, 10.0, 40)

    def test_oversized_trace_rejected_with_fitting_horizon(self, path_system):
        _, lap, _ = path_system(6)
        spec = sf.spectrum(lap.matrix)
        with pytest.raises(ValueError, match="MiB bound") as info:
            sf.resolve_grid(spec, None, 1e9)
        suggested = float(str(info.value).rsplit("try horizon = ", 1)[1].rstrip(")"))
        _, _, steps = sf.resolve_grid(spec, None, suggested)
        row_bytes = sf.dynamics.TRACE_ROW_BYTES_PER_COORD * 12 + sf.dynamics.TRACE_ROW_BYTES_FIXED
        assert (steps + 1) * row_bytes <= sf.dynamics.MAX_TRACE_BYTES
        assert (steps + 1) * row_bytes > 0.99 * sf.dynamics.MAX_TRACE_BYTES

    def test_trace_bound_is_on_bytes(self, path_system):
        _, lap, _ = path_system(6)
        spec = sf.spectrum(lap.matrix)
        row_bytes = sf.dynamics.TRACE_ROW_BYTES_PER_COORD * 12 + sf.dynamics.TRACE_ROW_BYTES_FIXED
        rows = sf.dynamics.MAX_TRACE_BYTES // row_bytes  # rows of 12 coordinates that fit
        assert sf.resolve_grid(spec, 0.25, (rows - 1) * 0.25)[2] == rows - 1
        with pytest.raises(ValueError, match=re.escape(f"{rows:.3g} steps of 12 coordinates")):
            sf.resolve_grid(spec, 0.25, rows * 0.25)
