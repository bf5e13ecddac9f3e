from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symform as sf
from conftest import slowest_rate


def triangle_example():
    """Frozen n=3 configuration: all three agents stacked at (1, 0)."""
    graph, tau = sf.cycle_minus_edge(3, (3, 1)), sf.assignment(3)
    p = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    return graph, tau, p


class TestPotential:
    def test_triangle_example_frozen(self):
        # both edge residuals are (3/2, sqrt(3)/2) with norm sqrt(3), so the
        # potential is exactly 0.5 * (3 + 3) = 3
        graph, tau, p = triangle_example()
        assert math.isclose(sf.potential(p, graph, tau), 3.0, abs_tol=1e-12)

    @given(st.integers(3, 9), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_quadratic_form(self, n, seed):
        graph, tau = sf.cycle_minus_edge(n, (n, 1)), sf.assignment(n)
        q = sf.build_laplacian(graph, tau).matrix
        p = np.random.default_rng(seed).uniform(-4, 4, 2 * n)
        assert math.isclose(sf.potential(p, graph, tau), 0.5 * float(p @ q @ p),
                            rel_tol=1e-10, abs_tol=1e-10)

    def test_zero_at_compatible_configuration(self):
        graph, tau = sf.cycle_minus_edge(6, (6, 1)), sf.assignment(6)
        p = sf.symmetric_configuration(sf.null_basis(graph, tau), np.array([0.7, -1.2]))
        assert sf.potential(p, graph, tau) < 1e-26


class TestEdgeErrors:
    def test_matches_incidence_route(self):
        graph, tau = sf.cycle_minus_edge(5, (2, 3)), sf.assignment(5)
        E = sf.build_laplacian(graph, tau).incidence
        p = np.random.default_rng(8).uniform(-3, 3, 10)
        direct = sf.edge_errors(p, graph, tau)
        via_incidence = np.sqrt(((E.T @ p).reshape(4, 2) ** 2).sum(axis=1))
        assert np.allclose(direct, via_incidence, atol=1e-13)

    def test_triangle_example_frozen(self):
        graph, tau, p = triangle_example()
        errs = sf.edge_errors(p, graph, tau)
        assert np.allclose(errs, [math.sqrt(3), math.sqrt(3)], atol=1e-12)


class TestControl:
    def test_triangle_example_frozen(self):
        # hand-reduced gradient at the frozen stacked configuration
        graph, tau, p = triangle_example()
        lap = sf.build_laplacian(graph, tau)
        root3 = math.sqrt(3)
        expected = np.array([-1.5, -root3 / 2, -3.0, 0.0, -1.5, root3 / 2])
        assert np.allclose(sf.control(p, lap), expected, atol=1e-12)

    @given(st.integers(3, 9), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_per_agent_route_agrees(self, n, seed):
        graph, tau = sf.cycle_minus_edge(n, (n, 1)), sf.assignment(n)
        lap = sf.build_laplacian(graph, tau)
        p = np.random.default_rng(seed).uniform(-4, 4, 2 * n)
        assert np.allclose(sf.control(p, lap), sf.control_per_agent(p, graph, tau),
                           atol=1e-12)

    def test_accepts_raw_matrix(self):
        graph, tau, p = triangle_example()
        lap = sf.build_laplacian(graph, tau)
        assert np.array_equal(sf.control(p, lap), sf.control(p, lap.matrix))

    def test_is_negative_gradient_of_potential(self):
        # central finite differences of the potential against -control
        graph, tau = sf.cycle_minus_edge(6, (6, 1)), sf.assignment(6)
        lap = sf.build_laplacian(graph, tau)
        rng = np.random.default_rng(17)
        p = rng.uniform(-2, 2, 12)
        u = sf.control(p, lap)
        h = 1e-5
        for i in range(12):
            step = np.zeros(12)
            step[i] = h
            fd = (sf.potential(p + step, graph, tau) - sf.potential(p - step, graph, tau)) / (2 * h)
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
        _, _, lap, _ = path_system(5)
        rng = np.random.default_rng(31)
        c0 = rng.uniform(-2, 2, 10)
        g2 = lap.matrix + 0.3 * np.kron(np.eye(5), sf.omega_matrix(1.0, 2))
        dt = 0.05
        states = sf.propagate_linear(c0, [(lap.matrix, 7), (g2, 5)], dt)
        assert states.shape == (13, 10)
        assert np.array_equal(states[0], c0)
        y = c0
        for k, g in enumerate([lap.matrix] * 7 + [g2] * 5):
            y = sf.rk4_step(lambda t, x, g=g: -(g @ x), k * dt, y, dt)
            assert np.array_equal(states[k + 1], y)


class TestIntegrate:
    def test_matches_closed_form(self, path_system):
        _, _, lap, _ = path_system(4)
        spec = sf.spectrum(lap.matrix)
        p0 = np.random.default_rng(1).uniform(-2, 2, 8)
        dt = 0.01 / spec.lambda_max
        trace = sf.integrate(lap, p0, dt=dt, horizon=1.0)
        exact = sf.closed_form_solution(lap.matrix, p0, trace.times[-1], spec=spec)
        assert np.abs(trace.final_state - exact).max() < 1e-10

    def test_default_grid_converges(self, path_system):
        _, _, lap, chain = path_system(6)
        p0 = np.random.default_rng(2).uniform(-2, 2, 12)
        trace = sf.integrate(lap, p0)
        assert np.abs(trace.final_state - sf.steady_state(p0, chain)).max() < 1e-6
        assert math.isclose(trace.metadata["dt"] * trace.metadata["lambda_max"], 0.5,
                            rel_tol=1e-12)

    def test_potential_monotone_under_default_step(self, path_system):
        _, _, lap, _ = path_system(5)
        p0 = np.random.default_rng(3).uniform(-2, 2, 10)
        trace = sf.integrate(lap, p0, horizon=5.0)
        diffs = np.diff(trace.potentials)
        assert (diffs <= 1e-15).all()

    def test_null_component_preserved(self, path_system):
        _, _, lap, chain = path_system(4)
        p0 = np.random.default_rng(4).uniform(-2, 2, 8)
        trace = sf.integrate(lap, p0, horizon=3.0)
        start_null = chain.T @ trace.states[0]
        end_null = chain.T @ trace.final_state
        assert np.allclose(start_null, end_null, atol=1e-12)

    def test_trace_shapes_and_grid(self, path_system):
        _, _, lap, _ = path_system(3)
        trace = sf.integrate(lap, np.zeros(6), dt=0.1, horizon=1.0)
        assert trace.states.shape == (11, 6)
        assert trace.edge_errors.shape == (11, 2)
        assert trace.times[0] == 0.0
        assert math.isclose(trace.times[-1], 1.0, rel_tol=1e-12)
        assert trace.edge_index == ((1, 2), (2, 3))

    def test_unstable_step_rejected_with_suggestion(self, path_system):
        _, _, lap, _ = path_system(4)
        with pytest.raises(ValueError, match="try dt"):
            sf.integrate(lap, np.zeros(8), dt=1.0)

    def test_bad_shape_rejected(self, path_system):
        _, _, lap, _ = path_system(4)
        with pytest.raises(ValueError, match="shape"):
            sf.integrate(lap, np.zeros(7))

    def test_bad_grid_rejected(self, path_system):
        _, _, lap, _ = path_system(4)
        with pytest.raises(ValueError):
            sf.integrate(lap, np.zeros(8), dt=-0.1)
        with pytest.raises(ValueError):
            sf.integrate(lap, np.zeros(8), horizon=0.0)


class TestFitRate:
    @pytest.mark.parametrize("n", (4, 6))
    def test_slowest_eigenvector_rate(self, n, path_system):
        # start on the slowest decaying eigenvector so the rate is known exactly
        _, _, lap, _ = path_system(n)
        spec = sf.spectrum(lap.matrix)
        v = spec.eigenvectors[:, spec.null_dim]
        trace = sf.integrate(lap, v, horizon=10.0 / slowest_rate(n))
        fitted = sf.fit_rate(trace)
        assert math.isclose(-fitted, slowest_rate(n), rel_tol=1e-2)

    def test_generic_start_fits_slowest_rate(self, path_system):
        _, _, lap, _ = path_system(6)
        p0 = np.random.default_rng(6).uniform(-2, 2, 12)
        trace = sf.integrate(lap, p0)
        assert math.isclose(-sf.fit_rate(trace), slowest_rate(6), rel_tol=0.05)

    def test_zero_error_start_rejected(self, path_system):
        _, _, lap, chain = path_system(4)
        p0 = sf.symmetric_configuration(chain, np.array([1.0, 0.0]))
        trace = sf.integrate(lap, p0, horizon=2.0)
        with pytest.raises(ValueError, match="underflow"):
            sf.fit_rate(trace)


class TestResolveGrid:
    def test_defaults_from_spectrum(self, path_system):
        _, _, lap, _ = path_system(6)
        spec = sf.spectrum(lap.matrix)
        dt, horizon, steps = sf.resolve_grid(spec, None, None)
        assert math.isclose(dt, 0.5 / spec.lambda_max, rel_tol=1e-12)
        assert math.isclose(horizon, 40.0 / slowest_rate(6), rel_tol=1e-9)
        assert steps == math.ceil(horizon / dt - 1e-12)

    def test_explicit_grid_passes_through(self, path_system):
        _, _, lap, _ = path_system(6)
        spec = sf.spectrum(lap.matrix)
        dt, horizon, steps = sf.resolve_grid(spec, 0.25, 10.0)
        assert (dt, horizon, steps) == (0.25, 10.0, 40)

    def test_oversized_trace_rejected_with_fitting_horizon(self, path_system):
        _, _, lap, _ = path_system(6)
        spec = sf.spectrum(lap.matrix)
        with pytest.raises(ValueError, match="MiB bound") as info:
            sf.resolve_grid(spec, None, 1e9)
        suggested = float(str(info.value).rsplit("try horizon = ", 1)[1].rstrip(")"))
        _, _, steps = sf.resolve_grid(spec, None, suggested)
        row_bytes = 96 * 12 + 256
        assert (steps + 1) * row_bytes <= sf.dynamics.MAX_TRACE_BYTES
        assert (steps + 1) * row_bytes > 0.99 * sf.dynamics.MAX_TRACE_BYTES

    def test_trace_bound_is_on_bytes(self, path_system):
        _, _, lap, _ = path_system(6)
        spec = sf.spectrum(lap.matrix)
        rows = sf.dynamics.MAX_TRACE_BYTES // (96 * 12 + 256)  # rows of 12 coordinates that fit
        assert sf.resolve_grid(spec, 0.25, (rows - 1) * 0.25)[2] == rows - 1
        with pytest.raises(ValueError, match=re.escape(f"{rows:.3g} steps of 12 coordinates")):
            sf.resolve_grid(spec, 0.25, rows * 0.25)
