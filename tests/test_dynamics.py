from __future__ import annotations

import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symform as sf
from conftest import random_tree, random_tree_cases, slowest_rate
from symform import checks, cli, dynamics

ROOT = Path(__file__).resolve().parents[1]


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
        assert math.isclose(checks.potential(p, graph), 3.0, abs_tol=1e-12)

    @given(st.integers(3, 9), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_quadratic_form(self, n, seed):
        graph = sf.cycle_minus_edge(n, (n, 1))
        q = sf.build_laplacian(graph).matrix
        p = np.random.default_rng(seed).uniform(-4, 4, 2 * n)
        assert math.isclose(checks.potential(p, graph), 0.5 * float(p @ q @ p),
                            rel_tol=1e-10, abs_tol=1e-10)

    def test_zero_at_compatible_configuration(self):
        graph = sf.cycle_minus_edge(6, (6, 1))
        p = checks.symmetric_configuration(sf.null_basis(graph), np.array([0.7, -1.2]))
        assert checks.potential(p, graph) < 1e-26


class TestEdgeErrors:
    def test_matches_incidence_route(self):
        graph = sf.cycle_minus_edge(5, (2, 3))
        E = sf.build_laplacian(graph).incidence
        p = np.random.default_rng(8).uniform(-3, 3, 10)
        direct = checks.edge_errors(p, graph)
        via_incidence = np.sqrt(((E.T @ p).reshape(4, 2) ** 2).sum(axis=1))
        assert np.allclose(direct, via_incidence, atol=1e-13)

    def test_triangle_example_frozen(self):
        graph, p = triangle_example()
        errs = checks.edge_errors(p, graph)
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

    @pytest.mark.parametrize("count", (1, 50, 4001))
    def test_cube_world_rows_match_per_node_loop(self, count):
        # the batched rotation out of the gauge against the per-node products it replaced, bit for bit
        lap = sf.build_cube()
        rows = np.random.default_rng(count).uniform(-3, 3, (count, 24))
        expected = rows.copy().reshape(count, 8, 3)
        for i, s in enumerate(lap.chain.reshape(8, 3, 3)):
            expected[:, i] = expected[:, i] @ s.T
        sf.dynamics._to_world(lap, rows)
        assert np.array_equal(rows, expected.reshape(count, 24))

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
        assert np.allclose(checks.control(p, lap), expected, atol=1e-12)

    @given(st.integers(3, 9), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_per_agent_route_agrees(self, n, seed):
        graph = sf.cycle_minus_edge(n, (n, 1))
        lap = sf.build_laplacian(graph)
        p = np.random.default_rng(seed).uniform(-4, 4, 2 * n)
        assert np.allclose(checks.control(p, lap), checks.control_per_agent(p, graph),
                           atol=1e-12)

    def test_accepts_raw_matrix(self):
        graph, p = triangle_example()
        lap = sf.build_laplacian(graph)
        assert np.array_equal(checks.control(p, lap), checks.control(p, lap.matrix))

    def test_is_negative_gradient_of_potential(self):
        # central finite differences of the potential against -control
        graph = sf.cycle_minus_edge(6, (6, 1))
        lap = sf.build_laplacian(graph)
        rng = np.random.default_rng(17)
        p = rng.uniform(-2, 2, 12)
        u = checks.control(p, lap)
        h = 1e-5
        for i in range(12):
            step = np.zeros(12)
            step[i] = h
            fd = (checks.potential(p + step, graph) - checks.potential(p - step, graph)) / (2 * h)
            assert math.isclose(-u[i], fd, rel_tol=1e-6, abs_tol=1e-8)


class TestRk4Step:
    def test_scalar_decay_accuracy(self):
        # one RK4 step on y' = -y matches the degree-4 Taylor truncation exactly
        h = 0.25
        y1 = dynamics.rk4_step(lambda t, y: -y, 0.0, np.array([1.0]), h)
        taylor = 1 - h + h ** 2 / 2 - h ** 3 / 6 + h ** 4 / 24
        assert math.isclose(float(y1[0]), taylor, rel_tol=1e-15)

    def test_time_dependent_field(self):
        # y' = t has exact solution t^2/2; RK4 is exact on polynomials of degree <= 4
        y1 = dynamics.rk4_step(lambda t, y: np.array([t]), 0.0, np.array([0.0]), 2.0)
        assert math.isclose(float(y1[0]), 2.0, rel_tol=1e-15)


def take_path(monkeypatch, path: str) -> None:
    """Send every segment of propagate_linear down ``path``, whatever the rule would pick."""
    def chosen(g, count, width):
        return dynamics.SegmentPath(path, dynamics.block_size(g.shape[0], count) if path == "block" else 0, count)

    monkeypatch.setattr(dynamics, "segment_path", chosen)


class TestPropagateLinear:
    def test_matches_rk4_step_bitwise(self, path_system, monkeypatch):
        # on the stencil path, selected here (the rule sends segments this short at n = 5 down
        # the block path), each segment of a real and a complex stencil must reproduce rk4_step
        # on -(stencil @ y), on the rows the stencil acts on, step for step
        take_path(monkeypatch, "stencil")
        dt = 0.05
        for n in (5, 300):
            _, lap, _ = path_system(n)
            c0 = np.random.default_rng(31).uniform(-2, 2, 2 * n)
            segments = [(lap.shifted(0.0), 7), (lap.shifted(0.05 + 0.3j), 5)]
            states = sf.propagate_linear(c0, iter(segments), dt, 12)
            assert states.shape == (13, 2 * n)
            assert np.array_equal(states[0], c0)
            y, k = c0, 0
            for g, count in segments:
                for _ in range(count):
                    x = dynamics._rows(y[None], g)[0]  # (n, 2) rows, or the n points x + iy
                    y = dynamics.rk4_step(lambda t, x, g=g: -(g @ x), k * dt, x, dt).view(float).ravel()
                    k += 1
                    assert states[k].tobytes() == y.tobytes()

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
        assert dynamics.segment_path(g, steps, c0.size) == ("block", min(256, steps // g.shape[0]), steps)
        states = sf.propagate_linear(c0, [(g, steps)], 0.04, steps)
        y = c0
        for k in range(steps):
            y = dynamics.rk4_step(lambda t, x: -(g @ x), k * 0.04, y, 0.04)
            assert np.abs(states[k + 1] - y).max() <= 1e-12 * np.abs(states).max()

    def test_block_size_follows_count_and_dim(self, path_system, monkeypatch):
        # blocks of min(256, count // dim) steps, at least 1: the 19 steps of a 10 x 10 G take
        # the block path one step per product
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
        assert blocks == [13, 1, 256]
        y, k = c0, 0
        for g, count in segments:
            for _ in range(count):
                y = dynamics.rk4_step(lambda t, x, g=g: -(g @ x), k * 0.05, y, 0.05)
                k += 1
                assert np.abs(states[k] - y).max() <= 1e-12 * np.abs(states).max()

    @staticmethod
    def crossover_operator(path_system, operator: str) -> tuple[np.ndarray | sf.laplacian.PathStencil, int]:
        """An m x m G and the columns it acts on, 256 rows a column: as a planar tree's
        stencil, past the m where the rule sends its long segments to the stencil, or
        as an array of the same size."""
        rows_per_column = 256
        if operator == "scalar_on_rows":  # an n x n L on (n, 2) rows
            return path_system(2 * rows_per_column)[1].scalar, 2
        if operator == "stencil_on_rows":  # the same L as a planar run holds it
            return path_system(2 * rows_per_column)[1].shifted(0.0), 2
        if operator == "complex_on_points":  # a maneuver's L - (α + iω)I on the n points x + iy
            return path_system(rows_per_column)[1].scalar - (0.05 + 0.3j) * np.eye(rows_per_column), 1
        if operator == "complex_stencil_on_points":
            return path_system(rows_per_column)[1].shifted(0.05 + 0.3j), 1
        return path_system(rows_per_column // 2)[1].matrix, 1  # a dn x dn Q on one column

    def assert_matches_dense_stages(self, g, c0, steps, states, tol):
        """Each row of ``states`` against rk4_step on -(G @ y), on the rows G acts on, with
        G dense: within ``tol`` of the largest state."""
        if isinstance(g, sf.laplacian.PathStencil):
            g = g.dense()
        y = c0.view(g.dtype)  # x + iy points for a complex G
        for k in range(steps):
            y = dynamics.rk4_step(lambda t, x: -(g @ x), k * 0.05, y, 0.05)
            assert np.abs(states[k + 1] - y.view(float).ravel()).max() <= tol * np.abs(states).max()

    @pytest.mark.parametrize("operator", ["scalar_on_rows", "matrix_on_one_column", "complex_on_points",
                                          "stencil_on_rows", "complex_stencil_on_points"])
    def test_nonzero_stage_loop_matches_dense(self, path_system, operator):
        # 12 steps of a G this size: the rule keeps a stencil on its stage loop, which sums G y
        # over the stencil's nonzero entries, and sends an array G down the block path. Both
        # match the dense stages (rk4_step on -(G @ y), on the same rows) to rounding
        g, columns = self.crossover_operator(path_system, operator)
        c0 = np.random.default_rng(35).uniform(-2, 2, (g.shape[0], columns * g.dtype.itemsize // 8))
        stencil = "stencil" in operator
        assert dynamics.segment_path(g, 12, c0.size).path == ("stencil" if stencil else "block")
        states = sf.propagate_linear(c0, [(g, 12)], 0.05, 12)
        self.assert_matches_dense_stages(g, c0, 12, states, 1e-14 if stencil else 1e-12)

    @pytest.mark.parametrize("operator", ["scalar_on_rows", "matrix_on_one_column", "complex_on_points",
                                          "stencil_on_rows", "complex_stencil_on_points"])
    def test_long_segment_past_the_crossover_takes_the_stage_loop(self, path_system, operator, monkeypatch):
        # 2m steps make a block of 2, yet the rule keeps a stencil of this size on its stage
        # loop: O(m) a stage against a B·m³ stack. An array G of this size takes the block path
        g, columns = self.crossover_operator(path_system, operator)
        steps = 2 * g.shape[0]
        c0 = np.random.default_rng(36).uniform(-2, 2, (g.shape[0], columns * g.dtype.itemsize // 8))
        stencil = "stencil" in operator
        assert dynamics.segment_path(g, steps, c0.size) == (
            ("stencil", 0, steps) if stencil else ("block", dynamics.block_size(g.shape[0], steps), steps))
        if stencil:
            monkeypatch.setattr(sf.dynamics, "_power_steps", lambda *args: pytest.fail("block path taken"))
        states = sf.propagate_linear(c0, [(g, steps)], 0.05, steps)
        # measured: within 1.7e-16 of the largest state for a real stencil, 5.6e-16 for the
        # complex one, 2.7e-15 on the block path
        self.assert_matches_dense_stages(g, c0, steps, states, 1e-14 if stencil else 1e-12)

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


CUBE_MANEUVER = {  # the shape of the benchmark's 3-D maneuver: three runs of constant input
    "formation": "cube", "dt": 0.03, "horizon": 120.0,
    "reference": {"velocity": [[t, [0.1, -0.2, 0.3]] for t in (0.0, 40.0, 80.0)],
                  "angular_velocity": [[0.0, [0.02, -0.12, -0.05]], [40.0, [-0.28, -0.23, 0.1]],
                                       [80.0, [0.09, 0.07, -0.07]]],
                  "scale_rate": [[0.0, 0.01], [40.0, 0.0096], [80.0, 0.0037]]},
}


MANEUVER_N300 = {  # a planar maneuver whose complex L - (α + iω)I runs 300 and then 600 steps
    "n": 300, "dt": 0.1, "horizon": 90,
    "reference": {"angular_velocity": [[0, 0.2], [30, -0.1]], "scale_rate": [[0, -0.005]]},
}


class TestSegmentPath:
    @pytest.mark.parametrize("scenario, dt, segments", [
        ({"n": 600, "horizon": 5.0}, None, [("stencil", 0, 40)]),
        ({"n": 16}, None, [("block", 256, 8247)]),
        ({"n": 300, "dt": 0.01, "horizon": 4}, None, [("block", 1, 400)]),
        ({"n": 600, "dt": 0.1, "horizon": 120.0}, None, [("stencil", 0, 1200)]),
        (MANEUVER_N300, None, [("stencil", 0, 300), ("stencil", 0, 600)]),
        ("maneuver_c6", 0.015, [("block", 256, 2000)] * 3),
        (CUBE_MANEUVER, None, [("block", 55, 1334), ("block", 55, 1333), ("block", 55, 1333)]),
        ({"n": 450, "dt": 0.1, "horizon": 400}, None, [("stencil", 0, 4000)]),
        ({"n": 600, "dt": 0.1, "horizon": 400}, None, [("stencil", 0, 4000)]),
    ], ids=["wide_n600", "flow_n16", "planar_n300_400_steps", "planar_n600_long", "maneuver_n300",
            "maneuver_c6", "cube_maneuver", "planar_n450_4000_steps", "planar_n600_4000_steps"])
    def test_run_segments_take_the_cheapest_path(self, scenario, dt, segments):
        # the benchmark's run segments: the n = 600 run of 40 steps on the stencil, the long runs
        # on the block path with B = min(256, steps // m); the snapshot runs that bound
        # STENCIL_STEP_MULADDS from below (400 steps at m = 300 on 2 columns, block path, B = 1)
        # and above (a complex m = 300 run of 600 steps, stencil); and 4,000 steps at m = 450 and
        # 600 on 2 columns, where the block path's products with the state rows, B = 8 and 6,
        # take three to five times the stencil's time
        scn = cli.load_scenario(scenario) if isinstance(scenario, str) else cli.parse_scenario(scenario)
        if dt is not None:
            scn.dt = dt
        trace, _, metrics = cli.run_scenario(scn)
        assert trace.solver == tuple(dynamics.SegmentPath(*segment) for segment in segments)
        assert metrics["solver"] == {"spectrum": "path formula",
                                     "segments": [dict(zip(("path", "block", "steps"), s)) for s in segments]}

    def test_verify_n256_takes_the_block_path(self, monkeypatch):
        # verify's solver check at n = 256, 400 steps on 2 columns: block path, B = 1
        paths = []
        segment_path = dynamics.segment_path
        monkeypatch.setattr(dynamics, "segment_path", lambda *args: paths.append(segment_path(*args)) or paths[-1])
        results = cli.verify_scenario(cli.parse_scenario({"n": 256}))
        assert all(r.passed for r in results)
        assert set(paths) == {("block", 1, 400)}

    def test_constants_are_the_measured_fit(self, solver_costs):
        # STENCIL_STEP_MULADDS cites BENCH_scaling.json: it is the file's constant and what
        # solver_costs.fit makes of the recorded table, and the rule picks each cell's recorded
        # path again
        section = json.loads((ROOT / "BENCH_scaling.json").read_text())["solver_paths"]
        assert dynamics.STENCIL_STEP_MULADDS == section["stencil_step_muladds"] == solver_costs.fit(section["table"])
        for row in section["table"]:
            assert solver_costs.rule(row) == row["rule"]

    def test_spectrum_source_is_recorded(self):
        _, _, metrics = cli.run_scenario(cli.parse_scenario({"formation": "cube", "cube": {"cross_edge": [2, 6]}}))
        assert metrics["solver"]["spectrum"] == "eigvalsh of L"

    @pytest.mark.parametrize("m, count, columns, dtype, stencil, path", [
        (6, 1, 2, float, True, "block"), (8, 1, 3, float, False, "block"), (6, 3, 2, float, True, "block"),
        (128, 200, 2, float, True, "block"), (256, 400, 2, float, True, "block"), (400, 400, 2, float, True, "stencil"),
        (600, 40, 2, float, True, "stencil"), (600, 1200, 2, float, True, "stencil"),
        (300, 300, 1, complex, True, "stencil"), (64, 200, 1, complex, True, "block"),
        (400, 1000, 1, float, True, "block"), (400, 1000, 3, float, True, "stencil"),
    ])
    def test_rule_picks_the_cheapest_modelled_path(self, m, count, columns, dtype, stencil, path, monkeypatch,
                                                   solver_costs):
        # the rule reads G's kind, m, dtype, the step count and the state's columns (400 steps
        # at m = 400 take the stencil by 6%; 1,000 steps there take the block path on one column
        # and the stencil on three), and propagate_linear takes the path it picks; an array G
        # has only the block path
        g = solver_costs.stencil(m, np.dtype(dtype).name)
        g = g if stencil else g.dense()
        width = m * columns * (2 if dtype is complex else 1)
        assert dynamics.segment_path(g, count, width).path == path
        taken = []
        monkeypatch.setattr(dynamics, "_power_steps", lambda *args: taken.append("block"))
        monkeypatch.setattr(dynamics, "_stage_steps", lambda *args: taken.append("stencil"))
        sf.propagate_linear(np.zeros(width), [(g, count)], 0.05, count)
        assert taken == [path]


def nonzero_product(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """G x on (m, columns) rows summed over the dense G's nonzero entries: one bincount per
    column over the float64 parts of the products (one per real entry, two per complex one),
    which adds each row's terms in ascending column order to 0.0."""
    m, columns = x.shape
    rows, cols = np.nonzero(g)
    entries = g[rows, cols]
    parts = entries.itemsize // 8
    index = (parts * rows[:, None] + np.arange(parts)).ravel()
    y = np.empty((m, columns), dtype=g.dtype)
    for j in range(columns):
        y[:, j] = np.bincount(index, (entries * x[cols, j]).view(np.float64), minlength=parts * m).view(g.dtype)
    return y


class TestPathStencil:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_equals_the_nonzero_stage_product(self, data):
        # the stencil sums each row in ascending column order and adds 0.0, so it equals the
        # bincount over the dense G's nonzero entries bit for bit, zero signs included, at every n
        n = data.draw(st.integers(3, 552), label="n")
        cut = data.draw(st.integers(0, n - 1), label="cut")
        real = st.one_of(st.just(0.0), st.sampled_from([1.0, 2.0, -0.5]), st.floats(-3, 3))
        shift = data.draw(st.one_of(real, st.builds(complex, real, real)), label="shift")
        columns = data.draw(st.integers(1, 3), label="columns")
        kind = data.draw(st.sampled_from(["normal", "tiny", "integer", "zero", "signed_zero"]), label="kind")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        shape = (n, 2 * columns)
        x = {"normal": lambda: rng.normal(size=shape), "tiny": lambda: 1e-300 * rng.normal(size=shape),
             "integer": lambda: rng.integers(-4, 5, size=shape).astype(float), "zero": lambda: np.zeros(shape),
             "signed_zero": lambda: np.where(rng.random(shape) < 0.5, -0.0, 0.0)}[kind]()
        x = x.view(complex) if isinstance(shift, complex) else x[:, :columns].copy()
        degrees = np.full(n, 2)
        degrees[[cut, (cut + 1) % n]] = 1
        stencil = sf.laplacian.PathStencil(degrees, cut, shift)
        nonzero = nonzero_product(stencil.dense(), x)
        product = stencil @ x
        assert product.dtype == nonzero.dtype and product.shape == nonzero.shape
        assert np.array_equal(product, nonzero) and product.tobytes() == nonzero.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(random_tree_cases(24),
           st.one_of(st.floats(-3, 3), st.builds(complex, st.floats(-3, 3), st.floats(-3, 3))))
    def test_planar_tree_is_a_cut_cycle(self, case, shift):
        # every planar tree is C_n less the edge (cut, cut + 1), however its edges are labelled
        # and oriented; its stencil's dense G has the bits of L - shift·I from the dense L
        lap = sf.build_laplacian(random_tree(*case))
        assert lap.cut == case[1] - 1
        g = lap.shifted(shift)
        dense = lap.scalar.astype(g.dtype)
        dense.flat[::lap.n + 1] -= shift
        assert g.dense().tobytes() == dense.tobytes()

    @pytest.mark.parametrize("formation", [{"formation": "cube"},
                                           {"formation": "cube", "cube": {"cross_edge": [2, 6]}}],
                             ids=["cube", "cube_cross_edge"])
    def test_other_trees_take_the_dense_operator(self, formation):
        lap = cli.build_system(cli.parse_scenario(formation))
        assert lap.cut is None
        g = lap.shifted(0.25)
        assert isinstance(g, np.ndarray) and np.array_equal(g, lap.scalar - 0.25 * np.eye(lap.n))

    @pytest.mark.parametrize("scenario", [
        {"n": 600, "horizon": 5},
        {"n": 300, "dt": 0.1, "horizon": 5,
         "reference": {"angular_velocity": [[0, 0.2]], "scale_rate": [[0, -0.01]]}},
        {"n": 600, "dt": 0.1, "horizon": 5, "tree": {"remove": [300, 301]},
         "reference": {"velocity": [[0, [0.2, 0.0]]], "scale_rate": [[0, -0.01], [2, 0.005]]}},
    ], ids=["stationary_n600", "rotating_n300", "scaling_n600"])
    def test_runs_past_the_crossover_read_no_dense_laplacian(self, monkeypatch, scenario):
        # segments whose rule picks the stencil apply it and form no n x n L
        def forbidden(self):
            raise AssertionError("dense L read")

        scn = cli.parse_scenario(scenario)
        monkeypatch.setattr(sf.laplacian.SymmetryLaplacian, "scalar", property(forbidden))
        _, _, metrics = cli.run_scenario(scn)
        assert all(metrics["checks"].values())


class TestIntegrate:
    @pytest.mark.parametrize("formation", [{"n": 256}, {"n": 600}, {"formation": "cube"}],
                             ids=["planar_n256", "planar_n600", "cube"])
    def test_final_state_is_the_last_row_of_integrate(self, formation):
        # verify's solver check reads the last row only; it is integrate's, bit for bit
        lap = cli.build_system(cli.parse_scenario(formation))
        p0 = np.random.default_rng(5).uniform(-2, 2, lap.n * lap.dim)
        dt = 0.01 / lap.spectrum.lambda_max
        trace = sf.integrate(lap, p0, dt=dt, horizon=1.0)
        t, state = dynamics.final_state(lap, p0, dt=dt, horizon=1.0)
        assert t == trace.times[-1]
        assert state.tobytes() == trace.final_state.tobytes()

    def test_final_state_rejects_an_overflow(self, path_system, monkeypatch):
        # one stencil step, selected here, from points near the largest float: 2·deg·x
        # overflows in G y
        _, lap, _ = path_system(4)
        take_path(monkeypatch, "stencil")
        p0 = np.full(8, 1.5e308) * np.array([1, 1, -1, -1] * 2)
        with pytest.raises(sf.NumericFailure, match=r"^integrate: final_state is not finite from step 1 \(t = 0.1\)"):
            dynamics.final_state(lap, p0, dt=0.1, horizon=0.1)
        with pytest.raises(sf.NumericFailure, match=r"^integrate: states is not finite from step 1 \(t = 0.1\)"):
            sf.integrate(lap, p0, dt=0.1, horizon=0.1)

    def test_matches_closed_form(self, path_system):
        _, lap, _ = path_system(4)
        spec = sf.spectrum(lap.matrix)
        p0 = np.random.default_rng(1).uniform(-2, 2, 8)
        dt = 0.01 / spec.lambda_max
        trace = sf.integrate(lap, p0, dt=dt, horizon=1.0)
        exact = checks.closed_form_solution(lap.matrix, p0, trace.times[-1], spec=spec)
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
        assert trace.ends.tolist() == [[0, 1], [1, 2]]

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
        p0 = checks.symmetric_configuration(chain, np.array([1.0, 0.0]))
        trace = sf.integrate(lap, p0, horizon=2.0)
        with pytest.raises(ValueError, match="underflow"):
            sf.fit_rate(trace)

    def test_times_too_small_to_square_rejected(self, path_system):
        # polyfit divides by the norm of the window's times, whose squares underflow to 0 here
        _, lap, _ = path_system(3)
        trace = sf.integrate(lap, np.random.default_rng(7).uniform(-2, 2, 6), dt=1e-200, horizon=1e-199)
        with pytest.raises(ValueError, match="too small to square"):
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
