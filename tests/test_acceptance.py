"""End-to-end acceptance gate.

Each test covers one numbered claim about the library, prints a single
PASS/FAIL line into the terminal summary, and enforces the claim's runtime
budget where one applies. Tolerances are pinned in the asserts.
"""
from __future__ import annotations

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import symform as sf
from symform import cli, output
from conftest import ACCEPTANCE_LINES, slowest_rate


@contextmanager
def criterion(num: int, description: str, budget: float | None = None):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - t0
        if budget is not None:
            assert elapsed < budget, (
                f"criterion {num} runtime {elapsed:.2f}s exceeds the {budget:g}s budget")
        ok = True
    finally:
        elapsed = time.perf_counter() - t0
        line = f"criterion {num} {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s): {description}"
        ACCEPTANCE_LINES.append(line)
        print(line)


def path_lap(n: int):
    graph = sf.cycle_minus_edge(n, (n, 1))
    return sf.build_laplacian(graph), sf.null_basis(graph)


def test_criterion_1_construction_suite():
    """Path-tree constructions for n = 3..12 satisfy every structural property."""
    with criterion(1, "construction suite n=3..12 (PSD, rank, product, null)", budget=1.0):
        for n in range(3, 13):
            lap, chain = path_lap(n)
            q = lap.matrix
            assert np.array_equal(q, q.T), f"n={n}: not symmetric"
            spec = sf.spectrum(q)
            assert spec.eigenvalues[0] >= -1e-9, f"n={n}: min eigenvalue {spec.eigenvalues[0]}"
            assert spec.rank == 2 * n - 2, f"n={n}: rank {spec.rank}"
            assert spec.null_dim == 2, f"n={n}: null dimension {spec.null_dim}"
            prod_gap = np.abs(q - lap.incidence @ lap.incidence.T).max()
            assert prod_gap <= 1e-12, f"n={n}: |Q - E E^T| = {prod_gap}"
            null_gap = np.abs(q @ chain).max()
            assert null_gap <= 1e-10, f"n={n}: |Q V0| = {null_gap}"


def test_criterion_2_gradient_law():
    """The flow's velocity is the negative potential gradient on 100 random states."""
    with criterion(2, "gradient law on 100 random configurations (n=6)", budget=1.0):
        lap, _ = path_lap(6)
        q, E = lap.matrix, lap.incidence
        rng = np.random.default_rng(2026)
        h = 1e-5
        for _ in range(100):
            p = rng.uniform(-2.0, 2.0, 12)
            grad = q @ p
            fd = np.empty(12)
            for i in range(12):
                e = np.zeros(12)
                e[i] = h
                fp = 0.5 * float(np.sum((E.T @ (p + e)) ** 2))
                fm = 0.5 * float(np.sum((E.T @ (p - e)) ** 2))
                fd[i] = (fp - fm) / (2 * h)
            gap = np.abs(fd - grad).max()
            assert gap <= 1e-6 * max(1.0, np.abs(grad).max()), f"FD gap {gap}"


def test_criterion_3_convergence_and_rate():
    """Long-horizon flows land on the null-space projection at the slowest rate."""
    with criterion(3, "convergence to projection and 5% decay-rate fit (n=4, 6)", budget=5.0):
        for n, seed in ((4, 7), (6, 42)):
            lap, chain = path_lap(n)
            p0 = np.random.default_rng(seed).uniform(-2.0, 2.0, 2 * n)
            trace = sf.integrate(lap, p0)  # dt = 0.5/λ_max, T = 40/λ⁺_min
            limit = sf.steady_state(p0, chain)
            gap = np.linalg.norm(trace.final_state - limit)
            assert gap <= 1e-6, f"n={n}: |p(T) - projection| = {gap}"
            per_agent = sf.steady_state_per_agent(p0, chain.reshape(n, 2, 2))
            agent_gap = np.linalg.norm(trace.final_state - per_agent)
            assert agent_gap <= 1e-6, f"n={n}: per-agent route gap {agent_gap}"
            fitted = sf.fit_rate(trace)
            expected = -slowest_rate(n)
            rel = abs(fitted - expected) / abs(expected)
            assert rel <= 0.05, f"n={n}: fitted {fitted} vs {expected} ({rel:.2%})"


def test_criterion_4_square_matrix_blocks():
    """The n=4 constraint matrix reproduces the quarter-turn block pattern exactly."""
    with criterion(4, "n=4 block pattern (I, 2I diagonals; quarter-turn couplings)"):
        lap, _ = path_lap(4)
        q = lap.matrix
        r = sf.rotation2(math.pi / 2).matrix
        eye, zero = np.eye(2), np.zeros((2, 2))
        blocks = {
            (0, 0): eye, (1, 1): 2 * eye, (2, 2): 2 * eye, (3, 3): eye,
            (0, 1): -r.T, (1, 0): -r,
            (1, 2): -r.T, (2, 1): -r,
            (2, 3): -r.T, (3, 2): -r,
            (0, 2): zero, (2, 0): zero,
            (0, 3): zero, (3, 0): zero,
            (1, 3): zero, (3, 1): zero,
        }
        for (i, j), expected in blocks.items():
            got = q[2 * i:2 * i + 2, 2 * j:2 * j + 2]
            assert np.array_equal(got, expected), f"block ({i + 1}, {j + 1}) differs"


def test_criterion_5_maneuver_reduction():
    """The maneuver preset's frame coordinates follow the stationary flow."""
    with criterion(5, "moving-frame reduction on the bundled maneuver preset", budget=5.0):
        scn = cli.load_scenario("maneuver_c6")
        lap = cli.build_system(scn)
        p0 = cli.initial_state(scn)
        trace = sf.simulate_maneuver(lap, p0, scn.reference,
                                     start=scn.ref_start, dt=scn.dt,
                                     horizon=scn.horizon)
        zeta0 = sf.moving_frame(p0, scn.ref_start)
        reduced = sf.integrate(lap, zeta0, dt=scn.dt, horizon=scn.horizon)
        per_step = np.sqrt(((trace.zeta - reduced.states) ** 2).sum(axis=1))
        assert per_step.max() <= 1e-5, f"max frame gap {per_step.max()}"
        assert trace.total_errors[-1] <= 1e-8, (
            f"final shifted error {trace.total_errors[-1]}")


def test_criterion_6_zero_input_degeneracy():
    """A maneuver with zero inputs reproduces the stationary run byte for byte."""
    with criterion(6, "zero-input maneuver equals stationary trace byte-identically"):
        lap, _ = path_lap(6)
        p0 = np.random.default_rng(42).uniform(-2.0, 2.0, 12)
        still = sf.simulate_maneuver(lap, p0, sf.ReferenceInputs.stationary(),
                                     dt=0.05, horizon=10.0)
        plain = sf.integrate(lap, p0, dt=0.05, horizon=10.0)
        assert output.trace_csv_text(still) == output.trace_csv_text(plain)


def test_criterion_7_cube():
    """The 24x24 cube matrix is sound and its flow reaches the projection."""
    with criterion(7, "cube construction routes agree; flow hits projection", budget=2.0):
        lap = sf.build_cube()
        spec = sf.spectrum(lap.matrix, tol=1e-9)
        assert spec.eigenvalues[0] >= -1e-9, f"min eigenvalue {spec.eigenvalues[0]}"
        assert spec.null_dim == 3, f"null dimension {spec.null_dim}"
        composed = {name: matrix for name, _, matrix in lap.routes}["construction_routes"]
        route_gap = np.abs(lap.matrix - composed).max()
        assert route_gap <= 1e-12, f"construction route gap {route_gap}"
        p0 = np.random.default_rng(11).uniform(-2.0, 2.0, 24)
        trace = sf.simulate_cube(lap, p0)
        gap = np.linalg.norm(trace.final_state - sf.steady_state(p0, lap.chain))
        assert gap <= 1e-6, f"|p(T) - projection| = {gap}"


def test_criterion_8_determinism_and_round_trip(tmp_path):
    """Fixed seeds give identical CSV bytes, and parsing them back is lossless."""
    with criterion(8, "seeded runs repeat byte-identically; CSV round-trip exact"):
        scn = cli.load_scenario("example2_c4")
        first, _, _ = cli.run_scenario(scn)
        second, _, _ = cli.run_scenario(cli.load_scenario("example2_c4"))
        text_a = output.trace_csv_text(first)
        text_b = output.trace_csv_text(second)
        assert text_a == text_b
        path = tmp_path / "trace.csv"
        path.write_text(text_a)
        back = output.parse_trace_csv(path)
        assert np.array_equal(back["times"], first.times)
        assert np.array_equal(back["states"], first.states)
        assert np.array_equal(back["edge_errors"], first.edge_errors)
        assert np.array_equal(back["potentials"], first.potentials)
