from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from symform import checks, cli, laplacian

PRESETS = ("example2_c4", "example3_c6", "maneuver_c6", "cube")
SRC = Path(__file__).resolve().parents[1] / "src" / "symform"

# metrics.json "checks" key -> the structure check it reports
METRIC_NAMES = {
    "psd": "positive_semidefinite",
    "rank_matches": "rank",
    "construction_routes_agree": "construction_routes",
    "null_basis_annihilated": "null_basis",
}


def scenario(spec) -> cli.Scenario:
    scn = cli.load_scenario(spec) if isinstance(spec, str) else cli.parse_scenario(spec)
    scn.horizon = 1.0  # the checks do not depend on the trace
    return scn


def planar_lap(n: int) -> laplacian.SymmetryLaplacian:
    return cli.build_system(cli.parse_scenario({"n": n}))


class TestOneCheckPath:
    @pytest.mark.parametrize("spec", [*PRESETS, *({"n": n} for n in range(3, 9))], ids=str)
    def test_run_metrics_agree_with_verify(self, spec):
        scn = scenario(spec)
        _, _, metrics = cli.run_scenario(scn)
        verify = {r.name: r.passed for r in cli.verify_scenario(scn)}
        assert metrics["checks"] == {key: verify[name] for key, name in METRIC_NAMES.items()}
        assert all(verify.values())

    def test_sweep_agrees_with_verify(self):
        rows = cli.sweep_sizes(3, 8)
        for row in rows:
            verify = {r.name: r for r in cli.verify_scenario(scenario({"n": row["n"]}))}
            assert row["product_gap"] == verify["incidence_product"].value
            assert row["null_gap"] == verify["null_basis"].value
            assert row["rank"] == verify["rank"].value
            structural = ("positive_semidefinite", "rank", "incidence_product", "null_basis")
            assert row["passed"] == all(verify[name].passed for name in structural)

    @pytest.mark.parametrize("spec", ["example3_c6", "cube"])
    def test_psd_and_rank_widened_by_the_spread(self, spec):
        lap = cli.build_system(scenario(spec))
        gauge = lap.spectrum
        threshold = gauge.tol * max(1.0, gauge.lambda_max)

        def verdicts(spread):
            results = checks.structure_checks(dataclasses.replace(gauge, spread=spread),
                                              lap.n, lap.dim, [], lap.null_gap)
            return {r.name: r.passed for r in results}

        assert gauge.spread <= 1e-14
        assert verdicts(gauge.spread) == {"positive_semidefinite": True, "rank": True, "null_basis": True}
        # an eigenvalue of Q anywhere within the spread of zero could be nonzero or negative
        assert verdicts(2 * threshold) == {"positive_semidefinite": False, "rank": False, "null_basis": True}

    def test_sweep_reports_a_failing_structure_check(self, monkeypatch):
        monkeypatch.setattr(checks, "NULL_TOL", 0.0)  # any roundoff in Q V0 now fails
        rows = cli.sweep_sizes(5, 5)
        assert rows[0]["null_gap"] > 0.0 and not rows[0]["passed"]


class TestVerificationChecks:
    def test_one_spectrum_and_no_eigvalsh(self, monkeypatch):
        lap = planar_lap(5)
        calls = []
        spectrum = laplacian.spectrum

        def counted(*args, **kwargs):
            calls.append(args)
            return spectrum(*args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(laplacian, "spectrum", counted)
        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        results = cli.verification_checks(lap.matrix, lap.incidence, lap.chain, 5, 2,
                                          routes=lap.routes)
        assert len(calls) == 1
        assert all(r.passed for r in results)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_planar_routes_are_separate_computations(self, n, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("planar build formed E E^T")

        monkeypatch.setattr(laplacian, "product_laplacian", forbidden)
        lap = planar_lap(n)
        (name, _, matrix), = lap.routes
        assert name == "construction_routes" and matrix is lap.gauge
        q, E = lap.matrix, lap.incidence
        by_name = {r.name: r for r in cli.verify_scenario(scenario({"n": n}))}
        assert by_name["construction_routes"].value == np.abs(q - lap.gauge).max()
        assert by_name["incidence_product"].value == np.abs(q - E @ E.T).max()
        assert by_name["construction_routes"].passed and by_name["incidence_product"].passed

    @pytest.mark.parametrize("n", range(3, 9))
    def test_transposed_block_fails_construction_routes(self, n):
        # edge (1, 2) read in the wrong direction: block (1, 2) and its mirror transposed,
        # so Q stays symmetric and only a second construction route can tell
        lap = planar_lap(n)
        q = lap.matrix.copy()
        q[0:2, 2:4] = lap.matrix[0:2, 2:4].T
        q[2:4, 0:2] = lap.matrix[2:4, 0:2].T
        by_name = {r.name: r for r in cli.verification_checks(
            q, lap.incidence, lap.chain, n, 2, routes=lap.routes)}
        assert by_name["symmetric"].passed
        assert not by_name["construction_routes"].passed

    @pytest.mark.parametrize("corrupt", ["scaled", "symmetric_entry"])
    def test_gradient_detects_a_wrong_q(self, corrupt):
        lap = planar_lap(4)
        q = lap.matrix.copy()
        if corrupt == "scaled":
            q = 1.01 * q
        else:
            q[0, 2] += 1e-3
            q[2, 0] += 1e-3
        by_name = {r.name: r for r in cli.verification_checks(
            q, lap.incidence, lap.chain, 4, 2)}
        assert by_name["symmetric"].passed
        assert not by_name["gradient"].passed
        assert by_name["gradient"].value > checks.GRADIENT_TOL

    @pytest.mark.parametrize("entry", ["on_pattern", "off_pattern"])
    def test_gradient_detects_a_corrupted_incidence_entry(self, entry):
        # the FD potentials read E's nonzero entries from E itself, so a wrong entry
        # counts whether or not the tree puts a nonzero there
        lap = planar_lap(5)
        E = lap.incidence.copy()
        i, j = np.argwhere(E != 0 if entry == "on_pattern" else E == 0)[0]
        E[i, j] += 1e-3
        gradient = {r.name: r for r in cli.verification_checks(lap.matrix, E, lap.chain, 5, 2)}["gradient"]
        assert not gradient.passed and gradient.value > checks.GRADIENT_TOL

    @pytest.mark.parametrize("n", [4, 37])  # dn = 8 and 74
    def test_perturbed_potentials_match_per_coordinate(self, n):
        # each change Φ(x ± h e_i) - Φ(x) against Φ formed densely at x and at the moved point
        E = planar_lap(n).incidence
        h = 1e-5
        points = np.random.default_rng(n).uniform(-2.0, 2.0, size=(3, 2 * n))
        plus, minus = checks._perturbed_potentials(E, points, h)
        assert plus.shape == minus.shape == points.shape

        def phi(x):
            return 0.5 * float(np.sum((E.T @ x) ** 2))

        for x, up, down in zip(points, plus, minus):
            base = phi(x)
            # each dense Φ sums 2(n - 1) squares, and rounds within 2(n - 1)·eps·Φ(x),
            # under 1.6e-14·Φ(x) for n = 37; the difference of two of them within twice that
            tol = 1e-13 * base
            for i in range(x.size):
                e = np.zeros_like(x)
                e[i] = h
                assert abs(up[i] - (phi(x + e) - base)) <= tol
                assert abs(down[i] - (phi(x - e) - base)) <= tol

    def test_tolerances_printed_in_details(self):
        lap = planar_lap(4)
        details = {r.name: r.detail for r in cli.verification_checks(
            lap.matrix, lap.incidence, lap.chain, 4, 2, routes=lap.routes)}
        assert details["symmetric"].endswith("(tol 1e-10)")
        assert details["incidence_product"].endswith("(tol 1e-12)")
        assert details["null_basis"].endswith("(tol 1e-10)")
        assert details["gradient"].endswith("(tol 1e-6)")
        assert details["solver_cross_check"].endswith("(tol 1e-6)")


def test_no_imports_inside_functions():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno} in {func.name}" for node in ast.walk(func)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not found, "imports inside function bodies: " + ", ".join(found)
