from __future__ import annotations

import ast
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import symform as sf
from conftest import CROSS_CUBE
from symform import checks, cli, dynamics, laplacian, maneuver, spatial3d

PRESETS = ("example2_c4", "example3_c6", "maneuver_c6", "cube")
SRC = Path(__file__).resolve().parents[1] / "src" / "symform"
# the independent routes the run path does not call
ROUTES = ("control", "control_per_agent", "edge_errors", "potential", "maneuver_control", "moving_frame",
          "frame_to_world", "shifted_errors", "steady_state_per_agent", "closed_form_solution",
          "symmetric_configuration")
# the construction routes of Q that only verify and the tests build
CONSTRUCTIONS = ("construction_routes", "assemble_laplacian", "cube_permutation", "composed_cube_laplacian")

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
        # a run checks the gauge route, which verify prints as gauge_route after the cube's composed route
        names = {**METRIC_NAMES, "construction_routes_agree": "gauge_route"} if scn.cube_spec else METRIC_NAMES
        assert metrics["checks"] == {key: verify[name] for key, name in names.items()}
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
        threshold = gauge.threshold

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
        results = cli.verification_checks(lap.matrix, lap.incidence, lap.chain, lap,
                                          routes=checks.construction_routes(lap))
        assert len(calls) == 1
        assert all(r.passed for r in results)

    @pytest.mark.parametrize("spec", [*PRESETS, {"n": 256}, {"formation": "cube", "cube": CROSS_CUBE}], ids=str)
    def test_run_spectrum_matches_eigh_of_q(self, spec):
        # measured max |run - eigh|: 2.2e-15 at n = 256, 4.4e-15 for the cube, 5.3e-15 with
        # the cross edge (eigvalsh of L), against a tolerance of about 4e-12
        check = {r.name: r for r in cli.verify_scenario(scenario(spec))}["tree_spectrum"]
        assert check.passed and check.value <= 1e-14

    @pytest.mark.parametrize("spec", ["example3_c6", "cube"])
    def test_tree_spectrum_detects_a_formula_off_by_1e_8(self, spec, monkeypatch):
        formula = laplacian.SymmetryLaplacian.spectrum.func

        def slowest_mode_off(lap):
            run = formula(lap)
            values = run.eigenvalues.copy()
            values[lap.dim] += 1e-8  # λ⁺_min, the rate a run reports
            return dataclasses.replace(run, eigenvalues=values)

        monkeypatch.setattr(laplacian.SymmetryLaplacian, "spectrum", property(slowest_mode_off))
        by_name = {r.name: r for r in cli.verify_scenario(scenario(spec))}
        assert not by_name["tree_spectrum"].passed
        assert by_name["tree_spectrum"].value == pytest.approx(1e-8, rel=1e-6)
        assert all(r.passed for name, r in by_name.items() if name != "tree_spectrum")

    def test_tree_spectrum_of_another_size_fails(self):
        # a Q that does not fit the built system is refused before any check reads it
        lap = planar_lap(4)
        with pytest.raises(ValueError, match=r"^Q is 8 x 8, but the built system has dn = 10$"):
            cli.verification_checks(lap.matrix, lap.incidence, lap.chain, planar_lap(5))

    @pytest.mark.parametrize("n", [4, 256])
    def test_solver_cross_check_detects_a_q_off_its_tree(self, n):
        # the RK4 side integrates the built tree and the closed form reads Q's own eigh, so a
        # symmetric corruption of Q shows as their gap: measured 6.1e-4 at n = 4, 8.7e-4 at n = 256
        lap = planar_lap(n)
        q = lap.matrix.copy()
        q[0, 2] += 1e-3
        q[2, 0] += 1e-3
        by_name = {r.name: r for r in cli.verification_checks(q, lap.incidence, lap.chain, lap)}
        assert by_name["symmetric"].passed
        assert not by_name["solver_cross_check"].passed
        assert by_name["solver_cross_check"].value > 100 * checks.SOLVER_TOL

    @pytest.mark.parametrize("spec", [{"n": 600}, {"formation": "cube"}], ids=["planar_n600", "cube"])
    def test_solver_cross_check_integrates_the_run_operator(self, spec, monkeypatch):
        # verify's RK4 side is a run's integrator: at n = 600 a planar tree hands
        # propagate_linear its path stencil, the cube its 8 x 8 L
        segments, paths = [], []
        propagate = dynamics.propagate_linear

        def recorded(c0, segs, dt, steps):
            segs = list(segs)
            segments.extend(segs)
            states, taken = propagate(c0, segs, dt, steps)
            paths.extend(taken)
            return states, taken

        monkeypatch.setattr(dynamics, "propagate_linear", recorded)
        scn = scenario(spec)
        assert {r.name: r for r in cli.verify_scenario(scn)}["solver_cross_check"].passed
        (g, count), = segments
        assert [path.steps for path in paths] == [count]
        if scn.cube_spec is None:
            assert isinstance(g, laplacian.PathStencil) and g.shape == (600, 600) and g.shift == 0.0
        else:
            assert isinstance(g, np.ndarray) and np.array_equal(g, cli.build_system(scn).scalar)
            assert g.shape == (8, 8)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_planar_routes_are_separate_computations(self, n, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("planar verify formed a composed cube")

        products = []
        product = laplacian.product_laplacian
        monkeypatch.setattr(laplacian, "product_laplacian", lambda e: products.append(e) or product(e))
        monkeypatch.setattr(checks, "composed_cube_laplacian", forbidden)
        lap = planar_lap(n)
        (name, _, matrix), = checks.construction_routes(lap)
        assert name == "construction_routes" and matrix is lap.gauge
        q, E = lap.matrix, lap.incidence
        by_name = {r.name: r for r in cli.verify_scenario(scenario({"n": n}))}
        assert len(products) == 1  # E E^T is formed once, for incidence_product, and is no construction route
        assert "gauge_route" not in by_name
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
            q, lap.incidence, lap.chain, lap, routes=checks.construction_routes(lap))}
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
        by_name = {r.name: r for r in cli.verification_checks(q, lap.incidence, lap.chain, lap)}
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
        gradient = {r.name: r for r in cli.verification_checks(lap.matrix, E, lap.chain, lap)}["gradient"]
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
            lap.matrix, lap.incidence, lap.chain, lap, routes=checks.construction_routes(lap))}
        assert details["symmetric"].endswith("(tol 1e-10)")
        assert details["incidence_product"].endswith("(tol 1e-12)")
        assert details["null_basis"].endswith("(tol 1e-10)")
        assert details["gradient"].endswith("(tol 1e-6)")
        assert details["solver_cross_check"].endswith("(tol 1e-6)")


class TestRoutesLiveInChecks:
    @pytest.mark.parametrize("name", ROUTES)
    def test_route_defined_in_checks_only(self, name):
        assert getattr(checks, name).__module__ == "symform.checks"
        assert [m.__name__ for m in (sf, dynamics, maneuver, laplacian) if hasattr(m, name)] == []

    def test_scalar_segment_lookup_lives_in_checks_only(self):
        assert checks.segment_value.__module__ == "symform.checks"
        gone = [(owner.__name__, name) for owner, names in [
            (maneuver, ("_segment_value",)),
            (maneuver.ReferenceInputs, ("velocity_at", "omega_at", "scale_rate_at")),
            (maneuver.ReferencePath, ("state_at",))] for name in names if hasattr(owner, name)]
        assert gone == []

    def test_edge_residual_norms_folded_into_edge_errors(self):
        assert [m.__name__ for m in (sf, checks, dynamics, maneuver) if hasattr(m, "edge_residual_norms")] == []

    @pytest.mark.parametrize("spec", [
        *sorted(p.stem for p in (SRC / "presets").glob("*.json")),
        {"n": 5, "horizon": 2.0, "reference": {"velocity": [[0.0, [0.3, -0.1]]],
                                               "angular_velocity": [[0.0, 0.2]], "scale_rate": [[0.0, -0.01]]}},
        {"formation": "cube", "horizon": 2.0, "reference": {"velocity": [[0.0, [0.2, 0.0, -0.1]]],
                                                            "angular_velocity": [[0.0, [0.1, 0.0, 0.2]]]}},
    ], ids=lambda spec: spec if isinstance(spec, str) else f"{spec.get('formation', 'planar')}_maneuver")
    def test_runs_call_no_route(self, spec, monkeypatch):
        for name in ROUTES:
            monkeypatch.setattr(checks, name, lambda *a, name=name, **k: pytest.fail(f"a run called {name}"))
        scn = cli.load_scenario(spec) if isinstance(spec, str) else cli.parse_scenario(spec)
        _, _, metrics = cli.run_scenario(scn)
        assert all(metrics["checks"].values())

    @pytest.mark.parametrize("name", CONSTRUCTIONS)
    def test_construction_defined_in_checks_only(self, name):
        assert getattr(checks, name).__module__ == "symform.checks"
        assert [m.__name__ for m in (laplacian, spatial3d) if hasattr(m, name)] == []

    def test_laplacian_holds_no_route(self):
        assert "composed" not in {f.name for f in dataclasses.fields(laplacian.SymmetryLaplacian)}
        assert not hasattr(laplacian.SymmetryLaplacian, "routes")

    def test_cube_composed_assembly_runs_in_verify_only(self, monkeypatch):
        calls = []
        composed = checks.composed_cube_laplacian
        monkeypatch.setattr(checks, "composed_cube_laplacian", lambda spec: calls.append(spec) or composed(spec))
        scn = scenario("cube")
        _, _, metrics = cli.run_scenario(scn)
        assert calls == [] and metrics["checks"]["construction_routes_agree"]
        results = cli.verify_scenario(scn)
        assert calls == [scn.cube_spec]
        routes = [r for r in results if r.name in ("construction_routes", "gauge_route")]
        assert [r.name for r in routes] == ["construction_routes", "gauge_route"]
        assert all(r.passed for r in routes)

    @pytest.mark.parametrize("cube", [{}, {"top_nodes": [4, 3, 2, 1]}, {"bottom_nodes": [6, 5, 8, 7]},
                                      {"cross_edge": [5, 1]}, {"cross_edge": [2, 6]}], ids=str)
    def test_composed_route_places_blocks_by_the_spec(self, tmp_path, capsys, cube):
        # face chains at top_nodes and bottom_nodes, the cross block at cross_edge in its direction
        path = tmp_path / "cube.json"
        path.write_text(json.dumps({"formation": "cube", "cube": cube}))
        assert cli.main(["verify", str(path)]) == cli.EXIT_OK
        line, = (x for x in capsys.readouterr().out.splitlines() if "construction_routes:" in x)
        assert line.startswith("  PASS construction_routes: max route disagreement ")
        assert float(line.split()[5]) <= checks.ROUTE_TOL


def test_no_imports_inside_functions():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno} in {func.name}" for node in ast.walk(func)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not found, "imports inside function bodies: " + ", ".join(found)
