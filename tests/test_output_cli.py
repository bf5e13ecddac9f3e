from __future__ import annotations

import functools
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symform as sf
from conftest import CROSS_CUBE, parse_trace_csv
from symform import checks, cli, dynamics, laplacian, output, topology
from symform.scenario import MAX_NAME_BYTES


def short_trace(n: int = 4, horizon: float = 1.0) -> sf.SimulationTrace:
    graph = sf.cycle_minus_edge(n, (n, 1))
    lap = sf.build_laplacian(graph)
    p0 = np.random.default_rng(3).uniform(-2, 2, 2 * n)
    return sf.integrate(lap, p0, dt=0.1, horizon=horizon)


def short_maneuver(horizon: float = 1.0) -> sf.ManeuverTrace:
    graph = sf.cycle_minus_edge(4, (4, 1))
    lap = sf.build_laplacian(graph)
    p0 = np.random.default_rng(5).uniform(-2, 2, 8)
    inputs = sf.ReferenceInputs.constant([0.2, -0.1], 0.3, 0.01)
    return sf.simulate_maneuver(lap, p0, inputs, dt=0.1, horizon=horizon)


class TestFmt:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_exact(self, x):
        assert float(output.fmt(x)) == x or (x == 0.0 and float(output.fmt(x)) == 0.0)

    def test_negative_zero_normalized(self):
        assert output.fmt(-0.0) == "0"
        assert output.fmt(0.0) == "0"

    def test_plain_integers_stay_short(self):
        assert output.fmt(1.0) == "1"
        assert output.fmt(-3.0) == "-3"


class TestTraceCsv:
    def test_header_layout(self):
        trace = short_trace(3)
        header = output.trace_header(trace).split(",")
        assert header[:3] == ["t", "p1_x", "p1_y"]
        assert header[-1] == "potential"
        assert "err_1_2" in header and "err_2_3" in header

    @pytest.mark.parametrize("scenario", [{"n": 3}, {"n": 600, "tree": {"remove": [300, 301]}},
                                          {"formation": "cube"}], ids=["n3", "n600_cut", "cube"])
    def test_header_equals_per_name_join(self, scenario):
        trace = short_trace(3) if scenario == {"n": 3} else cli.run_scenario(cli.parse_scenario(
            {**scenario, "dt": 0.1, "horizon": 0.1}))[0]
        names = ["t"] + [f"p{i}_{c}" for i in range(1, trace.n + 1) for c in "xyz"[:trace.dim]]
        names += [f"err_{u + 1}_{v + 1}" for u, v in trace.ends.tolist()] + ["potential"]
        assert output.trace_header(trace) == ",".join(names)

    def test_round_trip_exact(self, tmp_path):
        trace = short_trace()
        path = tmp_path / "trace.csv"
        output.write_trace_csv(trace, path)
        back = parse_trace_csv(path)
        assert np.array_equal(back["times"], trace.times)
        assert np.array_equal(back["states"], trace.states)
        assert np.array_equal(back["edge_errors"], trace.edge_errors)
        assert np.array_equal(back["potentials"], trace.potentials)

    def test_text_deterministic(self):
        a = output.trace_csv_text(short_trace())
        b = output.trace_csv_text(short_trace())
        assert a == b

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            parse_trace_csv(path)

    def test_reference_csv_columns(self):
        trace = short_maneuver()
        text = output.reference_csv_text(trace)
        header = text.splitlines()[0].split(",")
        assert header == ["t", "r_x", "r_y", "R_xx", "R_xy", "R_yx", "R_yy", "s"]
        assert len(text.splitlines()) == trace.times.size + 1

    def test_metrics_json_rejects_non_finite(self, tmp_path):
        with pytest.raises(ValueError):
            output.write_metrics_json({"final_potential": math.nan}, tmp_path / "m.json")
        assert not (tmp_path / "m.json").exists()

    def test_metrics_json_round_trip(self, tmp_path):
        path = tmp_path / "metrics.json"
        metrics = {"b": 1, "a": [1.5, None], "c": {"x": True}}
        output.write_metrics_json(metrics, path)
        assert json.loads(path.read_text()) == metrics


class TestSvg:
    def test_paths_svg_is_well_formed(self):
        svg = output.svg_paths(short_trace())
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert "polyline" in svg

    def test_errors_svg_is_well_formed(self):
        svg = output.svg_errors(short_trace())
        ET.fromstring(svg)
        assert "polyline" in svg

    def test_maneuver_paths_include_reference(self):
        svg = output.svg_paths(short_maneuver())
        ET.fromstring(svg)
        assert "dash" in svg

    def test_spatial_trace_projects(self):
        lap = sf.build_cube()
        p0 = np.random.default_rng(7).uniform(-2, 2, 24)
        trace = sf.integrate(lap, p0, dt=0.05, horizon=1.0)
        ET.fromstring(output.svg_paths(trace))
        ET.fromstring(output.svg_errors(trace))

    def test_markup_in_the_name_is_escaped(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"name": "a<b&c", "n": 4, "horizon": 1}))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        for name, title in (("paths.svg", "agent paths"), ("errors.svg", "edge errors")):
            root = ET.parse(tmp_path / "out" / "a<b&c" / name).getroot()
            assert root.find("{http://www.w3.org/2000/svg}text").text == f"a<b&c: {title}"

    def test_plain_titles_unchanged(self):
        trace = short_trace()
        for plot in (output.svg_paths, output.svg_errors):
            plain = plot(trace, title="abc: plot")
            assert '>abc: plot</text>' in plain
            assert plot(trace, title="a<b&c: plot") == plain.replace(">abc:", ">a&lt;b&amp;c:")

    @pytest.mark.parametrize("lo, hi", [(-1e308, 1e308), (-8e307, 8e307), (1.75e308, 1.75e308),
                                        (-1.75e308, -1.75e308)], ids=["wide", "margins", "flat_top", "flat_bottom"])
    def test_axis_wider_than_the_float_range_is_refused(self, lo, hi):
        # the span, or the margins added to it, exceed the largest float: no pixel can be mapped
        with pytest.raises(sf.NumericFailure) as failure:
            output._scale(lo, hi, "x axis of 'p'")
        assert str(failure.value) == (f"plot: the x axis of 'p' spans {lo:g} to {hi:g}, "
                                      "which with its margins is wider than the float range")
        assert np.isfinite(np.subtract(*output._scale(lo / 2, hi / 2)))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_ticks_are_few_increasing_and_inside(self, data):
        # from ranges a few float spacings wide, where a tick step can fall under the spacing,
        # to magnitudes of 1e300
        lo = data.draw(st.floats(-1e300, 1e300), label="lo")
        if data.draw(st.booleans(), label="few_spacings"):
            hi = lo
            for _ in range(data.draw(st.integers(0, 64), label="spacings")):
                hi = math.nextafter(hi, math.inf)
        else:
            hi = data.draw(st.floats(lo, 1e300), label="hi")
        lo, hi = output._scale(lo, hi)
        ticks = output._ticks(lo, hi)
        assert 1 <= len(ticks) <= output._TICK_STEPS + 2
        assert all(a < b for a, b in zip(ticks, ticks[1:]))
        assert all(lo <= v <= hi for v in ticks)
        labels = output._labels(ticks)
        assert len(set(labels)) == len(labels)  # no two ticks read alike
        short = [f"{v:g}" for v in ticks]
        assert labels == short or len(set(short)) < len(short)  # six digits wherever they tell the ticks apart

    def test_zero_error_trace_plots(self):
        # a run started on target: every error is identically zero
        graph = sf.cycle_minus_edge(4, (4, 1))
        lap = sf.build_laplacian(graph)
        p0 = checks.symmetric_configuration(sf.null_basis(graph), np.array([1.0, 0.0]))
        trace = sf.integrate(lap, p0, dt=0.1, horizon=1.0)
        ET.fromstring(output.svg_errors(trace))


@st.composite
def walks(draw):
    """1 to 2,000 points of a random walk: repeated points, a stationary tail, any scale."""
    size = draw(st.integers(1, 2000))
    scale = 10.0 ** draw(st.floats(-6, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    steps = rng.standard_normal((size, 2)) * scale
    steps[rng.random(size) < draw(st.floats(0, 0.9))] = 0.0
    tail = draw(st.integers(0, size))
    steps[size - tail:] *= draw(st.sampled_from([0.0, 0.99, 0.999])) ** np.arange(1, tail + 1)[:, None]
    return rng.uniform(-1, 1, 2) * scale * draw(st.sampled_from([0, 1, 1e3])) + np.cumsum(steps, axis=0)


class TestDecimation:
    @given(walks())
    @settings(max_examples=150, deadline=None)
    def test_kept_polyline_within_half_pixel(self, pts):
        xs, ys = pts.T
        xlo, xhi = output._scale(float(xs.min()), float(xs.max()))
        ylo, yhi = output._scale(float(ys.min()), float(ys.max()))
        _, sx, sy = output._frame("t", "x", "y", xlo, xhi, ylo, yhi)
        px, py = sx(xs), sy(ys)
        keep = output._keep_mask(px, py)
        assert keep[0] and keep[-1]
        # points 0.5 px or more from their predecessor cannot share its cell
        assert keep[1:][np.hypot(np.diff(px), np.diff(py)) >= 0.5].all()
        # each dropped vertex against the kept segment around it bounds its
        # distance to the kept polyline
        kept = np.flatnonzero(keep)
        dropped = np.flatnonzero(~keep)
        seg = np.searchsorted(kept, dropped) - 1
        a, b = kept[seg], kept[seg + 1]
        dx, dy = px[b] - px[a], py[b] - py[a]
        rx, ry = px[dropped] - px[a], py[dropped] - py[a]
        t = np.clip((rx * dx + ry * dy) / np.maximum(dx * dx + dy * dy, 1e-300), 0.0, 1.0)
        assert (np.hypot(rx - t * dx, ry - t * dy) <= 0.5).all()

    def test_spread_series_keeps_every_point(self):
        # wide's edge errors: 41 samples 16 px apart in x
        trace = sf.integrate(sf.build_laplacian(sf.cycle_minus_edge(8, (8, 1))),
                             np.random.default_rng(1).uniform(-2, 2, 16), dt=0.125, horizon=5.0)
        points = [ln.split('"')[1].split() for ln in output.svg_errors(trace).splitlines()
                  if ln.startswith("<polyline")]
        assert [len(p) for p in points] == [41] * 7

    def test_errors_clamped_at_the_fit_floor(self):
        # a converged run's rounding noise is drawn on the floor's pixel row, never below it
        trace, _, _ = cli.run_scenario(cli.parse_scenario({"name": "flow_n16", "n": 16}))
        assert trace.edge_errors.min() < dynamics.FIT_FLOOR
        logs = np.log10(np.maximum(trace.edge_errors, dynamics.FIT_FLOOR))
        ylo, yhi = output._scale(float(logs.min()), float(logs.max()))
        _, _, sy = output._frame("t", "t", "log10 edge error", 0.0, 1.0, ylo, yhi)
        floor = float(f"{sy(math.log10(dynamics.FIT_FLOOR)):.2f}")
        root = ET.fromstring(output.svg_errors(trace))
        rows = [float(pt.split(",")[1]) for line in root.findall("{http://www.w3.org/2000/svg}polyline")
                for pt in line.get("points").split()]
        assert max(rows) == floor

    def test_flow_n16_paths_keep_few_points(self):
        trace, _, _ = cli.run_scenario(cli.parse_scenario({"name": "flow_n16", "n": 16}))
        root = ET.fromstring(output.svg_paths(trace))
        tag = lambda name: root.findall(f"{{http://www.w3.org/2000/svg}}{name}")  # noqa: E731
        points = [line.get("points").split() for line in tag("polyline")]
        assert sum(map(len, points)) <= 0.05 * trace.times.size * trace.n
        pts = trace.states.reshape(trace.times.size, trace.n, 2)
        xlo, xhi = output._scale(float(pts[..., 0].min()), float(pts[..., 0].max()))
        ylo, yhi = output._scale(float(pts[..., 1].min()), float(pts[..., 1].max()))
        _, sx, sy = output._frame("t", "x", "y", xlo, xhi, ylo, yhi)
        for i, (line, rect, dot) in enumerate(zip(points, tag("rect")[2:], tag("circle"))):
            (x0, y0), (x1, y1) = (sx(pts[0, i, 0]), sy(pts[0, i, 1])), (sx(pts[-1, i, 0]), sy(pts[-1, i, 1]))
            assert (line[0], line[-1]) == (f"{x0:.2f},{y0:.2f}", f"{x1:.2f},{y1:.2f}")
            assert (rect.get("x"), rect.get("y")) == (f"{x0 - 3:.2f}", f"{y0 - 3:.2f}")
            assert (dot.get("cx"), dot.get("cy")) == (f"{x1:.2f}", f"{y1:.2f}")


# JSON-like values for every scenario field: integers beyond the float range, floats
# with inf and nan, and nested lists and objects keyed by the scenario's field names
FIELDS = ["name", "formation", "n", "tree", "initial", "seed", "reference", "dt", "horizon", "cube",
          "remove", "edges", "points", "box", "start", "velocity", "angular_velocity", "scale_rate",
          "position", "angle", "scale", "axis", "face_axis", "cross_axis", "face_angle", "cross_angle",
          "top_nodes", "bottom_nodes", "cross_edge"]
NUMBERS = st.integers(-10**400, 10**400) | st.integers(-3, 9) | st.floats()
VALUES = st.recursive(
    st.none() | st.booleans() | NUMBERS | st.sampled_from(["planar", "cube", "x", "z", "", "a/b"]),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.sampled_from(FIELDS), kids, max_size=4),
    max_leaves=10)


def vectors(width: int) -> st.SearchStrategy:
    return st.lists(NUMBERS, min_size=width, max_size=width) | VALUES


SEGMENTS = st.lists(st.tuples(NUMBERS, NUMBERS | vectors(2) | vectors(3)).map(list), min_size=1, max_size=3)
SCENARIOS = st.fixed_dictionaries({}, optional={
    "formation": st.sampled_from(["planar", "cube"]) | VALUES,
    "n": st.integers(3, 6) | VALUES, "seed": NUMBERS | VALUES, "dt": NUMBERS | VALUES,
    "horizon": NUMBERS | VALUES, "name": st.sampled_from(["a", "."]) | VALUES,
    "tree": st.fixed_dictionaries({}, optional={"remove": vectors(2),
                                                "edges": st.lists(vectors(3), max_size=5)}) | VALUES,
    "initial": st.fixed_dictionaries({}, optional={"points": st.lists(vectors(2) | vectors(3), max_size=8),
                                                   "box": vectors(2), "seed": NUMBERS | VALUES}) | VALUES,
    "reference": st.fixed_dictionaries({}, optional={
        "start": st.fixed_dictionaries({}, optional={
            "position": vectors(2) | vectors(3), "angle": NUMBERS | VALUES,
            "scale": NUMBERS | VALUES, "axis": vectors(3)}) | VALUES,
        "velocity": SEGMENTS | VALUES, "angular_velocity": SEGMENTS | VALUES,
        "scale_rate": SEGMENTS | VALUES}) | VALUES,
    "cube": st.dictionaries(st.sampled_from(FIELDS[20:]), VALUES | NUMBERS | vectors(4), max_size=4) | VALUES,
}) | VALUES


class TestParseScenario:
    @given(SCENARIOS)
    @settings(max_examples=200, deadline=None)
    def test_any_json_value_parses_or_is_rejected(self, raw):
        # a scenario error names the field; any other exception would escape as a traceback
        try:
            scn = cli.parse_scenario(raw)
        except cli.ScenarioError:
            return
        assert isinstance(scn, cli.Scenario)

    def test_minimal_planar_defaults(self):
        scn = cli.parse_scenario({"n": 4})
        assert scn.formation == "planar" and scn.n == 4 and scn.dim == 2
        assert scn.seed == 0
        assert scn.box == (-2.0, 2.0)
        assert scn.tree_graph is None and scn.removed_edge == (4, 1)
        graph = cli.build_system(scn)
        assert graph.ends.tolist() == [[0, 1], [1, 2], [2, 3]]
        assert scn.reference is None and scn.dt is None and scn.horizon is None

    def test_unknown_field_named(self):
        with pytest.raises(cli.ScenarioError, match="wobble"):
            cli.parse_scenario({"n": 4, "wobble": 1})

    def test_missing_n_rejected(self):
        with pytest.raises(cli.ScenarioError, match="n: required"):
            cli.parse_scenario({})

    def test_small_n_rejected(self):
        with pytest.raises(cli.ScenarioError, match="n >= 3"):
            cli.parse_scenario({"n": 2})

    def test_remove_must_be_cycle_edge(self):
        with pytest.raises(cli.ScenarioError, match="not an edge"):
            cli.parse_scenario({"n": 5, "tree": {"remove": [1, 3]}})

    def test_remove_and_edges_exclusive(self):
        with pytest.raises(cli.ScenarioError, match="not both"):
            cli.parse_scenario({"n": 4, "tree": {"remove": [4, 1],
                                                 "edges": [[1, 2, 1]]}})

    def test_explicit_edges(self):
        # the scenario holds the checked graph, its shifts reduced mod n
        scn = cli.parse_scenario({"n": 4, "tree": {"edges": [[1, 2, 1], [2, 3, 5],
                                                             [3, 4, -3]]}})
        assert scn.removed_edge is None
        assert (scn.tree_graph.n, scn.tree_graph.ends.tolist(), scn.tree_graph.shifts.tolist()) == (
            4, [[1, 2], [2, 3], [3, 4]], [1, 1, 1])
        assert topology.tree_problem(scn.tree_graph.n, scn.tree_graph.ends) is None

    def test_initial_points_count_checked(self):
        with pytest.raises(cli.ScenarioError, match="initial.points"):
            cli.parse_scenario({"n": 4, "initial": {"points": [[0, 0]] * 3}})

    def test_initial_box_validated(self):
        with pytest.raises(cli.ScenarioError, match="initial.box"):
            cli.parse_scenario({"n": 4, "initial": {"box": [2.0, -2.0]}})

    def test_initial_seed_overrides(self):
        scn = cli.parse_scenario({"n": 4, "seed": 3, "initial": {"seed": 9}})
        assert scn.seed == 9

    def test_seed_must_be_integer(self):
        with pytest.raises(cli.ScenarioError, match="seed"):
            cli.parse_scenario({"n": 4, "seed": 1.5})
        with pytest.raises(cli.ScenarioError, match="seed"):
            cli.parse_scenario({"n": 4, "seed": True})

    def test_dt_and_horizon_validated(self):
        with pytest.raises(cli.ScenarioError, match="dt"):
            cli.parse_scenario({"n": 4, "dt": -0.1})
        with pytest.raises(cli.ScenarioError, match="horizon"):
            cli.parse_scenario({"n": 4, "horizon": 0})

    def test_bad_formation_rejected(self):
        with pytest.raises(cli.ScenarioError, match="formation"):
            cli.parse_scenario({"formation": "ring", "n": 4})

    def test_reference_parsed(self):
        scn = cli.parse_scenario({
            "n": 4,
            "reference": {
                "start": {"position": [1.0, 2.0], "angle": 0.5, "scale": 2.0},
                "velocity": [[0.0, [0.1, 0.2]], [5.0, [0.0, 0.0]]],
                "angular_velocity": [[0.0, 0.3]],
                "scale_rate": [[0.0, -0.01]],
            },
        })
        assert scn.reference is not None
        assert np.array_equal(checks.segment_value(scn.reference.velocity, 0.0), [0.1, 0.2])
        assert np.array_equal(scn.ref_start.position, [1.0, 2.0])
        assert math.isclose(scn.ref_start.scale, 2.0)

    def test_reference_unknown_field_named(self):
        with pytest.raises(cli.ScenarioError, match="reference: unknown field 'spin'"):
            cli.parse_scenario({"n": 4, "reference": {"spin": 1}})

    def test_reference_segment_errors_carry_path(self):
        with pytest.raises(cli.ScenarioError, match=r"reference.velocity\[0\]"):
            cli.parse_scenario({"n": 4, "reference": {"velocity": [[0.0]]}})

    def test_cube_excludes_tree(self):
        with pytest.raises(cli.ScenarioError, match="tree"):
            cli.parse_scenario({"formation": "cube", "tree": {"remove": [8, 1]}})

    def test_planar_excludes_cube(self):
        with pytest.raises(cli.ScenarioError, match="cube"):
            cli.parse_scenario({"n": 4, "cube": {}})

    def test_cube_defaults(self):
        scn = cli.parse_scenario({"formation": "cube"})
        assert (scn.n, scn.dim) == (8, 3)
        assert scn.cube_spec == sf.CubeSpec()

    def test_cube_overrides(self):
        scn = cli.parse_scenario({"formation": "cube",
                                  "cube": {"cross_angle": 1.5708,
                                           "face_axis": "z"}})
        assert math.isclose(scn.cube_spec.cross_angle, 1.5708)

    def test_cube_unknown_field_named(self):
        with pytest.raises(cli.ScenarioError, match="cube: unknown field 'spin'"):
            cli.parse_scenario({"formation": "cube", "cube": {"spin": 1}})


class TestLoadScenario:
    @pytest.mark.parametrize("name,n,formation", [
        ("example2_c4", 4, "planar"),
        ("example3_c6", 6, "planar"),
        ("maneuver_c6", 6, "planar"),
        ("cube", 8, "cube"),
    ])
    def test_bundled_presets_load(self, name, n, formation):
        scn = cli.load_scenario(name)
        assert scn.name == name
        assert scn.n == n
        assert scn.formation == formation

    def test_maneuver_preset_has_reference(self):
        scn = cli.load_scenario("maneuver_c6")
        assert scn.reference is not None
        assert scn.dt == 0.005 and scn.horizon == 90.0

    def test_missing_file_rejected(self):
        with pytest.raises(cli.ScenarioError, match="not found"):
            cli.load_scenario("no_such_scenario")

    def test_malformed_json_names_position(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 4,\n  "seed": }\n')
        with pytest.raises(cli.ScenarioError, match="line 2"):
            cli.load_scenario(str(bad))

    def test_file_path_load(self, tmp_path):
        path = tmp_path / "mine.json"
        path.write_text('{"n": 5}')
        scn = cli.load_scenario(str(path))
        assert scn.n == 5
        assert scn.name == "mine"

    def test_utf8_file_loads_under_an_ascii_locale(self, tmp_path):
        # JSON text is UTF-8 whatever the locale; the C locale's ASCII decoding refused it
        path = tmp_path / "cafe.json"
        path.write_bytes('{"n": 3, "name": "caf\u00e9"}'.encode())
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
               "PYTHONPATH": str(Path(sf.__file__).parents[1])}
        code = "import sys; from symform import cli; print(ascii(cli.load_scenario(sys.argv[1]).name))"
        done = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == ascii("caf\u00e9")

    def test_unencodable_name_under_an_ascii_locale(self, tmp_path):
        # stdout escapes what it cannot encode; an output path the file system encoding
        # cannot hold exits 2 with one line naming the path and the encoding
        path = tmp_path / "cafe.json"
        path.write_bytes('{"name": "caf\u00e9", "n": 4, "horizon": 1}'.encode())
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
               "PYTHONPATH": str(Path(sf.__file__).parents[1])}
        env.pop("PYTHONIOENCODING", None)

        def python(*args: str) -> subprocess.CompletedProcess:
            return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=60)

        encoding = python("-c", "import sys; print(sys.getfilesystemencoding())").stdout.decode().strip()
        if "caf\u00e9".encode(encoding, "replace") == "caf\u00e9".encode(encoding, "ignore"):
            pytest.skip(f"the C locale's encoding {encoding} holds the name")
        verify = python("-m", "symform", "verify", str(path))
        assert verify.returncode == 0, verify.stderr
        assert b"verifying name=caf\\xe9 " in verify.stdout
        assert verify.stdout.count(b"PASS") == 9
        out = tmp_path / "out"
        run = python("-m", "symform", "run", str(path), "--out", str(out))
        assert b"running name=caf\\xe9 " in run.stdout
        assert run.returncode == 2
        err = run.stderr.decode("ascii").splitlines()
        assert len(err) == 1, err
        assert f"{out}{os.sep}caf\\xe9" in err[0] and f"file system encoding {encoding}" in err[0]
        assert not out.exists()


class TestInitialState:
    def test_explicit_points(self):
        scn = cli.parse_scenario({"n": 3, "initial": {"points": [[0, 0], [1, 0],
                                                                 [0, 1]]}})
        assert np.array_equal(cli.initial_state(scn), [0, 0, 1, 0, 0, 1])

    def test_seeded_box_reproducible(self):
        scn = cli.parse_scenario({"n": 4, "seed": 7})
        expected = np.random.default_rng(7).uniform(-2.0, 2.0, 8)
        assert np.array_equal(cli.initial_state(scn), expected)


class TestRunScenario:
    def test_metrics_and_checks(self):
        scn = cli.parse_scenario({"n": 4, "seed": 7, "horizon": 40.0})
        trace, lap, metrics = cli.run_scenario(scn)
        assert metrics["rank"] == 6 and metrics["null_dim"] == 2
        assert metrics["final_max_edge_error"] < 1e-6
        assert metrics["projection_residual"] < 1e-6
        assert all(metrics["checks"].values())
        assert math.isclose(metrics["lambda_max"],
                            sf.spectrum(lap.matrix).lambda_max)

    def test_deterministic_bytes(self):
        scn = cli.parse_scenario({"n": 4, "seed": 1, "horizon": 2.0})
        a, _, _ = cli.run_scenario(scn)
        b, _, _ = cli.run_scenario(scn)
        assert output.trace_csv_text(a) == output.trace_csv_text(b)

    @pytest.mark.parametrize("spec", [
        {"n": 5, "horizon": 1.0},
        {"n": 5, "horizon": 1.0, "reference": {"angular_velocity": [[0.0, 0.2]]}},
        {"formation": "cube", "horizon": 1.0},
        {"formation": "cube", "horizon": 1.0, "cube": CROSS_CUBE},
    ])
    def test_one_spectrum_per_run(self, spec, monkeypatch):
        # a path tree's spectrum is the closed form; only a tree with a degree-3 node
        # (the cube's cross edge (2, 6)) takes one eigvalsh, of its 8 x 8 L
        solved = [("eigvalsh", (8, 8))] if "cube" in spec else []
        calls = []

        def spy(name):
            solver = getattr(np.linalg, name)
            return lambda a: calls.append((name, a.shape)) or solver(a)

        for name in ("eigh", "eigvalsh", "eigvals"):
            monkeypatch.setattr(np.linalg, name, spy(name))
        _, lap, metrics = cli.run_scenario(cli.parse_scenario(spec))
        assert calls == solved
        assert metrics["lambda_max"] == lap.spectrum.lambda_max

    @pytest.mark.parametrize("spec", [
        "example3_c6",
        "cube",
        {"n": 5, "horizon": 2.0, "reference": {"velocity": [[0.0, [0.3, -0.1]]],
                                               "angular_velocity": [[0.0, 0.2]], "scale_rate": [[0.0, -0.01]]}},
        {"formation": "cube", "horizon": 2.0, "reference": {"velocity": [[0.0, [0.2, 0.0, -0.1]]],
                                                            "angular_velocity": [[0.0, [0.1, 0.0, 0.2]]]}},
    ], ids=["example3_c6", "cube", "planar_maneuver", "cube_maneuver"])
    def test_run_takes_eigenvalues_only(self, spec, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a run formed eigenvectors")

        scn = cli.load_scenario(spec) if isinstance(spec, str) else cli.parse_scenario(spec)
        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        _, _, metrics = cli.run_scenario(scn)
        assert all(metrics["checks"].values())

    @pytest.mark.parametrize("spec", [{"n": 64}, "cube", {"formation": "cube", "cube": CROSS_CUBE}, "maneuver_c6"],
                             ids=["planar_n64", "cube", "cross_cube", "maneuver_c6"])
    def test_verify_takes_eigenvalues_only(self, spec, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("verify formed eigenvectors")

        scn = cli.load_scenario(spec) if isinstance(spec, str) else cli.parse_scenario(spec)
        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        assert all(r.passed for r in cli.verify_scenario(scn))

    def test_write_outputs_layout(self, tmp_path):
        scn = cli.parse_scenario({"n": 4, "seed": 2, "horizon": 1.0,
                                  "name": "smoke"})
        trace, _, metrics = cli.run_scenario(scn)
        out_dir = cli.write_outputs(scn, trace, metrics, str(tmp_path))
        assert out_dir == tmp_path / "smoke"
        for fname in ("trace.csv", "metrics.json", "paths.svg", "errors.svg"):
            assert (out_dir / fname).is_file()
        assert not (out_dir / "reference.csv").exists()

    def test_maneuver_outputs_include_reference(self, tmp_path):
        scn = cli.parse_scenario({"n": 4, "horizon": 1.0, "dt": 0.05,
                                  "name": "mv",
                                  "reference": {"velocity": [[0.0, [0.1, 0.0]]]}})
        trace, _, metrics = cli.run_scenario(scn)
        out_dir = cli.write_outputs(scn, trace, metrics, str(tmp_path))
        assert (out_dir / "reference.csv").is_file()


class TestVerificationChecks:
    def build(self, n: int = 4):
        scn = cli.parse_scenario({"n": n})
        return cli.build_system(scn)

    def test_all_pass_on_sound_system(self):
        lap = self.build()
        results = cli.verification_checks(lap.matrix, lap.incidence, lap.chain, lap,
                                          routes=checks.construction_routes(lap))
        assert [r.name for r in results] == [
            "symmetric", "positive_semidefinite", "rank", "incidence_product",
            "construction_routes", "null_basis", "tree_spectrum", "gradient", "solver_cross_check",
        ]
        assert all(r.passed for r in results)

    def test_corrupted_entry_detected(self):
        lap = self.build()
        q = lap.matrix.copy()
        q[0, 2] += 1e-3  # breaks symmetry and the incidence product
        results = cli.verification_checks(q, lap.incidence, lap.chain, lap)
        by_name = {r.name: r.passed for r in results}
        assert not by_name["symmetric"]
        assert not by_name["incidence_product"]

    def test_corrupted_symmetric_perturbation_detected(self):
        lap = self.build()
        q = lap.matrix.copy()
        q[0, 2] += 1e-3
        q[2, 0] += 1e-3  # stays symmetric, no longer E E^T or PSD-structured
        results = cli.verification_checks(q, lap.incidence, lap.chain, lap)
        by_name = {r.name: r.passed for r in results}
        assert by_name["symmetric"]
        assert not by_name["incidence_product"]
        assert not by_name["null_basis"]

    def test_wrong_null_basis_detected(self):
        lap = self.build()
        bogus = np.random.default_rng(0).normal(size=lap.chain.shape)
        results = cli.verification_checks(lap.matrix, lap.incidence, bogus, lap)
        by_name = {r.name: r.passed for r in results}
        assert not by_name["null_basis"]

    def test_verify_scenario_cube(self):
        scn = cli.parse_scenario({"formation": "cube"})
        results = cli.verify_scenario(scn)
        assert all(r.passed for r in results)


class TestSweep:
    def test_rows_pass_and_match_closed_form(self):
        rows = cli.sweep_sizes(3, 6)
        assert [row["n"] for row in rows] == [3, 4, 5, 6]
        for row in rows:
            assert row["passed"]
            expected = 4 * math.sin(math.pi / (2 * row["n"])) ** 2
            assert math.isclose(row["lambda_min_pos"], expected, rel_tol=1e-9)

    def test_takes_eigenvalues_only(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("sweep formed eigenvectors")

        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        assert all(row["passed"] for row in cli.sweep_sizes(3, 8))

    def test_verdicts_from_one_eigvalsh_per_size(self, monkeypatch):
        # PSD and rank are measured by an eigensolver, not read off the path formula
        sizes = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: sizes.append(a.shape) or eigvalsh(a))
        rows = cli.sweep_sizes(3, 8)
        assert sizes == [(n, n) for n in range(3, 9)]
        assert all(row["passed"] for row in rows)

    def test_a_wrong_eigenvalue_fails_the_row(self, monkeypatch):
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: eigvalsh(a) - 1e-3)
        assert not any(row["passed"] for row in cli.sweep_sizes(3, 5))

    def test_bad_ranges_rejected(self):
        with pytest.raises(cli.ScenarioError, match="at least 3"):
            cli.sweep_sizes(2, 5)
        with pytest.raises(cli.ScenarioError, match="n-to"):
            cli.sweep_sizes(5, 4)


class TestMainExitCodes:
    def test_run_preset(self, tmp_path, capsys):
        code = cli.main(["run", "example2_c4", "--horizon", "2.0",
                         "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "example2_c4" / "trace.csv").is_file()
        assert "final max edge error" in capsys.readouterr().out

    def test_run_missing_scenario(self, capsys):
        assert cli.main(["run", "nowhere.json"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_run_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope}")
        assert cli.main(["run", str(bad)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "verify"])
    @pytest.mark.parametrize("scenario, field", [
        ({"formation": "cube", "cube": {"top_nodes": [1, 2, 3, 5]}}, "cube.top_nodes"),
        ({"formation": "cube", "cube": {"cross_edge": [1, 3]}}, "cube.cross_edge"),
        ({"formation": "cube", "cube": {"cross_edge": [1, 1]}}, "cube.cross_edge"),
        ({"formation": "cube", "n": "garbage"}, "n"),
        ({"n": 3, "initial": {"points": [[0, 0], [1, 0], [0, 1]], "box": "garbage", "seed": -5}}, "initial"),
        ({"n": 3, "reference": {"start": {"axis": "garbage"}}}, "reference.start.axis"),
        ({"formation": "cube", "reference": {"start": {"axis": [0, 0, 0]}}}, "reference.start.axis"),
        ({"n": 4, "tree": {"edges": [[1, 3, 1], [2, 3, 1], [3, 4, 1]]}}, "tree"),
        ({"n": 4, "tree": {"edges": [[1, 2, 1], [2, 1, 1], [3, 4, 1]]}}, "tree"),
        ({"n": 4, "tree": {"edges": [[1, 2, 1], [2, 3, 1]]}}, "tree"),
    ], ids=["top_nodes", "cross_in_top", "cross_loop", "cube_n", "points_box", "planar_axis", "zero_axis",
            "tree_not_cycle_edge", "tree_duplicate_edge", "tree_too_few_edges"])
    def test_bad_field_rejected_before_output(self, tmp_path, capsys, command, scenario, field):
        # one line naming the field, before verify prints anything or run makes its directory
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        argv = [command, str(path)] + (["--out", str(tmp_path / "out")] if command == "run" else [])
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"scenario error: {field}: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scenario, flags", [
        ("maneuver_c6", ["--dt", "1e-200", "--horizon", "1e-199"]),
        ("cube", ["--dt", "1e-200", "--horizon", "1e-199"]),
        ({"n": 3, "dt": 1e-300, "horizon": 1e-299}, []),
    ], ids=["maneuver_c6", "cube", "planar_n3"])
    def test_time_grid_too_small_to_square(self, tmp_path, scenario, flags):
        # the rate fit's times square to 0: fitted_rate is null, and numpy warns of nothing
        if isinstance(scenario, dict):
            (tmp_path / "tiny.json").write_text(json.dumps(scenario))
            scenario = str(tmp_path / "tiny.json")
        env = {**os.environ, "PYTHONPATH": str(Path(sf.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-W", "error", "-m", "symform", "run", scenario, *flags,
                               "--out", str(tmp_path / "out")], env=env, capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stderr) == (0, "")
        (metrics,) = (tmp_path / "out").glob("*/metrics.json")
        assert json.loads(metrics.read_text())["fitted_rate"] is None

    def test_run_unstable_step_suggests_fix(self, tmp_path, capsys):
        code = cli.main(["run", "example2_c4", "--dt", "5.0",
                         "--out", str(tmp_path)])
        assert code == 2
        assert "try dt" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario, code, message", [
        # omega * dt = 4 lies outside RK4's stability region: once wrote NaN files
        ({"n": 6, "dt": 0.05, "horizon": 20, "reference": {"angular_velocity": [[0, 80]]}},
         2, "try dt"),
        # the reference scale overflows to inf long before the horizon
        ({"n": 6, "dt": 0.01, "horizon": 20, "reference": {"scale_rate": [[0, 1e4]]}},
         3, "not finite"),
        ({"n": 6, "dt": 0.01, "horizon": 20, "reference": {"scale_rate": [[0, 1e6]]}},
         3, "overflows"),
        # the reference positions overflow, and are named before the states that follow them
        ({"n": 4, "horizon": 1, "reference": {"start": {"position": [1e308, 1e308]},
                                             "velocity": [[0, [1e308, 0]]]}},
         3, "maneuver: reference_positions is not finite from step 6 (t = 0.87868)"),
        # frame coordinates (p - r) R / s near the float range: a metric overflows, and is named;
        # the cube's run fails first, on the squares of its frame residual
        ({"n": 6, "horizon": 5, "reference": {"start": {"scale": 1e-306}}},
         3, "metrics: projection_residual is not finite (inf)"),
        ({"formation": "cube", "horizon": 5, "reference": {"start": {"scale": 1e-306}}},
         3, "maneuver: zeta_residual is not finite from step 1 (t = 0.129946)"),
        # a subnormal scale has lost its precision, whether it starts there or decays into it
        ({"n": 6, "horizon": 5, "reference": {"start": {"scale": 1e-320}}},
         3, "maneuver: reference_scales is below the smallest normal float from step 0 (t = 0)"),
        ({"formation": "cube", "horizon": 5, "reference": {"start": {"scale": 1e-320}}},
         3, "maneuver: reference_scales is below the smallest normal float from step 0 (t = 0)"),
        ({"n": 6, "dt": 0.01, "horizon": 80, "reference": {"scale_rate": [[0, -10]]}},
         3, "maneuver: reference_scales is below the smallest normal float from step 7084 (t = 70.84)"),
        # |P(-dt mu)| for |mu| near the float range overflows to a complex NaN, named as inf
        ({"n": 3, "reference": {"angular_velocity": [[0, 1e308]]}},
         2, "invalid argument: step size 0.166667 is unstable for the maneuver from t = 0: RK4 amplifies "
            "a mode by max |P(-dt mu)| = inf > 1 (try dt = 5e-309)"),
    ])
    def test_failing_run_writes_nothing(self, tmp_path, capsys, scenario, code, message):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"name": "bad", **scenario}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == code
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_plot_wider_than_the_float_range(self, tmp_path, capsys):
        # every state is finite, but the agents travel from x = 1e308 to -1e308: the paths
        # plot cannot span that, so the run exits 3 naming the plot and axis, and leaves no run
        path = tmp_path / "far.json"
        path.write_text(json.dumps({
            "name": "far", "n": 3, "dt": 0.1, "horizon": 20,
            "initial": {"points": [[1e308, 0], [1e308, 0], [1e308, 0]]},
            "reference": {"start": {"position": [1e308, 0]}, "velocity": [[0, [-1e307, 0]]]}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: plot: the x axis of 'far: agent paths' spans -1e+308 to 1e+308, "
            "which with its margins is wider than the float range\n")
        assert list((tmp_path / "out").iterdir()) == []

    def test_axis_a_few_float_spacings_wide(self, tmp_path):
        # the paths plot spans x = 1e17 to 1e17 + 16, two float spacings, with a tick step of 5:
        # adding the step to a tick left it unchanged, and the tick list grew until memory ran
        # out, so the run goes in a child process capped at 1 GiB of address space
        path = tmp_path / "far.json"
        path.write_text(json.dumps({
            "name": "far", "n": 3, "dt": 0.1, "horizon": 1,
            "initial": {"points": [[10 ** 17, 0], [10 ** 17 + 16, 0], [10 ** 17, 3]]},
            "reference": {"start": {"position": [10 ** 17, 0]}}}))
        code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)); "
                "from symform import cli; sys.exit(cli.main(sys.argv[1:]))")
        env = {**os.environ, "PYTHONPATH": str(Path(sf.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"}
        argv = ["run", str(path), "--out", str(tmp_path / "out")]
        done = subprocess.run([sys.executable, "-W", "error", "-c", code, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
        root = ET.parse(tmp_path / "out" / "far" / "paths.svg").getroot()
        labels = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        # the x axis's two floats, 1e17 and 1e17 + 16, each labelled with the 17 digits that tell them apart
        assert labels.count("1e+17") == 1 and labels.count("1.0000000000000002e+17") == 1

    def test_overflow_inside_a_block(self, tmp_path, capsys):
        # the frame grows by e^(100 t) from scale 1e-300, so the reference stays finite while
        # the shifted states overflow at step 713, inside a block of 166 steps (1,000 steps, a 6 x 6 G)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"name": "grow", "n": 6, "dt": 0.01, "horizon": 10, "reference": {
            "start": {"scale": 1e-300}, "scale_rate": [[0, 100]]}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == ("numerical failure: maneuver: states is not finite from step 713 "
                                           "(t = 7.13); the run overflowed\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "verify"])
    @pytest.mark.parametrize("probe", ["nested_dt", "long_n"])
    def test_messages_are_bounded(self, tmp_path, capsys, command, probe):
        # a value is quoted by reprlib, not in full: a list nested 900 deep, a 401-digit n
        nested = 0.05
        for _ in range(900):
            nested = [nested]
        raw = {"n": 3, "dt": nested} if probe == "nested_dt" else {"n": int("7" * 401)}
        path = tmp_path / "probe.json"
        path.write_text(json.dumps(raw))
        argv = [command, str(path)] + (["--out", str(tmp_path / "out")] if command == "run" else [])
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        lines = (captured.out + captured.err).splitlines()
        assert lines and max(map(len, lines)) <= 300

    def test_run_seed_override_changes_start(self, tmp_path):
        cli.main(["run", "example2_c4", "--horizon", "0.5", "--seed", "1",
                  "--out", str(tmp_path / "a")])
        cli.main(["run", "example2_c4", "--horizon", "0.5", "--seed", "2",
                  "--out", str(tmp_path / "b")])
        a = parse_trace_csv(tmp_path / "a" / "example2_c4" / "trace.csv")
        b = parse_trace_csv(tmp_path / "b" / "example2_c4" / "trace.csv")
        assert not np.array_equal(a["states"][0], b["states"][0])

    def test_verify_preset(self, capsys):
        assert cli.main(["verify", "example2_c4"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 9
        assert "verification passed" in out

    def test_verify_failure_exit_code(self, monkeypatch, capsys):
        fake = [cli.CheckResult("symmetric", False, "forced")]
        monkeypatch.setattr(cli, "verify_scenario", lambda scn, seed=None: fake)
        assert cli.main(["verify", "example2_c4"]) == 4
        assert "FAIL" in capsys.readouterr().out

    def test_numeric_failure_exit_code(self, monkeypatch, capsys):
        def boom(scn):
            raise cli.NumericFailure("forced eigensolver failure")
        monkeypatch.setattr(cli, "run_scenario", boom)
        assert cli.main(["run", "example2_c4"]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_sweep(self, tmp_path, capsys):
        code = cli.main(["sweep", "--n-from", "3", "--n-to", "5",
                         "--out", str(tmp_path / "out")])
        assert code == 0
        output.write_metrics_json({"sweep": cli.sweep_sizes(3, 5)}, tmp_path / "expected.json")
        assert (tmp_path / "out" / "sweep.json").read_bytes() == (tmp_path / "expected.json").read_bytes()
        assert "sweep passed" in capsys.readouterr().out

    def test_sweep_bad_range(self, capsys):
        assert cli.main(["sweep", "--n-from", "2", "--n-to", "5"]) == 2


def per_value_csv(header: list[str], columns: list[np.ndarray]) -> str:
    """The per-value fmt join: a row per index, every column's values in row-major order."""
    lines = [",".join(header)]
    for k in range(len(columns[0])):
        row = []
        for col in columns:
            row.extend(output.fmt(x) for x in np.ravel(col[k]))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def csv_body(columns: list[np.ndarray]) -> str:
    """The bytes output._csv_body writes for ``columns``, with no header, as text."""
    buf = io.BytesIO()
    output._csv_body(columns, "", buf)
    return buf.getvalue().decode()


SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308,
                  1.7976931348623157e308, 1.0, -3.0, 2.0 ** 53, 1e16, 0.1, math.inf, -math.inf]


@st.composite
def csv_columns(draw):
    """1 to 12 rows of 1-D and 2-D columns, values mixing special and arbitrary floats."""
    rows = draw(st.integers(1, 12))
    widths = draw(st.lists(st.integers(0, 5), min_size=1, max_size=3))
    value = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
    cols = []
    for w in widths:
        vals = draw(st.lists(value, min_size=rows * max(w, 1), max_size=rows * max(w, 1)))
        cols.append(np.array(vals).reshape(rows, w) if w else np.array(vals))
    return cols


class TestBlockFormatting:
    @given(csv_columns())
    @settings(max_examples=150, deadline=None)
    def test_csv_body_equals_per_value_fmt(self, cols):
        assert csv_body(cols) == per_value_csv([], cols).split("\n", 1)[1]

    @pytest.mark.parametrize("rows, width", [
        (1, output._CSV_BLOCK_VALUES + 3),         # one row wider than a block
        (3, 2 * output._CSV_BLOCK_VALUES - 1),
        (3 * output._CSV_BLOCK_VALUES // 5 + 7, 5),  # rows spanning several blocks
        (1, 4099),     # one row of about half a block
        (3, 8191),     # rows one value short of a block, one to a block
        (2464, 5),     # rows over a block and a half, the last block part full
    ])
    def test_csv_body_across_blocks(self, rows, width):
        rng = np.random.default_rng(rows + width)
        vals = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-300, 300, (rows, width))
        vals[0, 0] = -0.0
        cols = [vals[:, 0], vals[:, 1:]]
        assert csv_body(cols) == per_value_csv([], cols).split("\n", 1)[1]

    @staticmethod
    def check_kernel(values: np.ndarray, width: int) -> None:
        """_csv_body of ``values`` laid out ``width`` per row equals the per-value fmt join."""
        rows = np.asarray(values, dtype=float).reshape(-1, width)
        assert csv_body([rows]) == per_value_csv([], [rows]).split("\n", 1)[1]

    @given(st.lists(st.floats(), min_size=1, max_size=100), st.integers(1, 60), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_kernel_equals_fmt_over_all_floats(self, values, width, blocks):
        # the drawn values tiled over `blocks` full blocks and part of one more
        rows = blocks * max(1, output._CSV_BLOCK_VALUES // width) + 1
        self.check_kernel(np.resize(np.array(values), rows * width), width)

    def test_kernel_on_adversarial_values(self):
        rng = np.random.default_rng(12)
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        # 18-digit decimals halfway between two 17-digit ones, over the whole exponent range
        halfway = np.array([float(f"{m}5e{e}") for m, e in zip(
            rng.integers(10 ** 16, 10 ** 17, 20000).tolist(), rng.integers(-320, 290, 20000).tolist())])
        edges = np.array([1e-5, 1e-4, 1e16, 1e17, 2.0 ** 53, 5e-324, 2.2250738585072014e-308,
                          1.7976931348623157e308])
        near = np.concatenate([powers, halfway, edges])
        with np.errstate(over="ignore"):  # the largest float's upper neighbour is inf
            above = np.nextafter(near, np.inf)
        values = np.concatenate([near, above, np.nextafter(near, -np.inf),
                                 [0.0, -0.0, math.inf, -math.inf, math.nan]])
        values = np.concatenate([values, -values])
        for width in (1, 7, 60):
            self.check_kernel(values[:values.size - values.size % width], width)

    def test_every_point_position(self):
        # 1 to 17 significant digits, trailing zeros included, with the leading digit at
        # 10**X for X from -6 to 18: every place the point can take among the digits, the
        # "0.000" prefixes and the exponent forms on either side of fixed notation
        digits = ("1" * 17, "98765432109876543", "10000000000000001")
        values = [float(f"{text[:k]}e{x - k + 1}") for text in digits
                  for x in range(-6, 19) for k in range(1, 18)]
        values += [1e-100, 1e100, 2.2250738585072014e-308 / 3]
        values = np.array(values + [-v for v in values])
        for width in (1, 49):
            self.check_kernel(np.resize(values, -(-values.size // width) * width), width)

    def test_exact_tie_takes_the_fallback(self):
        # ...125 lies exactly halfway between two 17-digit decimals: half-even keeps the 2
        tie = 123456789012345.125
        assert output.fmt(tie) == "123456789012345.12"
        assert not output._decimal(np.array([tie]))[2][0]
        assert csv_body([np.array([tie, -tie])]) == "123456789012345.12\n-123456789012345.12\n"

    @pytest.mark.parametrize("name", ["example2_c4", "example3_c6", "maneuver_c6", "cube"])
    def test_presets_never_take_the_fallback(self, name, monkeypatch):
        trace, _, _ = cli.run_scenario(cli.load_scenario(name))
        calls, fmt = [], output.fmt
        monkeypatch.setattr(output, "fmt", lambda x: calls.append(x) or fmt(x))
        output.trace_csv_text(trace)
        if isinstance(trace, sf.ManeuverTrace):
            output.reference_csv_text(trace)
        assert calls == []

    def test_trace_text_peak_memory(self):
        # planar n = 16 on the default grid (8,248 rows, 8.6 MB of text). The block-% route
        # this kernel replaced peaked at 2.0020 times the text's length under tracemalloc:
        # the blocks' texts and the joined text. The kernel must not hold more.
        trace, _, _ = cli.run_scenario(cli.parse_scenario({"name": "n16", "n": 16}))
        output.trace_csv_text(short_trace())  # builds the kernel's tables outside the count
        tracemalloc.start()
        try:
            text = output.trace_csv_text(trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(text) > 8_000_000
        assert peak <= 2.0020 * len(text)

    def test_streamed_trace_peak_memory(self, tmp_path):
        # the same 8.6 MB trace.csv written to its file a block at a time holds one
        # block's arrays (about 0.75 MB for 8,192 values), never the file's text
        trace, _, _ = cli.run_scenario(cli.parse_scenario({"name": "n16", "n": 16}))
        output.trace_csv_text(short_trace())  # builds the kernel's tables outside the count
        path = tmp_path / "trace.csv"
        tracemalloc.start()
        try:
            output.write_trace_csv(trace, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 8_000_000
        assert peak < 1_000_000

    def test_streamed_files_equal_text(self, tmp_path):
        # both files over several blocks (rows of 13 and 8 values), one value in each
        # taking the fmt fallback
        trace = short_maneuver(horizon=300.0)
        assert trace.times.size > 2 * output._CSV_BLOCK_VALUES // 8
        tie = 123456789012345.125
        trace.states[700, 3] = tie
        trace.ref_scales[1100] = tie
        output.write_trace_csv(trace, tmp_path / "trace.csv")
        output.write_reference_csv(trace, tmp_path / "reference.csv")
        streamed = (tmp_path / "trace.csv").read_bytes()
        reference = (tmp_path / "reference.csv").read_bytes()
        assert streamed == output.trace_csv_text(trace).encode()
        assert reference == output.reference_csv_text(trace).encode()
        assert b",123456789012345.12," in streamed and b",123456789012345.12\n" in reference

    @staticmethod
    def check_polyline(xs: np.ndarray, ys: np.ndarray) -> None:
        xlo, xhi = output._scale(float(xs.min()), float(xs.max()))
        ylo, yhi = output._scale(float(ys.min()), float(ys.max()))
        _, sx, sy = output._frame("t", "x", "y", xlo, xhi, ylo, yhi)
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        expected = f'<polyline points="{pts}" fill="none" stroke="#123456" stroke-width="1.5"/>'
        px, py = sx(xs)[:, None], sy(ys)[:, None]
        keep = np.ones(px.shape, dtype=bool)
        assert output._polylines(px, py, keep, ['stroke="#123456" stroke-width="1.5"']) == [expected]

    @given(st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)), min_size=1, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_polyline_equals_per_point_format(self, points):
        self.check_polyline(*np.array(points).T)

    def test_polyline_many_points(self):
        # enough pixel coordinates that some fall within float noise of a rounding edge
        xs, ys = np.random.default_rng(11).standard_normal((2, 5000)) * [[3.0], [1e-4]]
        self.check_polyline(xs, ys)

    @pytest.mark.parametrize("spec", [("maneuver_c6", 0.015), ("cube", None), {
        "name": "cube_maneuver", "formation": "cube", "dt": 0.05, "horizon": 6.0,
        "reference": {"velocity": [[0.0, [0.1, -0.2, 0.3]]],
                      "angular_velocity": [[0.0, [0.2, 0.1, -0.3]]], "scale_rate": [[0.0, -0.01]]}},
    ], ids=["maneuver_c6", "cube", "cube_maneuver"])
    def test_trace_files_equal_per_value_fmt(self, spec):
        if isinstance(spec, tuple):  # a preset, maneuver_c6 at the benchmark's dt
            scn = cli.load_scenario(spec[0])
            scn.dt = spec[1] or scn.dt
        else:
            scn = cli.parse_scenario(spec)
        trace, _, _ = cli.run_scenario(scn)
        expected = per_value_csv(output.trace_header(trace).split(","),
                                 [trace.times, trace.states, trace.edge_errors, trace.potentials])
        assert output.trace_csv_text(trace) == expected
        if isinstance(trace, sf.ManeuverTrace):
            header = output.reference_csv_text(trace).split("\n", 1)[0].split(",")
            expected = per_value_csv(header, [trace.times, trace.ref_positions,
                                              trace.ref_rotations, trace.ref_scales])
            assert output.reference_csv_text(trace) == expected


def kernel_cents(values) -> list[str]:
    """Each value as the SVG kernel writes it: the values are the x of one series,
    their reverse its y."""
    v = np.asarray(values, dtype=float)
    line = output._polylines(v[:, None], v[::-1, None], np.ones((v.size, 1), dtype=bool), [""])[0]
    pairs = [pt.split(",") for pt in line.split('"')[1].split(" ")]
    assert [y for _, y in pairs] == [y for y, _ in pairs][::-1]
    return [x for x, _ in pairs]


def per_point_svgs(trace: sf.SimulationTrace, name: str) -> tuple[str, str]:
    """paths.svg and errors.svg drawn point by point: each coordinate through its own
    ``%`` or f-string, on the frame, projection and kept points of ``output``."""
    def polyline(xs, ys, sx, sy, style: str) -> str:
        pts = " ".join("%.2f,%.2f" % (sx(x), sy(y)) for x, y in zip(xs, ys))
        return f'<polyline points="{pts}" fill="none" {style}/>'

    proj = output._project(trace.states, trace.n, trace.dim)
    has_ref = isinstance(trace, sf.ManeuverTrace)
    if has_ref:
        proj = np.concatenate([output._project(trace.ref_positions, 1, trace.dim), proj], axis=1)
    xs, ys = proj[..., 0], proj[..., 1]
    xlo, xhi = output._scale(float(xs.min()), float(xs.max()))
    ylo, yhi = output._scale(float(ys.min()), float(ys.max()))
    parts, sx, sy = output._frame(f"{name}: agent paths", "x", "y", xlo, xhi, ylo, yhi)
    keep = output._keep_mask(sx(xs), sy(ys))
    if has_ref:
        parts.append(polyline(xs[keep[:, 0], 0], ys[keep[:, 0], 0], sx, sy,
                              'stroke="#999999" stroke-width="1.2" stroke-dasharray="6 4"'))
    for i in range(trace.n):
        j, color = i + has_ref, output.PALETTE[i % len(output.PALETTE)]
        parts.append(polyline(xs[keep[:, j], j], ys[keep[:, j], j], sx, sy,
                              f'stroke="{color}" stroke-width="1.5"'))
        parts.append(f'<rect x="{sx(xs[0, j]) - 3:.2f}" y="{sy(ys[0, j]) - 3:.2f}" '
                     f'width="6" height="6" fill="{color}"/>')
        parts.append(f'<circle cx="{sx(xs[-1, j]):.2f}" cy="{sy(ys[-1, j]):.2f}" r="4" fill="{color}"/>')
    paths = "\n".join(parts + ["</svg>"])

    logs = np.log10(np.maximum(trace.edge_errors, dynamics.FIT_FLOOR))
    xlo, xhi = output._scale(float(trace.times[0]), float(trace.times[-1]))
    ylo, yhi = output._scale(float(logs.min()), float(logs.max()))
    parts, sx, sy = output._frame(f"{name}: edge errors", "t", "log10 edge error", xlo, xhi, ylo, yhi)
    keep = output._keep_mask(sx(trace.times)[:, None], sy(logs))
    for e in range(logs.shape[1]):
        parts.append(polyline(trace.times[keep[:, e]], logs[keep[:, e], e], sx, sy,
                              f'stroke="{output.PALETTE[e % len(output.PALETTE)]}" stroke-width="1.2"'))
    return paths, "\n".join(parts + ["</svg>"])


SVG_RUNS = {
    "maneuver_c6": ("maneuver_c6", 0.015),  # the benchmark's dt
    "cube": ("cube", None),
    "cube_maneuver": {"formation": "cube", "dt": 0.05, "horizon": 6.0,
                      "reference": {"velocity": [[0.0, [0.1, -0.2, 0.3]]],
                                    "angular_velocity": [[0.0, [0.2, 0.1, -0.3]]],
                                    "scale_rate": [[0.0, -0.01]]}},
    "planar_n600": {"n": 600, "horizon": 5.0},
}


@functools.cache
def svg_run(case: str) -> sf.SimulationTrace:
    spec = SVG_RUNS[case]
    if isinstance(spec, tuple):
        scn = cli.load_scenario(spec[0])
        scn.dt = spec[1] or scn.dt
    else:
        scn = cli.parse_scenario(spec)
    return cli.run_scenario(scn)[0]


class TestSvgKernel:
    @staticmethod
    def check_cents(values) -> None:
        assert kernel_cents(values) == ["%.2f" % x for x in values]

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_equals_percent_format(self, values):
        self.check_cents(values)

    @given(st.lists(st.floats(0, output._W), min_size=1, max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_equals_percent_format_in_pixel_range(self, values):
        self.check_cents(values)

    def test_half_cent_decimals(self):
        # every multiple of 0.005 in [0, 720]: the double nearest each x.xx5 lies within
        # float noise of a tie
        values = np.arange(144_001) / 200
        assert kernel_cents(values) == ["%.2f" % x for x in values.tolist()]

    def test_special_values(self):
        self.check_cents([0.0, -0.0, 9999.994, 9999.995, 1e4, 1e9, math.nan, math.inf, -math.inf])

    def test_agent_marks_equal_per_agent_format(self):
        # corners below 0 and at 1e4 px or more take the _fmt2 fallback, the rest the kernel;
        # the agents span two blocks of _agent_marks
        n = output._MARK_BLOCK + 6
        x0, y0, x1, y1 = np.random.default_rng(4).uniform(0, 720, (4, n))
        x0[:6] = [64.0, 1.5, -7.25, 10002.999, 9999.994, 320.125]
        y0[:6] = [36.0, 2.999, 3.0, -0.004, 12000.5, 10003.0]
        x1[-6:], y1[-6:] = x0[5::-1] + 0.375, y0[5::-1] - 0.625
        lines = [f'<polyline points="{i}" fill="none"/>' for i in range(n)]
        colors = [output.PALETTE[i % len(output.PALETTE)] for i in range(n)]
        expected = []
        for i, color in enumerate(colors):
            expected.append(lines[i])
            expected.append(f'<rect x="{x0[i] - 3:.2f}" y="{y0[i] - 3:.2f}" width="6" height="6" fill="{color}"/>')
            expected.append(f'<circle cx="{x1[i]:.2f}" cy="{y1[i]:.2f}" r="4" fill="{color}"/>')
        marks = output._agent_marks(lines, x0, y0, x1, y1, colors)
        assert len(marks) == 2 and "\n".join(marks) == "\n".join(expected)
        assert 'x="-10.25"' in expected[7] and 'cy="10002.38"' in expected[3 * (n - 6) + 2]

    def test_block_edges(self):
        # series cut at and across block boundaries, one of a single point
        size = output._CENT_BLOCK_VALUES
        px = np.random.default_rng(2).uniform(0, 720, (size + 3, 3))
        keep = np.ones(px.shape, dtype=bool)
        keep[1:, 1] = False
        lines = output._polylines(px, px[::-1], keep, ["a", "b", "c"])
        for j, line in enumerate(lines):
            rows = np.flatnonzero(keep[:, j])
            pts = " ".join("%.2f,%.2f" % (px[r, j], px[-1 - r, j]) for r in rows)
            assert line == f'<polyline points="{pts}" fill="none" {"abc"[j]}/>'

    @pytest.mark.parametrize("case", list(SVG_RUNS))
    def test_files_equal_per_point_format(self, case):
        trace = svg_run(case)
        paths, errors = per_point_svgs(trace, case)
        assert output.svg_paths(trace, title=f"{case}: agent paths") == paths
        assert output.svg_errors(trace, title=f"{case}: edge errors") == errors

    @pytest.mark.parametrize("case", list(SVG_RUNS))
    def test_files_never_take_the_fallback(self, case, monkeypatch):
        trace = svg_run(case)
        calls, fmt2 = [], output._fmt2
        monkeypatch.setattr(output, "_fmt2", lambda x: calls.append(x) or fmt2(x))
        output.svg_paths(trace)
        output.svg_errors(trace)
        assert calls == []

    @pytest.mark.parametrize("plot, bound", [("svg_paths", 2_356_533), ("svg_errors", 1_059_740)])
    def test_peak_memory(self, plot, bound):
        # maneuver_c6 at the benchmark's dt: the bounds are the tracemalloc peaks of the
        # per-series % route this kernel replaced (2.36 and 1.06 MB)
        trace = svg_run("maneuver_c6")
        draw = getattr(output, plot)
        draw(trace)  # builds the kernel's tables outside the count
        tracemalloc.start()
        try:
            draw(trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound


def disk_full(*args, **kwargs):
    raise OSError("disk full")


class TestAtomicOutputs:
    def run(self, spec: dict):
        scn = cli.parse_scenario({"name": "atomic", "n": 4, "horizon": 1.0, "dt": 0.05, **spec})
        trace, _, metrics = cli.run_scenario(scn)
        return scn, trace, metrics

    def test_failure_while_writing_leaves_nothing(self, tmp_path, monkeypatch):
        scn, trace, metrics = self.run({})
        monkeypatch.setattr(output, "svg_errors", disk_full)
        with pytest.raises(OSError, match="disk full"):
            cli.write_outputs(scn, trace, metrics, str(tmp_path / "out"))
        assert list((tmp_path / "out").iterdir()) == []

    def test_failure_keeps_the_earlier_run_whole(self, tmp_path, monkeypatch):
        scn, trace, metrics = self.run({"seed": 1})
        out_dir = cli.write_outputs(scn, trace, metrics, str(tmp_path))
        before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        scn, trace, metrics = self.run({"seed": 2})
        monkeypatch.setattr(output, "svg_paths", disk_full)
        with pytest.raises(OSError, match="disk full"):
            cli.write_outputs(scn, trace, metrics, str(tmp_path))
        assert [p.name for p in tmp_path.iterdir()] == ["atomic"]
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before

    def test_rerun_replaces_stale_files(self, tmp_path):
        scn, trace, metrics = self.run({"reference": {"velocity": [[0.0, [0.1, 0.0]]]}})
        out_dir = cli.write_outputs(scn, trace, metrics, str(tmp_path))
        assert (out_dir / "reference.csv").is_file()
        scn, trace, metrics = self.run({})
        assert cli.write_outputs(scn, trace, metrics, str(tmp_path)) == out_dir
        assert sorted(p.name for p in tmp_path.iterdir()) == ["atomic"]
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "errors.svg", "metrics.json", "paths.svg", "trace.csv"]
        assert (out_dir / "trace.csv").read_text() == output.trace_csv_text(trace)

    def test_failed_swap_restores_the_earlier_run(self, tmp_path, monkeypatch):
        scn, trace, metrics = self.run({"seed": 1})
        out_dir = cli.write_outputs(scn, trace, metrics, str(tmp_path))
        before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        rename = Path.rename

        def failing_rename(self, target):
            if self.name == "new":
                raise OSError("rename failed")
            return rename(self, target)

        monkeypatch.setattr(Path, "rename", failing_rename)
        scn, trace, metrics = self.run({"seed": 2})
        with pytest.raises(OSError, match="rename failed"):
            cli.write_outputs(scn, trace, metrics, str(tmp_path))
        assert [p.name for p in tmp_path.iterdir()] == ["atomic"]
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before

    def test_staging_left_by_a_killed_run_removed(self, tmp_path):
        def plant(*paths):  # a path ending in "/" is a directory, any other a file
            for rel in paths:
                path = tmp_path / rel
                path.parent.mkdir(parents=True, exist_ok=True)
                path.mkdir() if rel.endswith("/") else path.write_text("x\n")

        scn, trace, metrics = self.run({})
        plant(".atomic.k1lled_0/new/trace.csv", ".atomic.k1lled_0/old/metrics.json", ".atomic.empty___/")
        kept = [".atomic.f0reign_/new/", ".atomic.f0reign_/notes.txt",  # a foreign entry
                ".atomic.extra___/new/", ".atomic.extra___/extra/",
                ".atomic.bad_file/new/notes.txt",                       # a foreign file in new/
                ".atomic2.k1lled_/new/", ".atomic.long_name_/new/"]     # not this name's staging
        plant(*kept)
        (tmp_path / ".atomic.symlink_").symlink_to(tmp_path / ".atomic.k1lled_0", target_is_directory=True)
        cli.write_outputs(scn, trace, metrics, str(tmp_path))
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            {"atomic", ".atomic.symlink_", *(rel.split("/")[0] for rel in kept)})
        assert all((tmp_path / rel).exists() for rel in kept)

    def test_directory_with_a_foreign_file_left_alone(self, tmp_path):
        scn, trace, metrics = self.run({})
        (tmp_path / "atomic").mkdir()
        (tmp_path / "atomic" / "trace.csv").write_text("old run\n")
        (tmp_path / "atomic" / "notes.txt").write_text("keep me\n")
        with pytest.raises(cli.ScenarioError, match="not the output of an earlier run"):
            cli.write_outputs(scn, trace, metrics, str(tmp_path))
        assert [p.name for p in tmp_path.iterdir()] == ["atomic"]
        assert sorted(p.name for p in (tmp_path / "atomic").iterdir()) == ["notes.txt", "trace.csv"]
        assert (tmp_path / "atomic" / "notes.txt").read_text() == "keep me\n"

    def test_unrelated_directory_named_like_the_run_left_alone(self, tmp_path, capsys):
        (tmp_path / "src" / "pkg").mkdir(parents=True)
        (tmp_path / "src" / "pkg" / "module.py").write_text("x = 1\n")
        path = tmp_path / "scn.json"
        path.write_text(json.dumps({"name": "src", "n": 4, "horizon": 1.0, "dt": 0.05}))
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 2
        assert "not the output of an earlier run" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scn.json", "src"]
        assert (tmp_path / "src" / "pkg" / "module.py").read_text() == "x = 1\n"

    def test_foreign_directory_rejected_before_the_run(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "early").mkdir()
        (tmp_path / "early" / "notes.txt").write_text("keep me\n")
        path = tmp_path / "scn.json"
        path.write_text(json.dumps({"name": "early", "n": 4, "horizon": 1.0, "dt": 0.05}))
        monkeypatch.setattr(cli, "run_scenario", lambda scn: pytest.fail("simulated before checking --out"))
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 2
        assert "not the output of an earlier run" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["early", "scn.json"]
        assert (tmp_path / "early" / "notes.txt").read_text() == "keep me\n"


class TestScenarioName:
    @pytest.mark.parametrize("name", [".", "..", "/tmp/elsewhere", "a/b", "a\\b", "nul\0"])
    def test_path_like_names_rejected(self, name):
        with pytest.raises(cli.ScenarioError, match="name: expected a plain file name"):
            cli.parse_scenario({"name": name, "n": 4})

    def test_longest_name_runs(self, tmp_path):
        # 245 bytes in UTF-8: the staging directory ".<name>.XXXXXXXX" takes all 255
        name = "\u00e9" * 122 + "a"
        assert len(name.encode()) == MAX_NAME_BYTES
        path = tmp_path / "scn.json"
        path.write_text(json.dumps({"name": name, "n": 3, "horizon": 1.0, "dt": 0.05}))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        assert sorted(p.name for p in (tmp_path / "out" / name).iterdir()) == [
            "errors.svg", "metrics.json", "paths.svg", "trace.csv"]

    @pytest.mark.parametrize("name", [".", "absolute"])
    def test_cli_run_touches_nothing(self, tmp_path, capsys, name):
        out = tmp_path / "out"
        if name == "absolute":  # an absolute path to a directory of its own
            name = str(tmp_path / "victim")
            (tmp_path / "victim").mkdir()
        (out / "earlier").mkdir(parents=True)
        (out / "earlier" / "trace.csv").write_text("earlier run\n")
        path = tmp_path / "scn.json"
        path.write_text(json.dumps({"name": name, "n": 4, "horizon": 1.0, "dt": 0.05}))
        assert cli.main(["run", str(path), "--out", str(out)]) == 2
        assert "plain file name" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["earlier"]
        assert (out / "earlier" / "trace.csv").read_text() == "earlier run\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["out", "scn.json"] + (["victim"] if name.endswith("victim") else []))


# 20 runs of constant input: angular velocity and scale rate change every 0.1, some rates negative
TWENTY_RUNS = {"angular_velocity": [[0.1 * k, 0.2 + 0.05 * (k % 3)] for k in range(20)],
               "scale_rate": [[0.1 * k, -0.02 if k % 2 else 0.01] for k in range(20)]}


class TestGaugeRunPath:
    @pytest.mark.parametrize("reference", [None, {"angular_velocity": [[0, 0.3]]}, TWENTY_RUNS],
                             ids=["stationary", "constant_omega", "twenty_runs"])
    def test_planar_run_reads_no_dense_matrix(self, monkeypatch, reference):
        # a planar run integrates on the n x n tree Laplacian and checks Q on its blocks
        for name in ("matrix", "incidence", "gauge"):
            monkeypatch.setattr(laplacian.SymmetryLaplacian, name,
                                property(lambda lap, name=name: pytest.fail(f"run read lap.{name}")))
        spec = {"n": 12, "horizon": 2} | ({"reference": reference} if reference else {})
        _, _, metrics = cli.run_scenario(cli.parse_scenario(spec))
        assert all(metrics["checks"].values())


class TestOversizedRun:
    def test_rejected_before_allocating(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"name": "huge", "n": 6, "horizon": 1e9}))
        start = time.perf_counter()
        code = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 2
        assert "MiB bound" in err and "try horizon" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()
        assert elapsed < 1.0

    @pytest.mark.parametrize("scenario, message", [
        # the RK4 gains overflow to NaN, which no '>' comparison rejects
        ({"n": 6, "dt": 0.05, "horizon": 1, "reference": {"angular_velocity": [[0, 1e300]]}}, "try dt"),
        # about 6.8e301 steps: the count is printed to three digits, not three hundred
        ({"n": 4, "dt": 1e-300}, "6.83e+301 steps"),
        # horizon / dt overflows to inf: the count is named as too large to count
        ({"n": 4, "dt": 1e-308, "horizon": 1e300},
         "horizon 1e+300 / step size 1e-308 overflows the step count for the trace and its output, "
         "above the 512 MiB bound (try horizon = 8.38e-303)"),
        # a run of a million agents needs about 1,335 MiB (RUN_BYTES_PER_NODE a node)
        ({"n": 10 ** 6}, "the largest n that fits is 383479"),
        # two samples are too few for the 3-D frame residual's central difference
        ({"formation": "cube", "dt": 0.05, "horizon": 0.05, "reference": {"velocity": [[0, [1, 0, 0]]]}},
         "the 3-D frame residual needs at least three samples, but horizon 0.05 at dt 0.05 gives 2 "
         "(try horizon = 0.1)"),
        # hi - lo overflows to inf, which rng.uniform refuses with an OverflowError
        ({"n": 3, "initial": {"box": [-1e308, 1e308]}}, "initial.box: hi - lo must be finite"),
        # numpy's own message for a negative seed does not name the field
        ({"n": 3, "seed": -1}, "seed: must be non-negative, got -1"),
        ({"n": 3, "initial": {"seed": -1}}, "initial.seed: must be non-negative, got -1"),
        # integers beyond the float range, which float() refuses with an OverflowError
        ({"n": 3, "dt": 10 ** 400}, "dt: must be finite"),
        ({"n": 3, "initial": {"box": [-1, 10 ** 400]}}, "initial.box[1]: must be finite"),
        ({"n": 3, "initial": {"points": [[0, 0], [10 ** 400, 0], [1, 1]]}}, "initial.points[1][0]: must be finite"),
        ({"n": 3, "reference": {"start": {"scale": 10 ** 400}}}, "reference.start.scale: must be finite"),
        ({"n": 10 ** 400}, "needs about inf MiB"),
        ({"n": 10 ** 30}, "needs about 1.335e+27 MiB"),
        # a norm beyond the float range: one message naming the input, no numpy warning
        ({"formation": "cube", "horizon": 1, "reference": {"angular_velocity": [[0, [1e300, 0, 0]]]}},
         "invalid argument: reference path: |omega| * dt overflows for the angular velocity from t = 0"),
        ({"formation": "cube", "reference": {"start": {"axis": [1e300, 0, 0]}}},
         "reference.start.axis: axis norm inf is not 1"),
        # json.loads recurses once per level and raises RecursionError
        ('{"n": 3, "dt": ' + "[" * 100_000 + "]" * 100_000 + "}", "scenario.json: invalid JSON: nested too deeply"),
        # ValueErrors of the file's reading and decoding, not of a field
        ('{"n": 3, "dt": ' + "1" * 5000 + "}", "scenario.json: Exceeds the limit (4300 digits)"),
        (b'{"n": 3, "name": "\xff"}', "scenario.json: 'utf-8' codec can't decode byte 0xff"),
        # a control character is not XML: the SVG titles would not parse
        ({"n": 3, "name": "a\u0001b"}, "name: must not hold control characters (U+0000-U+001F, U+007F) "
                                       "or surrogates (U+D800-U+DFFF), got 'a\\x01b'"),
        # a lone surrogate has no UTF-8 form to print or to name a directory
        ({"n": 3, "name": "a\ud800"}, "name: must not hold control characters"),
        # 246 bytes in UTF-8 (123 characters): the staging directory's name would pass 255 bytes
        ({"n": 3, "name": "\u00e9" * 123}, "name: must be at most 245 bytes in UTF-8, got 246"),
        ({"n": 3, "x" * 2000: 1}, "$: unknown field 'xxxxxxxxxxxx"),
        # misspelt nested fields, which would run the default removed edge or start pose
        ({"n": 5, "tree": {"remvoe": [2, 3]}}, "tree: unknown field 'remvoe'"),
        ({"n": 5, "reference": {"start": {"postion": [1, 2]}}}, "reference.start: unknown field 'postion'"),
        # the edges are checked as they are parsed, at their own cost and not n's
        ({"n": 10 ** 30, "tree": {"edges": [[1, 2, 1], [2, 3, 1]]}}, "tree: not connected"),
        # a null object key is refused like any other non-object, for the cube as for tree or initial
        ({"formation": "cube", "cube": None}, "cube: expected an object"),
        # 1e308 steps: their bytes pass the float range, which an integer division refused
        ({"n": 20000, "dt": 1e-300, "horizon": 1e8},
         "1e+308 steps of 40000 coordinates need about inf MiB for the trace and its output, "
         "above the 512 MiB bound (try horizon = 2.78e-298)"),
    ], ids=["nan_gain", "huge_step_count", "infinite_step_count", "huge_n", "short_cube_maneuver",
            "infinite_box_width", "negative_seed", "negative_initial_seed", "huge_int_dt", "huge_int_box",
            "huge_int_point", "huge_int_scale", "huge_int_n", "huge_n_mib", "omega_norm", "axis_norm",
            "deep_json", "long_int_json", "non_utf8", "control_character_name", "surrogate_name", "long_name",
            "long_unknown_field", "unknown_tree_field", "unknown_start_field", "huge_n_short_tree",
            "null_cube", "trace_bytes_overflow"])
    def test_rejected_in_one_line(self, tmp_path, capsys, monkeypatch, scenario, message):
        def forbidden(*args, **kwargs):
            raise AssertionError("dense build started")

        parsed_away = message.startswith(("name:", "$:", "tree:", "reference.start:", "cube:"))  # before any build
        if isinstance(scenario, dict) and (scenario.get("n", 0) >= 20000 or parsed_away):
            # rejected before the dense build, whatever memory the machine has
            monkeypatch.setattr(laplacian, "laplacian_from_edges", forbidden)
        path = tmp_path / "scenario.json"
        text = scenario if isinstance(scenario, (str, bytes)) else json.dumps({"name": "bad", **scenario})
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert not caught
        assert message in err and err.count("\n") == 1 and len(err) <= 300
        assert "Traceback" not in err and "Warning" not in err and "inf steps" not in err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_override_rejected(self, tmp_path, capsys):
        assert cli.main(["run", "example2_c4", "--seed", "-1", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "scenario error: --seed: must be non-negative, got -1\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, value, message", [
        ("--dt", "nan", "--dt: must be finite"), ("--dt", "0", "--dt: must be positive"),
        ("--horizon", "inf", "--horizon: must be finite"), ("--horizon", "-1", "--horizon: must be positive"),
    ])
    def test_grid_override_rejected_by_the_field_rule(self, tmp_path, capsys, flag, value, message):
        # the flags are read by the rule of the dt and horizon fields, before anything runs
        assert cli.main(["run", "example2_c4", flag, value, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr() == ("", f"scenario error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("case", ["run_under_file", "sweep_under_file", "sweep_at_file", "long_name"])
    def test_refused_output_path(self, tmp_path, capsys, case):
        # sweep is refused its --out before the first size, so it prints no PASS line
        (tmp_path / "afile").write_text("")
        out = tmp_path / "out"
        argv = {"run_under_file": ["run", "example2_c4", "--out", str(tmp_path / "afile" / "x")],
                "sweep_under_file": ["sweep", "--n-from", "3", "--n-to", "4",
                                     "--out", str(tmp_path / "afile" / "y")],
                "sweep_at_file": ["sweep", "--n-from", "3", "--n-to", "64", "--out", str(tmp_path / "afile")]}.get(case)
        if argv is None:  # a scenario name cannot be too long (parse_scenario bounds it); --out can
            argv = ["run", "example2_c4", "--out", str(out / ("o" * 300))]
        assert cli.main(argv) == 2
        printed, err = capsys.readouterr()
        refused = argv[-1]
        reason = {"long_name": "File name too long", "sweep_at_file": "File exists"}.get(case, "Not a directory")
        assert "PASS" not in printed
        assert err.startswith("file system error: ") and err.count("\n") == 1
        assert refused in err and reason in err and "Traceback" not in err
        assert (tmp_path / "afile").read_text() == ""
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize("n, command, matrices", [
        (400, lambda: cli.run_scenario(cli.parse_scenario({"n": 400, "horizon": 1})), 2),
        (300, lambda: cli.run_scenario(cli.parse_scenario(
            {"n": 300, "horizon": 1, "reference": {"angular_velocity": [[0, 0.3]]}})), 2),
        (300, lambda: cli.run_scenario(cli.parse_scenario(
            {"n": 300, "horizon": 2, "reference": TWENTY_RUNS})), 2),
        (300, lambda: cli.sweep_sizes(300, 300), dynamics.BUILD_DENSE_MATRICES),
        (300, lambda: cli.verify_scenario(cli.parse_scenario({"n": 300})), dynamics.VERIFY_DENSE_MATRICES),
    ], ids=["stationary", "maneuver", "maneuver_20_runs", "sweep", "verify"])
    def test_dense_build_peak_within_estimate(self, n, command, matrices):
        # a run forms n x n arrays only (L, its eigensolver's copies, one G at a time);
        # sweep holds Q, E, the gauge form and E Eᵀ, and verify adds an eigvalsh of Q;
        # comparisons go by blocks of rows
        tracemalloc.start()
        try:
            command()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= matrices * (2 * n) ** 2 * 8

    @staticmethod
    def trace_estimate(scenario) -> tuple[cli.Scenario, int]:
        """The scenario and its bytes by the trace row and run estimates."""
        scn = cli.load_scenario(scenario) if isinstance(scenario, str) else cli.parse_scenario(scenario)
        lap = cli.build_system(scn)
        dn = lap.n * lap.dim
        _, _, steps = dynamics.resolve_grid(lap.spectrum, scn.dt, scn.horizon)
        row_bytes = dynamics.TRACE_ROW_BYTES_PER_COORD * dn + dynamics.TRACE_ROW_BYTES_FIXED
        return scn, (steps + 1) * row_bytes + dynamics.RUN_BYTES_PER_NODE * lap.n

    @pytest.mark.parametrize("scenario", ["maneuver_c6", {"n": 16}], ids=["maneuver_c6", "planar_n16"])
    def test_block_path_peak_within_estimate(self, scenario):
        # a long run stacks powers of its step matrix, never more floats than its share of
        # the states array, so its peak stays within the trace and run estimates
        scn, estimate = self.trace_estimate(scenario)
        tracemalloc.start()
        try:
            cli.run_scenario(scn)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= estimate

    @pytest.mark.parametrize("scenario", [{"n": 16}, "maneuver_c6", "cube"],
                             ids=["planar_n16", "maneuver_c6", "cube"])
    def test_run_and_write_peak_within_estimate(self, tmp_path, scenario):
        # writing the files adds to the trace only what the row estimate counts: the
        # CSVs go to disk a block at a time, the SVGs hold pixel arrays of the points
        scn, estimate = self.trace_estimate(scenario)
        output.trace_csv_text(short_trace())  # builds the kernel's tables outside the count
        tracemalloc.start()
        try:
            trace, _, metrics = cli.run_scenario(scn)
            cli.write_outputs(scn, trace, metrics, str(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= estimate

    @pytest.mark.parametrize("command, fit", [("run", 383479), ("verify", 1448)])
    def test_huge_n_rejected_before_the_tree(self, tmp_path, capsys, monkeypatch, command, fit):
        monkeypatch.setattr(topology, "cycle_minus_edge", lambda *a, **k: pytest.fail("tree built"))
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": 10_000_000}))
        argv = [command, str(path)] + (["--out", str(tmp_path / "out")] if command == "run" else [])
        start = time.perf_counter()
        assert cli.main(argv) == 2
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert f"the largest n that fits is {fit}" in err and err.count("\n") == 1 and "Traceback" not in err
        assert elapsed < 1.0 and not (tmp_path / "out").exists()

    def test_sweep_checks_n_to_before_any_build(self, capsys, monkeypatch):
        monkeypatch.setattr(laplacian, "laplacian_from_edges", lambda *a, **k: pytest.fail("dense build"))
        monkeypatch.setattr(topology, "cycle_minus_edge", lambda *a, **k: pytest.fail("tree built"))
        assert cli.main(["sweep", "--n-from", "3", "--n-to", "20000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert "n = 20000" in captured.err and "the largest n that fits is 1831" in captured.err

    @pytest.mark.parametrize("command", ["verify", "sweep"])
    def test_verify_and_sweep_share_the_build_bound(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(laplacian, "laplacian_from_edges", lambda *a, **k: pytest.fail("dense build"))
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"n": 20000}))
        argv = {"verify": ["verify", str(path)], "sweep": ["sweep", "--n-from", "20000", "--n-to", "20000"]}
        assert cli.main(argv[command]) == 2
        fit = {"verify": 1448, "sweep": 1831}[command]
        assert f"the largest n that fits is {fit}" in capsys.readouterr().err
