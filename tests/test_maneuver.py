from __future__ import annotations

import bisect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import symform as sf
from conftest import random_tree, random_tree_cases
from symform import checks, cli, dynamics


CUBE_MANEUVER = {
    "formation": "cube", "dt": 0.03, "horizon": 30.0,
    "reference": {
        "start": {"position": [0.4, -0.2, 0.9], "angle": 1.1, "axis": [0.6, 0.0, 0.8],
                  "scale": 1.3},
        "velocity": [[0.0, [0.3, -0.1, 0.2]], [10.0, [-0.2, 0.4, 0.0]], [20.0, [0.1, 0.1, -0.3]]],
        "angular_velocity": [[0.0, [0.2, -0.1, 0.25]], [10.0, [0.0, 0.3, 0.0]],
                             [20.0, [-0.15, 0.05, 0.1]]],
        "scale_rate": [[0.0, 0.01], [10.0, -0.008], [20.0, 0.0]],
    },
}


def world_rk4(lap, p0, path: sf.ReferencePath, inputs: sf.ReferenceInputs,
              start: sf.ReferenceState) -> np.ndarray:
    """Reference route: rk4_step on the world-coordinate maneuver_control field,
    with the reference origin evaluated at each stage time."""
    p = np.array(p0, dtype=float)
    states = [p]
    for k in range(path.times.size - 1):
        r = path.positions[k]
        v, w, a = (checks.segment_value(segs, float(path.times[k]))
                   for segs in (inputs.velocity, inputs.angular, inputs.scale_rate))

        def field(t, y, r=r, v=v, w=w, a=a):
            ref = sf.ReferenceState(position=r + v * t, rotation=start.rotation, scale=1.0)
            return checks.maneuver_control(y, lap, ref, v, w, a)

        p = dynamics.rk4_step(field, 0.0, p, path.dt)
        states.append(p)
    return np.array(states)


# a closed-form attitude against rotation2/rotation3 of the same angle, after R_lo; and
# max |RᵀR - I| over a path's rows (measured at most 4.4e-16 and 1.1e-15)
ROTATION_TOL = 1e-15
ORTHOGONALITY_TOL = 2e-15


def orthogonality_gap(rotations: np.ndarray) -> float:
    return float(np.abs(np.einsum("kji,kjl->kil", rotations, rotations) - np.eye(rotations.shape[1])).max())


def two_segment_inputs() -> sf.ReferenceInputs:
    return sf.ReferenceInputs(
        dim=2,
        velocity=((0.0, np.array([1.0, 0.0])), (2.0, np.array([0.0, -1.0]))),
        angular=((0.0, 0.5), (2.0, -0.25)),
        scale_rate=((0.0, 0.1), (2.0, 0.0)),
    )


class TestReferenceInputs:
    def test_segment_lookup_holds_left_value(self):
        inputs = two_segment_inputs()
        assert np.array_equal(checks.segment_value(inputs.velocity, 0.0), [1.0, 0.0])
        assert np.array_equal(checks.segment_value(inputs.velocity, 1.999), [1.0, 0.0])
        assert np.array_equal(checks.segment_value(inputs.velocity, 2.0), [0.0, -1.0])
        assert checks.segment_value(inputs.angular, 5.0) == -0.25
        assert checks.segment_value(inputs.scale_rate, 0.5) == 0.1

    def test_runs_hold_the_scalar_lookup(self):
        # every step of every run holds the ω and α of the scalar lookup, on a reference with
        # segment starts on and off the grid, a repeated value and a segment no step reaches
        scn = cli.parse_scenario({"n": 4, "reference": {
            "angular_velocity": [[0.0, 0.1], [0.7, -0.2], [1.4, -0.2], [1.42, 0.3], [1.44, 0.0]],
            "scale_rate": [[0.0, 0.01], [1.05, -0.02], [2.0, -0.02], [9.0, 1.0]]}})
        path = sf.propagate_reference(scn.reference, scn.ref_start, 0.05, 3.0)
        steps = 0
        for first, count, w, a in path.runs:
            assert first == steps and count > 0
            steps += count
            for t in path.times[first:first + count]:
                assert w == checks.segment_value(scn.reference.angular, float(t))
                assert a == checks.segment_value(scn.reference.scale_rate, float(t))
        assert steps == path.times.size - 1
        # runs cut where ω or α changes, and nowhere else
        assert [(first, count) for first, count, *_ in path.runs] == [(0, 14), (14, 7), (21, 8), (29, 31)]

    def test_constant_and_stationary(self):
        const = sf.ReferenceInputs.constant([0.3, 0.4], 0.2, -0.05)
        assert np.array_equal(checks.segment_value(const.velocity, 100.0), [0.3, 0.4])
        still = sf.ReferenceInputs.stationary()
        assert np.array_equal(checks.segment_value(still.velocity, 0.0), [0.0, 0.0])
        assert checks.segment_value(still.angular, 0.0) == 0.0
        assert checks.segment_value(still.scale_rate, 0.0) == 0.0

    def test_gap_before_zero_rejected(self):
        with pytest.raises(ValueError, match="gap"):
            sf.ReferenceInputs(dim=2, velocity=((1.0, np.zeros(2)),),
                               angular=((0.0, 0.0),), scale_rate=((0.0, 0.0),))

    def test_non_increasing_starts_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            sf.ReferenceInputs(dim=2,
                               velocity=((0.0, np.zeros(2)), (0.0, np.ones(2))),
                               angular=((0.0, 0.0),), scale_rate=((0.0, 0.0),))

    def test_wrong_vector_width_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            sf.ReferenceInputs(dim=2, velocity=((0.0, np.zeros(3)),),
                               angular=((0.0, 0.0),), scale_rate=((0.0, 0.0),))

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            sf.ReferenceInputs(dim=2, velocity=(), angular=((0.0, 0.0),),
                               scale_rate=((0.0, 0.0),))

    def test_non_finite_value_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            sf.ReferenceInputs(dim=2, velocity=((0.0, np.array([np.inf, 0.0])),),
                               angular=((0.0, 0.0),), scale_rate=((0.0, 0.0),))

    def test_spatial_angular_is_three_vector(self):
        inputs = sf.ReferenceInputs.constant([0, 0, 0], [0.1, 0.0, 0.2], 0.0, dim=3)
        assert np.array_equal(checks.segment_value(inputs.angular, 0.0), [0.1, 0.0, 0.2])
        with pytest.raises(ValueError, match="shape"):
            sf.ReferenceInputs(dim=3, velocity=((0.0, np.zeros(3)),),
                               angular=((0.0, np.zeros(2)),), scale_rate=((0.0, 0.0),))


class TestOmegaMatrix:
    def test_planar_frozen(self):
        assert np.array_equal(sf.omega_matrix(0.7, 2),
                              np.array([[0.0, -0.7], [0.7, 0.0]]))

    @given(st.tuples(*(st.floats(-3, 3) for _ in range(3))),
           st.tuples(*(st.floats(-3, 3) for _ in range(3))))
    @settings(max_examples=50, deadline=None)
    def test_spatial_matches_cross_product(self, w, x):
        w, x = np.array(w), np.array(x)
        assert np.allclose(sf.omega_matrix(w, 3) @ x, np.cross(w, x), atol=1e-12)

    def test_skew(self):
        m = sf.omega_matrix([0.3, -0.2, 0.9], 3)
        assert np.array_equal(m, -m.T)


class TestReferenceState:
    def test_at_origin(self):
        ref = sf.ReferenceState.at_origin()
        assert ref.dim == 2 and ref.scale == 1.0
        assert np.array_equal(ref.position, [0.0, 0.0])
        assert np.array_equal(ref.rotation.matrix, np.eye(2))

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            sf.ReferenceState(position=np.zeros(2), rotation=sf.identity(2), scale=0.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            sf.ReferenceState(position=np.zeros(3), rotation=sf.identity(2), scale=1.0)


class TestPropagateReference:
    def test_positions_piecewise_linear_exact(self):
        path = sf.propagate_reference(two_segment_inputs(),
                                      sf.ReferenceState.at_origin(), 0.5, 4.0)
        # first leg moves +x at speed 1 for 2s, second leg -y at speed 1
        assert np.allclose(path.positions[4], [2.0, 0.0], atol=1e-14)
        assert np.allclose(path.positions[8], [2.0, -2.0], atol=1e-14)

    def test_rotation_is_rotation2_of_each_angle(self):
        # row k turns the start by k |omega| dt, in closed form: no product of k steps
        inputs = sf.ReferenceInputs.constant([0, 0], 0.3, 0.0)
        path = sf.propagate_reference(inputs, sf.ReferenceState.at_origin(), 0.25, 2.0)
        for k, rot in enumerate(path.rotations):
            assert np.abs(rot - sf.rotation2(k * (0.3 * 0.25)).matrix).max() <= ROTATION_TOL

    def test_zero_omega_copies_the_start(self):
        start = sf.ReferenceState(position=np.zeros(3), rotation=sf.rotation3([0.6, 0.0, 0.8], 1.1), scale=1.0)
        inputs = sf.ReferenceInputs(dim=3, velocity=[(0.0, np.zeros(3))], angular=[(0.0, np.zeros(3))],
                                    scale_rate=[(0.0, 0.0)])
        path = sf.propagate_reference(inputs, start, 0.1, 1.0)
        assert all(np.array_equal(rot, start.rotation.matrix) for rot in path.rotations)

    def test_scale_is_exact_exponential(self):
        inputs = sf.ReferenceInputs.constant([0, 0], 0.0, 0.07)
        path = sf.propagate_reference(inputs, sf.ReferenceState.at_origin(), 0.1, 3.0)
        assert np.allclose(path.scales, np.exp(0.07 * path.times), rtol=1e-12)

    def test_left_sampling_at_segment_boundary(self):
        # the step that starts exactly at the switch time uses the new value; positions
        # accumulate one step at a time, so each row is the last plus dt times its velocity
        path = sf.propagate_reference(two_segment_inputs(),
                                      sf.ReferenceState.at_origin(), 1.0, 3.0)
        assert np.array_equal(path.positions[2], path.positions[1] + 1.0 * np.array([1.0, 0.0]))
        assert np.array_equal(path.positions[3], path.positions[2] + 1.0 * np.array([0.0, -1.0]))

    @pytest.mark.parametrize("dim", (2, 3))
    def test_matches_step_by_step_march(self, dim):
        # the per-step loop the vectorized path replaced: the bitwise reference for positions
        # and scales; each attitude is the validated rotation of its angle since its segment began
        if dim == 2:
            inputs, start = two_segment_inputs(), sf.ReferenceState(
                position=np.array([0.3, -1.0]), rotation=sf.rotation2(0.4), scale=1.5)
        else:
            scn = cli.parse_scenario(CUBE_MANEUVER)
            inputs, start = scn.reference, scn.ref_start
        dt = 0.07
        path = sf.propagate_reference(inputs, start, dt, 25.0)
        pos, scale = start.position, start.scale
        assert np.array_equal(path.rotations[0], start.rotation.matrix)
        starts = [t for t, _ in inputs.angular]
        segment = None
        for k in range(path.times.size - 1):
            t = float(path.times[k])
            v, w, a = (checks.segment_value(segs, t)
                       for segs in (inputs.velocity, inputs.angular, inputs.scale_rate))
            pos = pos + dt * v
            scale = scale * math.exp(a * dt)
            assert np.array_equal(path.positions[k + 1], pos)
            assert path.scales[k + 1] == scale
            current = bisect.bisect_right(starts, t)
            if current != segment:  # a new angular segment starts at step k
                segment, first = current, k
            angle = (k + 1 - first) * (float(np.linalg.norm(w)) * dt)
            turn = (sf.rotation2(math.copysign(angle, w)).matrix if dim == 2 else
                    sf.rotation3(w / np.linalg.norm(w), angle).matrix)
            assert np.abs(path.rotations[k + 1] - turn @ path.rotations[first]).max() <= ROTATION_TOL
        assert orthogonality_gap(path.rotations) <= ORTHOGONALITY_TOL

    @pytest.mark.parametrize("dim", (2, 3))
    def test_long_path_stays_orthogonal(self, dim):
        # maneuver_c6's inputs over 60,000 steps, and the cube's over 30,000: a step-by-step
        # march drifted to 4.6e-12 and 2.0e-12 here, so its last row was no Rotation
        if dim == 2:
            scn, dt, horizon = cli.load_scenario("maneuver_c6"), 0.0015, 90.0
        else:
            scn, dt, horizon = cli.parse_scenario(CUBE_MANEUVER), 0.001, 30.0
        path = sf.propagate_reference(scn.reference, scn.ref_start, dt, horizon)
        assert path.times.size - 1 == round(horizon / dt)
        assert orthogonality_gap(path.rotations) <= ORTHOGONALITY_TOL
        end = sf.ReferenceState(position=path.positions[-1], rotation=sf.Rotation(path.rotations[-1]),
                                scale=float(path.scales[-1]))
        assert end.dim == dim

    def test_path_row_is_a_reference_state(self):
        path = sf.propagate_reference(two_segment_inputs(),
                                      sf.ReferenceState.at_origin(), 0.5, 2.0)
        ref = sf.ReferenceState(position=path.positions[2], rotation=sf.Rotation(path.rotations[2]),
                                scale=float(path.scales[2]))
        assert np.array_equal(ref.position, path.positions[2])
        assert math.isclose(ref.scale, path.scales[2])

    def test_bad_grid_rejected(self):
        inputs = sf.ReferenceInputs.stationary()
        with pytest.raises(ValueError, match="step size"):
            sf.propagate_reference(inputs, sf.ReferenceState.at_origin(), 0.0, 1.0)
        with pytest.raises(ValueError, match="horizon"):
            sf.propagate_reference(inputs, sf.ReferenceState.at_origin(), 0.1, -1.0)

    def test_overflowing_step_count_rejected(self):
        with pytest.raises(ValueError, match="overflows the step count"):
            sf.propagate_reference(sf.ReferenceInputs.stationary(), sf.ReferenceState.at_origin(), 1e-308, 1e300)

    def test_oversized_path_rejected_before_allocating(self, monkeypatch):
        # 1e9 steps would take about 130 GiB; the bound refuses them before np.arange runs
        monkeypatch.setattr(np, "arange", lambda *a, **k: pytest.fail("path arrays allocated"))
        with pytest.raises(ValueError, match=r"1e\+09 reference steps need about .* MiB bound") as info:
            sf.propagate_reference(sf.ReferenceInputs.stationary(), sf.ReferenceState.at_origin(), 1e-9, 1.0)
        suggested = float(str(info.value).rsplit("try horizon = ", 1)[1].rstrip(")"))
        rows = round(suggested / 1e-9) + 1
        assert 0.99 * dynamics.MAX_TRACE_BYTES < rows * 136 <= dynamics.MAX_TRACE_BYTES

    @pytest.mark.parametrize("dim, row_bytes", [(2, 136), (3, 208)])
    def test_path_peak_within_row_estimate(self, dim, row_bytes):
        # the bound's bytes per row cover the path's arrays, the per-step velocities and scale
        # factors, and the attitudes' angles and (rows, d, d) Rodrigues product
        omega = 0.2 if dim == 2 else [0.0, 0.1, 0.2]
        inputs = sf.ReferenceInputs(dim=dim, velocity=[(0.0, np.ones(dim)), (1.0, -np.ones(dim))],
                                    angular=[(0.0, omega)], scale_rate=[(0.0, 0.01), (1.5, -0.01)])
        start = sf.ReferenceState.at_origin(dim)
        tracemalloc.start()
        try:
            path = sf.propagate_reference(inputs, start, 1e-4, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= path.times.size * row_bytes + 2**16

    @pytest.mark.parametrize("dt, horizon", [(0.1, 1.0), (0.1, 0.3), (0.07, 25.0), (0.3, 0.1), (1e-3, 2.0)])
    def test_grid_matches_resolve_grid(self, path_system, dt, horizon):
        spec = path_system(4)[1].spectrum
        steps = sf.resolve_grid(spec, dt, horizon)[2]
        path = sf.propagate_reference(sf.ReferenceInputs.stationary(), sf.ReferenceState.at_origin(), dt, horizon)
        assert path.times.size == steps + 1

    def test_dimension_mismatch_rejected(self):
        inputs = sf.ReferenceInputs.stationary(dim=3)
        with pytest.raises(ValueError, match="dimension"):
            sf.propagate_reference(inputs, sf.ReferenceState.at_origin(dim=2), 0.1, 1.0)


class TestFrames:
    @given(st.integers(0, 2 ** 32 - 1), st.floats(-math.pi, math.pi),
           st.floats(0.2, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, seed, angle, scale):
        rng = np.random.default_rng(seed)
        ref = sf.ReferenceState(position=rng.uniform(-3, 3, 2),
                                rotation=sf.rotation2(angle), scale=scale)
        p = rng.uniform(-5, 5, 8)
        there = checks.moving_frame(p, ref)
        back = checks.frame_to_world(there, ref)
        assert np.allclose(back, p, atol=1e-12)

    def test_identity_frame_is_identity_map(self):
        p = np.arange(6.0)
        assert np.array_equal(checks.moving_frame(p, sf.ReferenceState.at_origin()), p)

    def test_frame_components(self):
        # one agent at r + s R e_x must map to e_x in the frame
        ref = sf.ReferenceState(position=np.array([1.0, -2.0]),
                                rotation=sf.rotation2(0.4), scale=3.0)
        p = ref.position + 3.0 * ref.rotation.matrix @ np.array([1.0, 0.0])
        assert np.allclose(checks.moving_frame(p, ref), [1.0, 0.0], atol=1e-14)


class TestManeuverControl:
    def test_zero_inputs_reduce_to_gradient_flow_bitwise(self, path_system):
        _, lap, _ = path_system(5)
        p = np.random.default_rng(12).uniform(-2, 2, 10)
        u = checks.maneuver_control(p, lap, sf.ReferenceState.at_origin(),
                                np.zeros(2), 0.0, 0.0)
        assert np.array_equal(u, checks.control(p, lap))

    def test_on_manifold_control_is_pure_feedforward(self, path_system):
        # when the shifted state sits in the constraint set, -Qc vanishes and
        # the control per agent is exactly v + (omega skew + alpha I)(p_i - r)
        _, lap, chain = path_system(6)
        rng = np.random.default_rng(13)
        ref = sf.ReferenceState(position=rng.uniform(-2, 2, 2),
                                rotation=sf.rotation2(0.8), scale=1.7)
        zeta = checks.symmetric_configuration(chain, np.array([1.1, -0.3]))
        p = checks.frame_to_world(zeta, ref)
        v, w, a = np.array([0.4, -0.2]), 0.6, 0.05
        u = checks.maneuver_control(p, lap, ref, v, w, a)
        omega = sf.omega_matrix(w, 2)
        c = p.reshape(6, 2) - ref.position
        expected = (v + c @ omega.T + a * c).ravel()
        assert np.allclose(u, expected, atol=1e-10)

    def test_matches_finite_difference_of_frame_flow(self, path_system):
        # independent route: the control must equal the time derivative of
        # frame_to_world(zeta(t), ref(t)) when zeta follows -Q zeta
        _, lap, _ = path_system(4)
        rng = np.random.default_rng(14)
        p = rng.uniform(-2, 2, 8)
        ref = sf.ReferenceState(position=np.array([0.5, 0.2]),
                                rotation=sf.rotation2(-0.3), scale=1.2)
        v, w, a = np.array([0.1, 0.3]), -0.4, 0.02
        u = checks.maneuver_control(p, lap, ref, v, w, a)

        def world_at(h: float) -> np.ndarray:
            ref_h = sf.ReferenceState(
                position=ref.position + h * v,
                rotation=sf.Rotation(sf.rotation2(w * h).matrix @ ref.rotation.matrix),
                scale=ref.scale * math.exp(a * h),
            )
            zeta0 = checks.moving_frame(p, ref)
            zeta_h = checks.closed_form_solution(lap.matrix, zeta0, abs(h)) if h >= 0 else None
            if h < 0:
                # integrate the frame flow backwards via the eigenbasis
                spec = sf.spectrum(lap.matrix)
                lam = spec.eigenvalues.copy()
                lam[np.abs(lam) < spec.threshold] = 0.0
                V = spec.eigenvectors
                zeta_h = V @ (np.exp(-lam * h) * (V.T @ zeta0))
            return checks.frame_to_world(zeta_h, ref_h)

        h = 1e-6
        fd = (world_at(h) - world_at(-h)) / (2 * h)
        assert np.abs(u - fd).max() < 1e-5


class TestSimulateManeuver:
    def test_zero_inputs_match_stationary_run_bitwise(self, path_system):
        _, lap, _ = path_system(6)
        p0 = np.random.default_rng(21).uniform(-2, 2, 12)
        still = sf.simulate_maneuver(lap, p0, sf.ReferenceInputs.stationary(),
                                     dt=0.05, horizon=5.0)
        plain = sf.integrate(lap, p0, dt=0.05, horizon=5.0)
        assert np.array_equal(still.states, plain.states)
        assert np.array_equal(still.frame(slice(None)), plain.states)

    def test_zero_inputs_from_offset_start_bitwise(self, path_system):
        # the shifted state runs the stationary flow from p0 - 1⊗r0 exactly;
        # world states add the offset back and row 0 stays the given p0
        _, lap, _ = path_system(6)
        p0 = np.random.default_rng(25).uniform(-2, 2, 12)
        r0 = np.array([0.7, -1.3])
        start = sf.ReferenceState(position=r0, rotation=sf.identity(2), scale=1.0)
        still = sf.simulate_maneuver(lap, p0, sf.ReferenceInputs.stationary(), start=start,
                                     dt=0.05, horizon=5.0)
        offset = np.tile(r0, 6)
        plain = sf.integrate(lap, p0 - offset, dt=0.05, horizon=5.0)
        assert np.array_equal(still.states[0], p0)
        assert np.array_equal(still.states[1:], plain.states[1:] + offset)
        assert np.array_equal(still.edge_errors, plain.edge_errors)

    @pytest.mark.parametrize("spec", [
        {"n": 5, "reference": {"angular_velocity": [[0, 0.3], [0.2, 0.0], [0.3, -0.5]],
                               "scale_rate": [[0, -0.1], [0.25, 0.2]]}},
        CUBE_MANEUVER,
    ], ids=["planar", "cube"])
    def test_segment_operators_are_the_kron_form(self, spec):
        # each run's G, a fresh operator (a planar stencil densified), is Sᵀ(Q - I⊗Ω - αI)S on the gauge
        # rows it acts on: n x n (complex for a planar ω ≠ 0, acting on x + iy) or dn x dn (the cube's ω ≠ 0)
        scn = cli.parse_scenario({"dt": 0.05, "horizon": 0.5, **spec})
        lap = cli.build_system(scn)
        path = sf.propagate_reference(scn.reference, scn.ref_start, scn.dt, scn.horizon)
        n, d = lap.n, lap.dim
        eye = np.eye(n * d)
        chain = np.zeros((n * d, n * d))
        for i, block in enumerate(lap.chain.reshape(n, d, d)):
            chain[d * i:d * (i + 1), d * i:d * (i + 1)] = block
        quarter = sf.omega_matrix(1.0, 2)  # i acting on x + iy
        k = 0
        for g, count in sf.maneuver._segment_operators(lap, path):
            t = float(path.times[k])
            omega = sf.omega_matrix(checks.segment_value(scn.reference.angular, t), d)
            alpha = checks.segment_value(scn.reference.scale_rate, t)
            assert g is not lap.scalar
            if isinstance(g, sf.laplacian.PathStencil):  # every planar tree is C_n less one edge
                g = g.dense()
            if g.shape == (n, n):
                g = np.kron(g.real, np.eye(d)) + (np.kron(g.imag, quarter) if d == 2 else 0.0)
                # the planar kron form holds bit for bit: Ω commutes with every S_i
                assert np.array_equal(g, np.kron(lap.scalar, np.eye(d)) - np.kron(np.eye(n), omega) - alpha * eye)
            dense = chain.T @ (lap.matrix - np.kron(np.eye(n), omega) - alpha * eye) @ chain
            assert np.abs(g - dense).max() <= checks.ROUTE_TOL
            k += count
        assert k == path.times.size - 1

    @settings(max_examples=40, deadline=None)
    @given(random_tree_cases(24), st.floats(-3.0, 3.0), st.floats(-0.5, 0.5), st.floats(0.01, 0.45))
    def test_planar_gains_match_dense_eigenvalues(self, case, omega, alpha, dt):
        # λ + iω from the tree spectrum gives the RK4 gains of a dense eigvals of Q - I⊗Ω
        lap = sf.build_laplacian(random_tree(*case))
        gauge = sf.maneuver._rotating_eigenvalues(lap, omega)
        dense = np.linalg.eigvals(lap.matrix - np.kron(np.eye(lap.n), sf.omega_matrix(omega, 2)))
        shift = max(-alpha, 0.0)
        gains = [np.sort(sf.maneuver._rk4_gain(-dt * (mu + shift))) for mu in (gauge, dense)]
        assert np.abs(gains[0] - gains[1]).max() <= 1e-12

    def test_cube_gains_match_dense_eigenvalues(self):
        # the gauge-frame G is similar to Q - I⊗Ω, so both give the same RK4 gains
        lap = sf.build_cube()
        omega = [0.4, -1.1, 0.7]
        gauge = sf.maneuver._rotating_eigenvalues(lap, np.array(omega))
        dense = np.linalg.eigvals(lap.matrix - np.kron(np.eye(8), sf.omega_matrix(omega, 3)))
        gains = [np.sort(sf.maneuver._rk4_gain(-0.3 * mu)) for mu in (gauge, dense)]
        assert np.abs(gains[0] - gains[1]).max() <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(random_tree_cases(12), st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
           st.one_of(st.just(0.0), st.floats(-0.2, 0.2)), st.integers(0, 2 ** 32 - 1))
    @example(case=(256, 100, [(7 * k) % 256 for k in range(255)], [k % 3 == 0 for k in range(255)]),
             omega=0.3, alpha=-0.05, seed=37)
    def test_gauge_run_matches_dense_world_run(self, case, omega, alpha, seed):
        # n and 3n steps take the block path, except for the 256-point tree, whose complex G
        # takes the stencil both times; each against rk4_step on the world-frame field
        # -(Q - I⊗Ω - αI) c with the dense Q
        n = case[0]
        lap = sf.build_laplacian(random_tree(*case))
        p0 = np.random.default_rng(seed).uniform(-2, 2, 2 * n)
        g = lap.matrix - np.kron(np.eye(n), sf.omega_matrix(omega, 2)) - alpha * np.eye(2 * n)
        inputs = sf.ReferenceInputs.constant([0.0, 0.0], omega, alpha)
        for steps in (n, 3 * n):
            trace = sf.simulate_maneuver(lap, p0, inputs, dt=0.05, horizon=0.05 * steps)
            expected = [p0]
            for k in range(steps):
                expected.append(dynamics.rk4_step(lambda t, x: -(g @ x), 0.05 * k, expected[-1], 0.05))
            expected = np.array(expected)
            assert np.abs(trace.states - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("name", ("maneuver_c6", "cube"))
    def test_matches_world_coordinate_rk4(self, name):
        if name == "cube":
            scn = cli.parse_scenario(CUBE_MANEUVER)
        else:
            scn = cli.load_scenario("maneuver_c6")
            scn.dt = 0.015  # 6,000 steps over the preset's three input segments
        lap = cli.build_system(scn)
        p0 = cli.initial_state(scn)
        trace = sf.simulate_maneuver(lap, p0, scn.reference, start=scn.ref_start,
                                     dt=scn.dt, horizon=scn.horizon)
        path = sf.propagate_reference(scn.reference, scn.ref_start, scn.dt, scn.horizon)
        expected = world_rk4(lap, p0, path, scn.reference, scn.ref_start)
        assert np.array_equal(trace.states[0], p0)
        scale = 1.0 + np.abs(expected).max()
        assert np.abs(trace.states - expected).max() <= 1e-10 * scale

    def test_unstable_step_rejected_with_suggestion(self, path_system):
        # omega * dt = 4 is outside RK4's stability interval on the imaginary axis
        _, lap, _ = path_system(6)
        p0 = np.random.default_rng(26).uniform(-2, 2, 12)
        inputs = sf.ReferenceInputs.constant([0.0, 0.0], 80.0, 0.0)
        with pytest.raises(ValueError, match=r"7\.61 > 1 \(try dt = ") as info:
            sf.simulate_maneuver(lap, p0, inputs, dt=0.05, horizon=20.0)
        suggested = float(str(info.value).rsplit("try dt = ", 1)[1].rstrip(")"))
        trace = sf.simulate_maneuver(lap, p0, inputs, dt=suggested, horizon=1.0)
        assert np.isfinite(trace.states).all()

    def test_frame_coordinates_follow_stationary_flow(self, path_system):
        # independent cross-check: zeta from the maneuver run equals a plain
        # gradient-flow run started from the initial frame coordinates
        _, lap, _ = path_system(6)
        rng = np.random.default_rng(22)
        p0 = rng.uniform(-2, 2, 12)
        inputs = two_segment_inputs()
        trace = sf.simulate_maneuver(lap, p0, inputs, dt=0.01, horizon=4.0)
        plain = sf.integrate(lap, p0, dt=0.01, horizon=4.0)
        assert np.abs(trace.frame(slice(None)) - plain.states).max() < 1e-8

    def test_frame_rows_match_moving_frame(self, path_system):
        # the trace's frame rows against checks.moving_frame of each state and reference row
        _, lap, _ = path_system(6)
        p0 = np.random.default_rng(28).uniform(-2, 2, 12)
        start = sf.ReferenceState(position=np.array([0.4, -0.9]), rotation=sf.rotation2(0.7), scale=1.3)
        trace = sf.simulate_maneuver(lap, p0, two_segment_inputs(), start=start, dt=0.01, horizon=4.0)
        rows = [0, 17, 200, -1]
        direct = [checks.moving_frame(trace.states[k], sf.ReferenceState(
            position=trace.ref_positions[k], rotation=sf.Rotation(trace.ref_rotations[k]),
            scale=float(trace.ref_scales[k]))) for k in rows]
        np.testing.assert_allclose(trace.frame(rows), direct, rtol=0, atol=1e-14)
        assert np.array_equal(trace.frame(slice(None))[rows], trace.frame(rows))

    def test_shifted_errors_converge(self, path_system):
        graph, lap, _ = path_system(4)
        rng = np.random.default_rng(23)
        p0 = rng.uniform(-2, 2, 8)
        inputs = sf.ReferenceInputs.constant([0.3, 0.1], 0.2, 0.01)
        trace = sf.simulate_maneuver(lap, p0, inputs, dt=0.02, horizon=60.0)
        assert trace.total_errors[-1] < 1e-8
        ref = sf.ReferenceState(position=trace.ref_positions[-1],
                                rotation=sf.Rotation(trace.ref_rotations[-1]),
                                scale=float(trace.ref_scales[-1]))
        direct = checks.shifted_errors(trace.final_state, ref, graph)
        assert np.allclose(direct, trace.edge_errors[-1], atol=1e-13)

    def test_zeta_residual_small_for_planar(self, path_system):
        _, lap, _ = path_system(4)
        p0 = np.random.default_rng(24).uniform(-2, 2, 8)
        inputs = two_segment_inputs()
        trace = sf.simulate_maneuver(lap, p0, inputs, dt=0.005, horizon=3.0)
        assert sf.zeta_consistency_residual(trace, lap.matrix) < 1e-3

    def test_world_states_assembled_in_place(self, path_system):
        # 1⊗r is added into the shifted rows, so the run holds no second copy of the states:
        # 20,000 steps of n = 6 peak at 3.02 trace arrays, where a separate world-state array
        # and the tiled positions it is summed from would add two more
        _, lap, _ = path_system(6)
        p0 = np.random.default_rng(27).uniform(-2, 2, 12)
        inputs = sf.ReferenceInputs.constant([0.1, 0.0], 0.2, -0.001)
        lap.spectrum
        tracemalloc.start()
        try:
            trace = sf.simulate_maneuver(lap, p0, inputs, dt=0.0015, horizon=30.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.steps == 20_000
        assert peak < 4.5 * trace.states.nbytes

    def test_reference_arrays_on_trace(self, path_system):
        _, lap, _ = path_system(3)
        trace = sf.simulate_maneuver(lap, np.zeros(6),
                                     sf.ReferenceInputs.stationary(),
                                     dt=0.1, horizon=1.0)
        assert trace.ref_positions.shape == (11, 2)
        assert trace.ref_rotations.shape == (11, 2, 2)
        assert trace.ref_scales.shape == (11,)

    def test_dimension_mismatch_rejected(self, path_system):
        _, lap, _ = path_system(4)
        with pytest.raises(ValueError, match="dimension"):
            sf.simulate_maneuver(lap, np.zeros(8), sf.ReferenceInputs.stationary(dim=3))

    def test_short_trace_rejected_by_residual(self, path_system):
        _, lap, _ = path_system(3)
        trace = sf.simulate_maneuver(lap, np.zeros(6),
                                     sf.ReferenceInputs.stationary(),
                                     dt=0.1, horizon=0.1)
        with pytest.raises(ValueError, match="three samples"):
            sf.zeta_consistency_residual(trace, lap.matrix)
