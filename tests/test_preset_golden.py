"""Each bundled preset's metrics.json numbers, pinned to the values of an earlier release.

A change that moves a number shows its drift here against the pinned value
instead of asserting a new one: counts are exact, grid and spectrum values
agree to 1e-12 relative, the fitted decay rate to 1e-3 relative and the
error and residual fields to 1e-9 absolute.
"""
from __future__ import annotations

import math

import pytest

from symform import cli

GOLDEN = {
    "example2_c4": {
        "steps": 467, "rank": 6, "null_dim": 2,
        "dt": 0.14644660940672627, "horizon": 68.28427124746189,
        "lambda_max": 3.4142135623730945, "lambda_min_pos": 0.5857864376269051,
        "expected_rate": -0.5857864376269051, "fitted_rate": -0.5856894872461015,
        "final_max_edge_error": 7.761621057999027e-16, "final_total_error": 9.499619624823362e-16,
        "final_potential": 4.512138650816458e-31, "projection_residual": 1.39663232372568e-15,
    },
    "example3_c6": {
        "steps": 1115, "rank": 10, "null_dim": 2,
        "dt": 0.13397459621556135, "horizon": 149.28203230275486,
        "lambda_max": 3.7320508075688776, "lambda_min_pos": 0.26794919243112314,
        "expected_rate": -0.26794919243112314, "fitted_rate": -0.26796891718945565,
        "final_max_edge_error": 1.0162878046325297e-15, "final_total_error": 1.3998580970204978e-15,
        "final_potential": 9.798013458969248e-31, "projection_residual": 4.629027604287145e-15,
    },
    "maneuver_c6": {
        "steps": 18000, "rank": 10, "null_dim": 2,
        "dt": 0.005, "horizon": 90.0,
        "lambda_max": 3.7320508075688776, "lambda_min_pos": 0.26794919243112314,
        "expected_rate": -0.26794919243112314, "fitted_rate": -0.2779491478149098,
        "final_max_edge_error": 3.122845775567489e-11, "final_total_error": 5.4089151062785586e-11,
        "final_potential": 1.4628181313464197e-21, "projection_residual": 7.741299967904022e-11,
    },
    "cube": {
        "steps": 2022, "rank": 21, "null_dim": 3,
        "dt": 0.1299457662370725, "horizon": 262.7414236908844,
        "lambda_max": 3.847759065022574, "lambda_min_pos": 0.152240934977425,
        "expected_rate": -0.152240934977425, "fitted_rate": -0.15218788302891606,
        "final_max_edge_error": 8.812239828450884e-16, "final_total_error": 1.4339842587221612e-15,
        "final_potential": 1.028155427131473e-30, "projection_residual": 3.863661863950502e-15,
    },
}

EXACT = ("steps", "rank", "null_dim")
REL_1E12 = ("dt", "horizon", "lambda_max", "lambda_min_pos", "expected_rate")
REL_1E3 = ("fitted_rate",)
ABS_1E9 = ("final_max_edge_error", "final_total_error", "final_potential", "projection_residual")


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_preset_metrics_pinned(name):
    _, _, metrics = cli.run_scenario(cli.load_scenario(name))
    golden = GOLDEN[name]
    assert set(golden) == {*EXACT, *REL_1E12, *REL_1E3, *ABS_1E9}
    for key in EXACT:
        assert metrics[key] == golden[key], key
    for key in REL_1E12:
        assert math.isclose(metrics[key], golden[key], rel_tol=1e-12, abs_tol=0.0), (key, metrics[key])
    for key in REL_1E3:
        assert math.isclose(metrics[key], golden[key], rel_tol=1e-3, abs_tol=0.0), (key, metrics[key])
    for key in ABS_1E9:
        assert abs(metrics[key] - golden[key]) <= 1e-9, (key, metrics[key])
    assert metrics["zeta_residual"] is None
    assert all(metrics["checks"].values())
