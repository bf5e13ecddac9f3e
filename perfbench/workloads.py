"""Workloads: fixed lists of symform CLI commands whose inputs come from one seed.

Each workload is a closed loop with one client: the commands of a pass run
one after another in one process, each starting when the previous one has
returned. Scenario files are generated from the workload seed, and symform
sees only those files and the ``--seed`` values derived from the same seed.
"""
from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Why each workload exists (also printed with every result). Every command is sized
# to take about a second, so a run repeats each one often enough for its fastest
# repetition to be one that other load on the machine did not slow down.
WHY = {
    # The per-step Python loop does the work (simulate_maneuver, propagate_reference,
    # a validated Rotation per step), on both the planar 2-D and the spatial 3-D path.
    "maneuver": "per-step maneuver loop: maneuver_c6 at dt 0.015 (6k RK4 steps) and a 3-D cube maneuver (4k steps)",
    # The output layer does the work (CSV text, two SVGs per run), and the stationary
    # dynamics.integrate loop runs here and nowhere in `maneuver`.
    "flow": "output layer and stationary integrate: three presets and a planar n=16 run on the default grid",
    # Dense construction and two O((dn)^3) spectrum calls do the work; integration and
    # output are small. Control for per-step changes; `maneuver` is its control.
    "wide": "dense build and spectrum: one planar n=600 run, 40 steps, two 1200x1200 eigh calls",
    # The dense verification routes (E, E E^T, FD gradient, RK4 vs closed form) and the
    # rejection paths, including the divergence reproducer that writes NaN at the seed.
    "checks": "verify and sweep routes plus rejected scenarios: malformed, unstable dt, divergence",
}

# The speed probe each workload's command times are read against (see passes.PROBES):
# `wide` (eigh) and `checks` (gemv in verify) are BLAS-bound, the others run
# interpreted small-array code.
PROBE = {"maneuver": "interp", "flow": "interp", "wide": "dense", "checks": "dense"}

# Scenario that diverges to NaN under RK4 (omega * dt = 4); kept verbatim, never resized.
DIVERGENCE = {"n": 6, "dt": 0.05, "horizon": 20, "reference": {"angular_velocity": [[0, 80]]}}


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its checker needs to know about it."""

    argv: tuple[str, ...]
    kind: str                 # "run" | "verify" | "sweep" | "reject"
    out: str | None           # --out base directory (run and reject commands)
    scenario: dict | None     # the scenario JSON as symform reads it
    seed: int | None          # the --seed passed to symform

    @property
    def spec(self) -> str | None:
        """The scenario argument: a preset name or a file path."""
        return self.argv[1] if self.kind in ("run", "verify", "reject") else None


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def preset(root: Path, name: str) -> dict:
    return json.loads((root / "src" / "symform" / "presets" / f"{name}.json").read_text())


def _unit(rng: np.random.Generator, lo: float, hi: float, size: int | None = None):
    return rng.uniform(lo, hi, size).tolist() if size else float(rng.uniform(lo, hi))


def _cube_maneuver(rng: np.random.Generator) -> dict:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    starts = (0.0, 40.0, 80.0)
    return {
        "name": "cube_maneuver",
        "formation": "cube",
        "dt": 0.03,
        "horizon": 120.0,
        "reference": {
            "start": {"position": _unit(rng, -1.0, 1.0, 3), "angle": _unit(rng, -3.0, 3.0),
                      "axis": axis.tolist(), "scale": _unit(rng, 0.5, 2.0)},
            "velocity": [[t, _unit(rng, -0.5, 0.5, 3)] for t in starts],
            "angular_velocity": [[t, _unit(rng, -0.3, 0.3, 3)] for t in starts],
            "scale_rate": [[t, _unit(rng, -0.01, 0.01)] for t in starts],
        },
    }


def build(workload: str, seed: int, root: Path, work: Path) -> list[Command]:
    """Write the workload's scenario files under ``work`` and return its commands."""
    rng = _rng(workload, seed)
    scen_dir = work / "scenarios"
    scen_dir.mkdir(parents=True, exist_ok=True)
    commands: list[Command] = []

    def add(kind: str, spec: str | None, scenario: dict | None, *extra: str, text: str | None = None,
            dt: float | None = None) -> None:
        argv: list[str] = [kind if kind != "reject" else "run"]
        if spec is not None and spec.endswith(".json"):
            path = scen_dir / spec
            path.write_text(text if text is not None else json.dumps(scenario))
            spec = str(path)
        if spec is not None:
            argv.append(spec)
        cmd_seed = None
        out = None
        if kind in ("run", "verify", "reject"):
            cmd_seed = _seed(rng)
            argv += ["--seed", str(cmd_seed)]
        if kind in ("run", "reject"):
            out = str(work / "out" / f"c{len(commands)}")
            argv += ["--out", out]
        if dt is not None:
            argv += ["--dt", repr(dt)]
            scenario = {**scenario, "dt": dt}
        argv += list(extra)
        commands.append(Command(tuple(argv), kind, out, scenario, cmd_seed))

    if workload == "maneuver":
        add("run", "maneuver_c6", preset(root, "maneuver_c6"), dt=0.015)
        add("run", "cube_maneuver.json", _cube_maneuver(rng))
    elif workload == "flow":
        for name in ("example2_c4", "example3_c6", "cube"):
            add("run", name, preset(root, name))
        add("run", "flow_n16.json", {"name": "flow_n16", "n": 16})
    elif workload == "wide":
        add("run", "wide_n600.json", {"name": "wide_n600", "n": 600, "horizon": 5.0})
    else:
        add("verify", "verify_n256.json", {"name": "verify_n256", "n": 256})
        add("verify", "cube", preset(root, "cube"))
        add("verify", "maneuver_c6", preset(root, "maneuver_c6"))
        add("sweep", None, None, "--n-from", "3", "--n-to", "64")
        n_bad = int(rng.integers(3, 40))
        add("reject", "malformed.json", None, text=f'{{"n": {n_bad}, "initial": {{"box": [-2.0, ')
        add("reject", "unstable_dt.json", {"name": "unstable_dt", "n": int(rng.integers(3, 40)), "dt": 1.0})
        add("reject", "diverge.json", DIVERGENCE)
    return commands


def scenario_specs(commands: list[Command]) -> list[str]:
    """Scenario arguments of the workload, in order (what a CLI start-up loads)."""
    return [c.spec for c in commands if c.spec is not None]
