"""Independent checks of symform's outputs, computed here with numpy only.

The references never call symform. For a constraint tree with chain
rotations S_i and scalar tree Laplacian L, the constraint matrix is
Q = S (L (x) I_d) S^T, so every stationary run is checked mode by mode:
RK4 multiplies mode j by R(lambda_j dt) per step, with
R(z) = 1 - z + z^2/2 - z^3/6 + z^4/24, and the exact flow by exp(-lambda_j t).
A maneuver is linear in c = p - 1 (x) r with the constant matrix
A = -Q + I (x) Omega + alpha I on each step, and RK4 maps c to P(dt A) c,
where P is the same degree-4 polynomial.
"""
from __future__ import annotations

import json
import math
import re
import shutil
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

TOL_ROW = 1e-8          # every state row vs the discrete RK4 solution, times the state scale
TOL_FINAL = 1e-6        # final state vs the exact flow (short runs) or the null-space projection
TOL_FRAME = 1e-5        # criterion 5: frame coordinates vs the stationary flow, every step
TOL_FINAL_ERROR = 1e-8  # criterion 5: final shifted error of a planar maneuver
TOL_DERIVED = 1e-9      # recomputed columns, reference path, grid (relative)
CONVERGED = 20.0        # horizon * lambda_min_pos beyond which a run has converged

NON_FINITE = re.compile(r"(?i)(?<![a-z])(nan|inf|infinity)(?![a-z])")


# ------------------------------------------------------------------ geometry


def rot2(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def rot3(axis, angle: float) -> np.ndarray:
    a = np.asarray(axis, dtype=float)
    a = a / np.linalg.norm(a)
    k = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def skew(omega, dim: int) -> np.ndarray:
    if dim == 2:
        return np.array([[0.0, -omega], [omega, 0.0]])
    x, y, z = omega
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


_X, _Z = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])
# The default cube: quarter turns about z along both faces, one about x across.
CUBE_EDGES = ([(u, u + 1, rot3(_Z, math.pi / 2)) for u in (1, 2, 3, 5, 6, 7)]
              + [(1, 5, rot3(_X, -math.pi / 2))])


class Tree:
    """A constraint tree (p_v = W p_u on edge (u, v, W)) and its modal form."""

    def __init__(self, scenario: dict) -> None:
        if scenario.get("formation", "planar") == "cube":
            self.n, self.d, edges = 8, 3, CUBE_EDGES
        else:
            n = scenario["n"]
            base = rot2(2.0 * math.pi / n)
            tree = scenario.get("tree", {})
            if "edges" in tree:
                edges = [(u, v, np.linalg.matrix_power(base, s % n)) for u, v, s in tree["edges"]]
            else:
                cut = set(tree.get("remove", [n, 1]))
                edges = [(i, i % n + 1, base) for i in range(1, n + 1) if {i, i % n + 1} != cut]
            self.n, self.d = n, 2
        self.edges = {(u, v): w for u, v, w in edges}
        n, d = self.n, self.d
        self.S = np.zeros((n, d, d))
        self.S[0] = np.eye(d)
        lap = np.zeros((n, n))
        adj: dict[int, list] = {i: [] for i in range(1, n + 1)}
        for (u, v), w in self.edges.items():
            adj[u].append((v, w))
            adj[v].append((u, w.T))
            lap[u - 1, u - 1] += 1.0
            lap[v - 1, v - 1] += 1.0
            lap[u - 1, v - 1] -= 1.0
            lap[v - 1, u - 1] -= 1.0
        seen, queue = {1}, [1]
        while queue:
            u = queue.pop()
            for v, w in adj[u]:
                if v not in seen:
                    seen.add(v)
                    self.S[v - 1] = w @ self.S[u - 1]
                    queue.append(v)
        self.lap = lap
        lam, self.V = np.linalg.eigh(lap)
        lam[np.abs(lam) < 1e-9 * max(1.0, lam[-1])] = 0.0
        self.lam = lam
        self.lambda_max = float(lam[-1])
        self.lambda_min_pos = float(lam[lam > 0][0])

    def q_matrix(self) -> np.ndarray:
        n, d = self.n, self.d
        blocks = np.zeros((n * d, n * d))
        for i in range(n):
            blocks[i * d:(i + 1) * d, i * d:(i + 1) * d] = self.S[i]
        return blocks @ np.kron(self.lap, np.eye(d)) @ blocks.T

    def modal(self, p0: np.ndarray, gains: np.ndarray) -> np.ndarray:
        """States S V diag(gains[k]) V^T S^T p0 for each row k of gains (rows, n)."""
        c0 = np.einsum("nji,nj->ni", self.S, p0.reshape(self.n, self.d))
        y = gains[:, :, None] * (self.V.T @ c0)[None]
        c = self.V @ y
        return np.einsum("nij,knj->kni", self.S, c).reshape(gains.shape[0], -1)

    def residual_norms(self, states: np.ndarray, header: list[str]) -> np.ndarray:
        d = self.d
        cols = []
        for name in header:
            u, v = (int(x) for x in name[4:].split("_"))
            w = self.edges[(u, v)]
            r = states[:, d * (u - 1):d * u] - states[:, d * (v - 1):d * v] @ w
            cols.append(np.sqrt((r ** 2).sum(axis=1)))
        return np.stack(cols, axis=1)


def rk4_gain(z: np.ndarray) -> np.ndarray:
    return 1.0 - z + z ** 2 / 2.0 - z ** 3 / 6.0 + z ** 4 / 24.0


def rk4_poly(h: np.ndarray) -> np.ndarray:
    eye = np.eye(h.shape[0])
    return eye + h @ (eye + h @ (eye / 2.0 + h @ (eye / 6.0 + h / 24.0)))


# ----------------------------------------------------------------- file level


def _strict_json(text: str):
    def refuse(token):
        raise ValueError(f"non-finite JSON constant {token}")
    return json.loads(text, parse_constant=refuse)


def _non_finite_numbers(value, path: str = "$") -> list[str]:
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return []
    if isinstance(value, (int, float)):
        return [] if math.isfinite(value) else [path]
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in _non_finite_numbers(v, f"{path}.{k}")]
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in _non_finite_numbers(v, f"{path}[{i}]")]
    return [path]


def metrics_problems(text: str, kind: str) -> list[str]:
    """metrics.json must be strict JSON with finite numbers; a run's checks must hold."""
    try:
        metrics = _strict_json(text)
    except ValueError as exc:
        return [f"metrics.json is not strict JSON: {exc}"]
    bad = _non_finite_numbers(metrics)
    if bad:
        return [f"metrics.json has non-finite values at {', '.join(bad[:3])}"]
    if kind == "run":
        failed = [k for k, ok in metrics.get("checks", {}).items() if not ok]
        if failed:
            return [f"metrics.json checks failed: {', '.join(failed)}"]
    return []


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and float rows of a CSV; raises ValueError on a ragged or empty body."""
    lines = path.read_text().split("\n")
    if lines[-1] != "":
        raise ValueError("last line is not terminated")
    header, body = lines[0].split(","), lines[1:-1]
    if not body:
        raise ValueError("no data rows")
    values = np.array(",".join(body).split(","), dtype=float)
    if values.size != len(body) * len(header):
        raise ValueError(f"{values.size} values do not fill {len(body)} rows of {len(header)}")
    return header, values.reshape(len(body), len(header))


def file_problems(path: Path) -> list[str]:
    """No NaN or inf anywhere in a written file; SVG is well-formed XML."""
    text = path.read_text(errors="replace")
    hit = NON_FINITE.search(text)
    if hit:
        return [f"{path.name} contains non-finite value {hit.group(0)!r}"]
    if path.suffix == ".svg":
        try:
            ET.fromstring(text)
        except ET.ParseError as exc:
            return [f"{path.name} is not well-formed: {exc}"]
    return []


# ------------------------------------------------------------- command level


def full_check(cmd, result: dict) -> list[str]:
    """Every check, reading the files the command left on disk."""
    problems = _status_problems(cmd, result)
    if cmd.kind in ("verify", "sweep"):
        return problems + _report_problems(cmd, result["stdout"])
    out = Path(cmd.out)
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else []
    for path in files:
        problems += file_problems(path)
        if path.suffix == ".json":
            problems += metrics_problems(path.read_text(), cmd.kind)
    if cmd.kind == "run" and not problems:
        dirs = [p for p in out.iterdir() if p.is_dir()] if out.is_dir() else []
        if len(dirs) != 1:
            return [f"expected one output directory under {out}, found {len(dirs)}"]
        try:
            problems += _run_problems(cmd, dirs[0])
        except (ValueError, KeyError) as exc:
            problems.append(f"unreadable output: {exc}")
    return problems


def repeat_check(cmd, result: dict, checked: dict) -> list[str]:
    """Checks for a repeat of a command whose last result got the full check.

    Its files must be byte-identical to the checked pass (seeded runs
    repeat exactly), except metrics.json, which holds a timing and is
    checked on its own.
    """
    problems = _status_problems(cmd, result)
    if cmd.kind in ("verify", "sweep"):
        return problems + _report_problems(cmd, result["stdout"])
    if set(result["files"]) != set(checked["files"]):
        return problems + ["wrote a different set of files than the checked pass"]
    for name, entry in result["files"].items():
        if "text" in entry:
            problems += metrics_problems(entry["text"], cmd.kind)
        elif entry["sha256"] != checked["files"][name]["sha256"]:
            problems.append(f"{name} differs from the checked pass")
    return problems


# ------------------------------------------------------------------ runs


def _run_problems(cmd, out_dir: Path) -> list[str]:
    scn = cmd.scenario
    maneuver = "reference" in scn
    expected = {"trace.csv", "metrics.json", "paths.svg", "errors.svg"}
    if maneuver:
        expected.add("reference.csv")
    present = {p.name for p in out_dir.iterdir()}
    if present != expected:
        return [f"wrote {sorted(present)}, expected {sorted(expected)}"]
    metrics = json.loads((out_dir / "metrics.json").read_text())
    header, data = read_csv(out_dir / "trace.csv")
    tree = Tree(scn)
    n, d = tree.n, tree.d
    steps, dt, horizon = metrics["steps"], metrics["dt"], metrics["horizon"]
    problems = []
    shape = (steps + 1, 2 + n * d + len(tree.edges))
    if data.shape != shape:
        return [f"trace.csv has shape {data.shape}, expected {shape}"]

    want_dt = scn.get("dt", 0.5 / tree.lambda_max)
    want_horizon = scn.get("horizon", 40.0 / tree.lambda_min_pos)
    if not (_close(dt, want_dt) and _close(horizon, want_horizon)
            and steps == max(1, math.ceil(horizon / dt - 1e-12))):
        problems.append(f"grid dt={dt} horizon={horizon} steps={steps}, expected dt={want_dt} "
                        f"horizon={want_horizon}")
    if not _close(metrics["lambda_max"], tree.lambda_max):
        problems.append(f"lambda_max {metrics['lambda_max']} != {tree.lambda_max}")
    times = np.arange(steps + 1) * dt
    if np.abs(data[:, 0] - times).max() > TOL_DERIVED * max(1.0, times[-1]):
        problems.append("time column is not k * dt")

    states = data[:, 1:1 + n * d]
    box = scn.get("initial", {}).get("box", [-2.0, 2.0])
    p0 = np.random.default_rng(cmd.seed).uniform(box[0], box[1], size=n * d)
    if not np.array_equal(states[0], p0):
        problems.append("initial state is not the seeded draw")
    if problems:
        return problems
    if maneuver:
        return _maneuver_problems(cmd, tree, out_dir, header, data, p0, dt, steps)
    return _stationary_problems(tree, header, data, p0, dt, steps, horizon)


def _stationary_problems(tree, header, data, p0, dt, steps, horizon) -> list[str]:
    n, d = tree.n, tree.d
    states = data[:, 1:1 + n * d]
    scale = 1.0 + np.abs(p0).max()
    k = np.arange(steps + 1)[:, None]
    ref = tree.modal(p0, rk4_gain(tree.lam * dt)[None, :] ** k)
    problems = []
    row_gap = np.abs(states - ref).max(axis=1)
    if row_gap.max() > TOL_ROW * scale:
        problems.append(f"state row {int(row_gap.argmax())} is {row_gap.max():.3e} from the RK4 "
                        f"solution (tol {TOL_ROW * scale:.1e})")
    if horizon * tree.lambda_min_pos >= CONVERGED:
        final = tree.modal(p0, (tree.lam == 0).astype(float)[None, :])[0]
        what = "null-space projection"
    else:
        final = tree.modal(p0, np.exp(-tree.lam * steps * dt)[None, :])[0]
        what = "exact solution"
    final_gap = float(np.abs(states[-1] - final).max())
    if final_gap > TOL_FINAL:
        problems.append(f"final state is {final_gap:.3e} from the {what} (tol {TOL_FINAL:.0e})")
    return problems + _column_problems(tree, header, data, states, scale)


def _maneuver_problems(cmd, tree, out_dir, header, data, p0, dt, steps) -> list[str]:
    n, d = tree.n, tree.d
    states = data[:, 1:1 + n * d]
    path = _reference_path(cmd.scenario["reference"], d, dt, steps)
    problems = []
    ref_header, ref_data = read_csv(out_dir / "reference.csv")
    mine = np.hstack([path["times"][:, None], path["r"], path["R"].reshape(steps + 1, d * d),
                      path["s"][:, None]])
    if ref_data.shape != mine.shape:
        return [f"reference.csv has shape {ref_data.shape}, expected {mine.shape}"]
    ref_gap = np.abs(ref_data - mine).max(axis=0) / (1.0 + np.abs(mine).max(axis=0))
    if ref_gap.max() > TOL_DERIVED:
        problems.append(f"reference.csv column {ref_header[int(ref_gap.argmax())]} is off by "
                        f"{ref_gap.max():.3e}")

    q = tree.q_matrix()
    eye = np.eye(n * d)
    c = p0 - np.tile(path["r"][0], n)
    expect = np.empty_like(states)
    expect[0] = p0
    props: dict = {}
    for k in range(steps):
        seg = path["segment"][k]
        if seg not in props:
            a = -q + np.kron(np.eye(n), skew(path["omega"][k], d)) + path["alpha"][k] * eye
            props[seg] = rk4_poly(dt * a)
        c = props[seg] @ c
        expect[k + 1] = c + np.tile(path["r"][k + 1], n)
    scale = 1.0 + np.abs(expect).max()
    row_gap = np.abs(states - expect).max(axis=1)
    if row_gap.max() > TOL_ROW * scale:
        problems.append(f"state row {int(row_gap.argmax())} is {row_gap.max():.3e} from the RK4 "
                        f"solution (tol {TOL_ROW * scale:.1e})")

    shifted = states - np.tile(path["r"], (1, n))
    if d == 2:
        # criterion 5: frame coordinates follow the stationary flow from zeta0
        pts = shifted.reshape(steps + 1, n, d)
        zeta = (np.einsum("knd,kde->kne", pts, path["R"]) / path["s"][:, None, None]).reshape(steps + 1, -1)
        times = np.arange(steps + 1)[:, None] * dt
        exact = tree.modal(zeta[0], np.exp(-tree.lam[None, :] * times))
        frame_gap = float(np.sqrt(((zeta - exact) ** 2).sum(axis=1)).max())
        if frame_gap > TOL_FRAME:
            problems.append(f"frame gap {frame_gap:.3e} exceeds {TOL_FRAME:.0e}")
        m = len(tree.edges)
        final_error = float(np.sqrt((data[-1, 1 + n * d:1 + n * d + m] ** 2).sum()))
        if final_error > TOL_FINAL_ERROR:
            problems.append(f"final shifted error {final_error:.3e} exceeds {TOL_FINAL_ERROR:.0e}")
    return problems + _column_problems(tree, header, data, shifted, scale)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL_DERIVED * max(1.0, abs(b))


def _column_problems(tree, header, data, shifted, scale) -> list[str]:
    """Edge-error and potential columns recomputed from the (shifted) states."""
    n, d, m = tree.n, tree.d, len(tree.edges)
    names = header[1 + n * d:1 + n * d + m]
    errors = data[:, 1 + n * d:1 + n * d + m]
    gap = float(np.abs(errors - tree.residual_norms(shifted, names)).max())
    problems = []
    if gap > TOL_DERIVED * scale:
        problems.append(f"edge-error columns are {gap:.3e} from the states")
    pot = 0.5 * (errors ** 2).sum(axis=1)
    if np.abs(data[:, -1] - pot).max() > TOL_DERIVED * max(1.0, pot.max()):
        problems.append("potential column is not half the summed squared edge errors")
    return problems


def _segments(raw, width: int | None) -> tuple[np.ndarray, np.ndarray]:
    starts = np.array([float(t) for t, _ in raw])
    values = np.array([v for _, v in raw], dtype=float)
    return starts, values if width is None else values.reshape(len(raw), width)


def _reference_path(ref: dict, d: int, dt: float, steps: int) -> dict:
    """Reference inputs sampled at each step's left node, and the frame they move."""
    zero_w = [[0.0, [0.0] * 3 if d == 3 else 0.0]]
    times = np.arange(steps + 1) * dt
    sampled, index = [], []
    for raw, width in ((ref.get("velocity", [[0.0, [0.0] * d]]), d),
                       (ref.get("angular_velocity", zero_w), 3 if d == 3 else None),
                       (ref.get("scale_rate", [[0.0, 0.0]]), None)):
        starts, values = _segments(raw, width)
        idx = np.maximum(np.searchsorted(starts, times[:-1], side="right") - 1, 0)
        sampled.append(values[idx])
        index.append(idx)
    v, w, a = sampled
    start = ref.get("start", {})
    r = np.vstack([np.asarray(start.get("position", [0.0] * d), dtype=float), dt * v])
    angle = float(start.get("angle", 0.0))
    rotations = np.empty((steps + 1, d, d))
    if d == 2:
        theta = angle + np.concatenate([[0.0], np.cumsum(w * dt)])
        cos, sin = np.cos(theta), np.sin(theta)
        rotations[:, 0, 0], rotations[:, 0, 1] = cos, -sin
        rotations[:, 1, 0], rotations[:, 1, 1] = sin, cos
    else:
        rotations[0] = rot3(start.get("axis", [0.0, 0.0, 1.0]), angle) if angle else np.eye(3)
        increments = {}
        for k in range(steps):
            seg = int(index[1][k])
            if seg not in increments:
                norm = float(np.linalg.norm(w[k]))
                increments[seg] = rot3(w[k], norm * dt) if norm else np.eye(3)
            rotations[k + 1] = increments[seg] @ rotations[k]
    scale = float(start.get("scale", 1.0)) * np.exp(np.concatenate([[0.0], np.cumsum(a * dt)]))
    return {"times": times, "r": np.cumsum(r, axis=0), "R": rotations, "s": scale,
            "omega": w, "alpha": a, "segment": list(zip(*(i.tolist() for i in index)))}


def _status_problems(cmd, result: dict) -> list[str]:
    problems = []
    if result["exception"] is not None:
        problems.append("raised: " + result["exception"].strip().splitlines()[-1])
    if "Traceback" in result["stderr"]:
        problems.append("printed a traceback")
    rc = result["rc"]
    if cmd.kind == "reject":
        if rc in (0, None):
            problems.append(f"exit code {rc}, expected a rejection")
    elif rc != 0:
        problems.append(f"exit code {rc}, expected 0: {result['stderr'].strip()[-200:]}")
    return problems


def _report_problems(cmd, stdout: str) -> list[str]:
    """verify and sweep: every check line PASS and the closing verdict passed."""
    lines = [ln.strip() for ln in stdout.splitlines() if ln.strip()]
    checks = [ln for ln in lines if ln.startswith(("PASS", "FAIL"))]
    problems = [f"check failed: {ln}" for ln in checks if not ln.startswith("PASS")]
    verdict = "verification passed" if cmd.kind == "verify" else "sweep passed"
    if not lines or lines[-1] != verdict:
        problems.append(f"last line is not {verdict!r}")
    if cmd.kind == "sweep":
        lo, hi = int(cmd.argv[cmd.argv.index("--n-from") + 1]), int(cmd.argv[cmd.argv.index("--n-to") + 1])
        sizes = [int(m) for m in re.findall(r"^PASS n=\s*(\d+)", "\n".join(checks), re.M)]
        if sizes != list(range(lo, hi + 1)):
            problems.append(f"sweep passed sizes {sizes[:3]}..., expected {lo}..{hi}")
    elif not checks:
        problems.append("no check lines")
    return problems


# ------------------------------------------------------------------ self-test


def corrupt(good_out: Path, dest: Path, how: str) -> None:
    """Copy a good run's outputs to ``dest`` and damage its trace.csv one way."""
    shutil.copytree(good_out, dest)
    path = next(dest.rglob("trace.csv"))
    lines = path.read_text().split("\n")
    mid = len(lines) // 2
    if how == "truncated":
        path.write_text("\n".join(lines[:mid]) + "\n")
        return
    row = lines[mid].split(",")
    row[1] = "nan" if how == "nan" else repr(float(row[1]) * (1.0 + 1e-6) + 1e-6)
    lines[mid] = ",".join(row)
    path.write_text("\n".join(lines))
