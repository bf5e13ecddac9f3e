#!/usr/bin/env python3
"""Report how far two output snapshots of ``snapshot_outputs.py`` drift apart.

For every file of the two trees A and B it prints one line:

- a CSV file (``trace.csv``, ``reference.csv``): for each group of columns
  whose headers share their leading letters (``t``, ``p`` for states,
  ``err``, ``potential``; ``r``, ``R``, ``s`` for the reference), the
  largest max |B - A| / max |A| over its columns;
- a JSON file (``metrics.json``, ``sweep.json``): the relative change
  |B - A| / |A| of each number that differs, and how many did not;
- an SVG file: the largest distance, in px, from a vertex of one of A's
  polylines to the polyline of B in the same place, pairing the
  ``<polyline>`` elements in order;
- ``log.txt``: for each line that differs only in its numbers, the relative
  change of each number that differs, after the line's text up to it;
- any other file: ``identical`` or ``differs``.

A file in one tree only, a CSV whose header or row count differs, an SVG
whose lines other than polyline points differ or whose polylines lie more
than ``POLYLINE_TOL_PX`` = 0.5 px apart, or a log whose line count, exit
codes or text other than numbers differ (a PASS that turns into FAIL, say)
is named and makes the exit status 1. Usage:

    python scripts/compare_snapshots.py /tmp/old /tmp/new
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

POLYLINE_TOL_PX = 0.5  # how far a vertex of A may lie from B's polyline
_POLYLINE = re.compile(r'<polyline points="([^"]*)"(.*)')
_PAIRS_PER_BLOCK = 2**18  # vertex-segment pairs measured with one set of array operations
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _ratio(delta: float, scale: float) -> float:
    if delta == 0:
        return 0.0
    return delta / scale if scale > 0 else float("inf")


def csv_drift(a: Path, b: Path) -> dict[str, float]:
    """Largest max |B - A| / max |A| of the columns in each group of equal leading letters."""
    header = a.read_text().split("\n", 1)[0]
    if b.read_text().split("\n", 1)[0] != header:
        raise ValueError("headers differ")
    cols_a = np.loadtxt(a, delimiter=",", skiprows=1, ndmin=2)
    cols_b = np.loadtxt(b, delimiter=",", skiprows=1, ndmin=2)
    if cols_a.shape != cols_b.shape:
        raise ValueError(f"shapes differ: {cols_a.shape} and {cols_b.shape}")
    delta = np.abs(cols_b - cols_a).max(axis=0)
    scale = np.abs(cols_a).max(axis=0)
    drift: dict[str, float] = {}
    for name, d, s in zip(header.split(","), delta.tolist(), scale.tolist()):
        group = re.match(r"[A-Za-z]*", name).group()
        drift[group] = max(drift.get(group, 0.0), _ratio(d, s))
    return drift


def _vertices(points: str) -> np.ndarray:
    return np.array(points.replace(",", " ").split(), dtype=float).reshape(-1, 2)


def _segment_distance(px, py, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Distance from points (px, py) to segments start-end ((..., 2) arrays), broadcasting."""
    dx, dy = end[..., 0] - start[..., 0], end[..., 1] - start[..., 1]
    rx, ry = px - start[..., 0], py - start[..., 1]
    # a zero-length segment has rx * dx + ry * dy = 0, so t = 0 and its start is measured
    t = np.clip((rx * dx + ry * dy) / np.maximum(dx * dx + dy * dy, 1e-300), 0.0, 1.0)
    return np.hypot(rx - t * dx, ry - t * dy)


def _bracket_bounds(a: np.ndarray, b: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """An upper bound on each vertex's distance from ``a`` to ``b``.

    When ``b`` keeps a subsequence of ``a``'s vertices, a vertex is measured to
    the segment of ``b`` between the kept vertices around it; otherwise no
    vertex is bounded (inf).
    """
    kept, i, rows = [], 0, a.tolist()
    for vertex in b.tolist():
        while i < len(rows) and rows[i] != vertex:
            i += 1
        if i == len(rows):
            return np.full(len(a), np.inf)
        kept.append(i)
        i += 1
    seg = np.clip(np.searchsorted(kept, np.arange(len(a)), side="right") - 1, 0, len(start) - 1)
    return _segment_distance(a[:, 0], a[:, 1], start[seg], end[seg])


def vertex_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Largest distance from a vertex of polyline ``a`` to polyline ``b`` (both (k, 2)).

    Vertices are measured against every segment of ``b`` in order of their
    :func:`_bracket_bounds`, largest first, until no bound left exceeds the
    largest distance found, so a ``b`` that drops vertices of ``a`` costs a
    few blocks and any other ``b`` costs every vertex-segment pair.
    """
    start, end = (b[:-1], b[1:]) if len(b) > 1 else (b, b)
    bound = _bracket_bounds(a, b, start, end)
    order = np.argsort(-bound, kind="stable")
    step = max(1, _PAIRS_PER_BLOCK // len(start))
    worst = 0.0
    for lo in range(0, len(a), step):
        block = order[lo:lo + step]
        if bound[block[0]] <= worst:
            break
        dist = _segment_distance(a[block, :1], a[block, 1:], start, end)
        worst = max(worst, float(dist.min(axis=1).max()))
    return worst


def svg_drift(a: Path, b: Path) -> float:
    """Largest :func:`vertex_distance` over the polylines of two SVGs paired in order."""
    split = []
    for path in (a, b):
        lines = path.read_text().split("\n")
        split.append(([m.groups() for m in map(_POLYLINE.match, lines) if m],
                      [ln for ln in lines if not _POLYLINE.match(ln)]))
    (lines_a, rest_a), (lines_b, rest_b) = split
    if rest_a != rest_b:
        raise ValueError("lines other than polylines differ")
    if len(lines_a) != len(lines_b):
        raise ValueError(f"polyline counts differ: {len(lines_a)} and {len(lines_b)}")
    worst = 0.0
    for k, ((pts_a, attrs_a), (pts_b, attrs_b)) in enumerate(zip(lines_a, lines_b)):
        if attrs_a != attrs_b:
            raise ValueError(f"attributes of polyline {k} differ")
        worst = max(worst, vertex_distance(_vertices(pts_a), _vertices(pts_b)))
    return worst


def _numbers(value, key: str = "") -> dict[str, float]:
    """Every non-boolean number in a JSON value, keyed by its dotted path."""
    if isinstance(value, dict):
        return {k: v for name, item in value.items()
                for k, v in _numbers(item, f"{key}.{name}" if key else name).items()}
    if isinstance(value, list):
        return {k: v for i, item in enumerate(value) for k, v in _numbers(item, f"{key}[{i}]").items()}
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return {key: float(value)}
    return {}


def json_drift(a: Path, b: Path) -> tuple[dict[str, float], int]:
    """Relative change of each number that differs, and the count of numbers that do not."""
    num_a, num_b = _numbers(json.loads(a.read_text())), _numbers(json.loads(b.read_text()))
    if num_a.keys() != num_b.keys():
        raise ValueError(f"numbers differ in keys: {sorted(num_a.keys() ^ num_b.keys())}")
    changed = {k: _ratio(abs(num_b[k] - num_a[k]), abs(num_a[k])) for k in num_a if num_b[k] != num_a[k]}
    return changed, len(num_a) - len(changed)


def log_drift(a: Path, b: Path) -> list[str]:
    """'line k <text>: <a> -> <b> (<relative change>)' for each number that differs on the
    lines of two logs that differ only in numbers. Raises ValueError naming the first line
    whose exit code or other text differs."""
    lines_a, lines_b = a.read_text().splitlines(), b.read_text().splitlines()
    if len(lines_a) != len(lines_b):
        raise ValueError(f"line counts differ: {len(lines_a)} and {len(lines_b)}")
    changes = []
    for k, (line_a, line_b) in enumerate(zip(lines_a, lines_b), start=1):
        if line_a == line_b:
            continue
        if line_a.startswith("exit ") or _NUMBER.sub("#", line_a) != _NUMBER.sub("#", line_b):
            raise ValueError(f"line {k} differs: {line_a.strip()!r} and {line_b.strip()!r}")
        for num_a, num_b in zip(_NUMBER.finditer(line_a), _NUMBER.finditer(line_b)):
            x, y = num_a.group(), num_b.group()
            if x != y:
                change = _ratio(abs(float(y) - float(x)), abs(float(x)))
                changes.append(f"line {k} {line_a[:num_a.start()].strip()} {x} -> {y} ({change:.2g})")
    return changes


def compare(a: Path, b: Path) -> tuple[list[str], bool]:
    """One report line per file of the two trees, and whether their structure matches
    and their SVG polylines lie within ``POLYLINE_TOL_PX`` of each other."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    lines, ok = [], True
    for rel in sorted(files_a | files_b):
        if rel not in files_a or rel not in files_b:
            lines.append(f"{rel}: only in {'A' if rel in files_a else 'B'}")
            ok = False
            continue
        fa, fb = a / rel, b / rel
        if fa.read_bytes() == fb.read_bytes():
            lines.append(f"{rel}: identical")
            continue
        try:
            if rel.suffix == ".csv":
                drift = csv_drift(fa, fb)
                lines.append(f"{rel}: " + ", ".join(f"{g} {r:.2g}" for g, r in drift.items()))
            elif rel.suffix == ".json":
                changed, same = json_drift(fa, fb)
                parts = [f"{k} {r:.2g}" for k, r in changed.items()] + [f"{same} numbers unchanged"]
                lines.append(f"{rel}: " + ", ".join(parts))
            elif rel.suffix == ".svg":
                drift = svg_drift(fa, fb)
                lines.append(f"{rel}: polyline {drift:.3g} px")
                if drift > POLYLINE_TOL_PX:
                    lines[-1] += f" exceeds {POLYLINE_TOL_PX} px"
                    ok = False
            elif rel.name == "log.txt":
                lines.append(f"{rel}: " + ", ".join(log_drift(fa, fb)))
            else:
                lines.append(f"{rel}: differs")
        except ValueError as exc:
            lines.append(f"{rel}: {exc}")
            ok = False
    return lines, ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="the snapshot compared against (its values are the scale)")
    parser.add_argument("b", type=Path, help="the snapshot compared")
    args = parser.parse_args(argv)
    lines, ok = compare(args.a, args.b)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
