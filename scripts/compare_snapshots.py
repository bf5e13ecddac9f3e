#!/usr/bin/env python3
"""Report how far two output snapshots of ``snapshot_outputs.py`` drift apart.

For every file of the two trees A and B it prints one line:

- a CSV file (``trace.csv``, ``reference.csv``): for each group of columns
  whose headers share their leading letters (``t``, ``p`` for states,
  ``err``, ``potential``; ``r``, ``R``, ``s`` for the reference), the
  largest max |B - A| / max |A| over its columns;
- a JSON file (``metrics.json``, ``sweep.json``): the relative change
  |B - A| / |A| of each number that differs, and how many did not;
- any other file: ``identical`` or ``differs``.

A file in one tree only, or a CSV whose header or row count differs, is
named and makes the exit status 1. Usage:

    python scripts/compare_snapshots.py /tmp/old /tmp/new
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np


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


def compare(a: Path, b: Path) -> tuple[list[str], bool]:
    """One report line per file of the two trees, and whether their structure matches."""
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
