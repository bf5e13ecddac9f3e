"""Trace serialization (CSV, JSON metrics) and minimal SVG plotting."""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from .dynamics import FIT_FLOOR, SimulationTrace
from .maneuver import ManeuverTrace

# Values per formatted CSV block: bounds the block's text, not its row count.
# At 2048 values a block's text (<= 25 bytes a value) and its format tuple stay
# under glibc's smallest mmap threshold (128 KiB), so blocks always come from
# the heap. Larger blocks land on either side of the threshold, which glibc
# moves as chunks are freed, and the peak memory of a run jumps by megabytes
# with the digits of its data.
_CSV_BLOCK_VALUES = 2048

PALETTE = (
    "#1f6f8b", "#d1495b", "#66a182", "#edae49", "#8d5a97",
    "#00798c", "#c08552", "#5c677d", "#9b2915", "#3d5a80",
    "#7a9e7e", "#b56576",
)


def fmt(x: float) -> str:
    """17-significant-digit decimal, round-trip exact for float64; -0.0 normalized.

    The CSV value format; :func:`_csv_body` writes the same bytes a block at a time.
    """
    return f"{float(x) + 0.0:.17g}"


def _coord_names(dim: int) -> tuple[str, ...]:
    return ("x", "y", "z")[:dim]


def trace_header(trace: SimulationTrace) -> list[str]:
    cols = ["t"]
    for i in range(1, trace.n + 1):
        cols.extend(f"p{i}_{c}" for c in _coord_names(trace.dim))
    cols.extend(f"err_{u}_{v}" for (u, v) in trace.edge_index)
    cols.append("potential")
    return cols


def _csv_body(columns: list[NDArray[np.float64]]) -> str:
    """CSV rows of :func:`fmt`-formatted values, one line per row.

    Each column is a 1-D array (one value per row) or a 2-D array (several
    values per row); they are laid side by side. Rows are formatted a block
    at a time with one ``%`` call, a block holding about ``_CSV_BLOCK_VALUES``
    values, so the text equals the per-value :func:`fmt` join byte for byte.
    """
    cols = [np.asarray(c, dtype=float) for c in columns]
    cols = [c[:, None] if c.ndim == 1 else c for c in cols]
    width = sum(c.shape[1] for c in cols)
    row = ",".join(["%.17g"] * width) + "\n"
    per_block = max(1, _CSV_BLOCK_VALUES // width)
    parts = []
    for lo in range(0, len(cols[0]), per_block):
        block = np.hstack([c[lo:lo + per_block] for c in cols]) + 0.0  # -0.0 -> 0, as fmt
        parts.append(row * len(block) % tuple(block.ravel().tolist()))
    return "".join(parts)


def trace_csv_text(trace: SimulationTrace) -> str:
    """Trace as CSV: time, stacked coordinates, per-edge errors, potential."""
    body = _csv_body([trace.times, trace.states, trace.edge_errors, trace.potentials])
    return ",".join(trace_header(trace)) + "\n" + body


def write_trace_csv(trace: SimulationTrace, path: str | Path) -> None:
    Path(path).write_text(trace_csv_text(trace))


def reference_csv_text(trace: ManeuverTrace) -> str:
    """Reference trajectory as CSV: origin, attitude (row-major), scale."""
    d = trace.dim
    names = _coord_names(d)
    cols = ["t"] + [f"r_{c}" for c in names]
    cols += [f"R_{a}{b}" for a in names for b in names]
    cols.append("s")
    body = _csv_body([trace.times, trace.ref_positions,
                      trace.ref_rotations.reshape(trace.times.size, d * d), trace.ref_scales])
    return ",".join(cols) + "\n" + body


def parse_trace_csv(path: str | Path) -> dict[str, NDArray[np.float64]]:
    """Read back a trace CSV into arrays keyed times/states/edge_errors/potentials."""
    text = Path(path).read_text()
    lines = [ln for ln in text.splitlines() if ln]
    header = lines[0].split(",")
    if header[0] != "t" or header[-1] != "potential":
        raise ValueError(f"unrecognized trace header in {path}")
    n_err = sum(1 for h in header if h.startswith("err_"))
    n_state = len(header) - 2 - n_err
    data = np.array([[float(tok) for tok in ln.split(",")] for ln in lines[1:]])
    return {
        "times": data[:, 0],
        "states": data[:, 1:1 + n_state],
        "edge_errors": data[:, 1 + n_state:1 + n_state + n_err],
        "potentials": data[:, -1],
        "header": header,
    }


def write_metrics_json(metrics: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(metrics, indent=2, sort_keys=True, allow_nan=False) + "\n")


# ---------------------------------------------------------------- SVG plotting

_W, _H = 720, 520
_ML, _MR, _MT, _MB = 64, 16, 36, 44
# Polyline cell size in px: a vertex whose cell equals its predecessor's is
# dropped. The cell diagonal, 0.35 * sqrt(2) = 0.495 px, bounds the distance
# from every point of the full line to the drawn one.
_CELL_PX = 0.35


def _scale(lo: float, hi: float) -> tuple[float, float]:
    if hi - lo < 1e-30:
        pad = max(abs(hi), 1.0) * 0.05 + 1e-12
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.07
    return lo - pad, hi + pad


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / count))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= count:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + step * 1e-9:
        out.append(0.0 if abs(v) < step * 1e-9 else v)
        v += step
    return out


def _frame(title: str, xlabel: str, ylabel: str,
           xlo: float, xhi: float, ylo: float, yhi: float) -> tuple[list[str], callable, callable]:
    def sx(x: float) -> float:
        return _ML + (x - xlo) / (xhi - xlo) * (_W - _ML - _MR)

    def sy(y: float) -> float:
        return _H - _MB - (y - ylo) / (yhi - ylo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="22" text-anchor="middle" font-family="sans-serif" '
        f'font-size="15" fill="#222">{title}</text>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        'fill="none" stroke="#888" stroke-width="1"/>',
    ]
    for tx in _ticks(xlo, xhi):
        px = sx(tx)
        parts.append(f'<line x1="{px:.2f}" y1="{_H - _MB}" x2="{px:.2f}" y2="{_H - _MB + 5}" stroke="#888"/>')
        parts.append(f'<text x="{px:.2f}" y="{_H - _MB + 18}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11" fill="#444">{tx:g}</text>')
    for ty in _ticks(ylo, yhi):
        py = sy(ty)
        parts.append(f'<line x1="{_ML - 5}" y1="{py:.2f}" x2="{_ML}" y2="{py:.2f}" stroke="#888"/>')
        parts.append(f'<text x="{_ML - 8}" y="{py + 4:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11" fill="#444">{ty:g}</text>')
    parts.append(f'<text x="{_W / 2:.1f}" y="{_H - 10}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12" fill="#222">{xlabel}</text>')
    parts.append(f'<text x="16" y="{_H / 2:.1f}" text-anchor="middle" font-family="sans-serif" '
                 f'font-size="12" fill="#222" transform="rotate(-90 16 {_H / 2:.1f})">{ylabel}</text>')
    return parts, sx, sy


def _polyline(xs, ys, sx, sy, color: str, width: float = 1.5, dash: str | None = None) -> str:
    # sx/sy on whole arrays: the same IEEE operations in the same order as per point
    px, py = sx(np.asarray(xs, dtype=float)), sy(np.asarray(ys, dtype=float))
    pts = " ".join(["%.2f,%.2f"] * px.size) % tuple(np.column_stack([px, py]).ravel().tolist())
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="{width}"{extra}/>'


def _keep_mask(px: NDArray[np.float64], py: NDArray[np.float64]) -> NDArray[np.bool_]:
    """Which points of each series (column) a plot draws.

    ``px`` and ``py`` are pixel coordinates, one row per sample, broadcasting
    to one (samples, series) shape. A series keeps its first and last points
    and every point whose _CELL_PX cell differs from its predecessor's.
    """
    cx, cy = np.floor(px / _CELL_PX), np.floor(py / _CELL_PX)
    keep = np.ones(np.broadcast_shapes(px.shape, py.shape), dtype=bool)
    keep[1:-1] = (cx[1:-1] != cx[:-2]) | (cy[1:-1] != cy[:-2])
    return keep


def _kept_series(xs: NDArray[np.float64], ys: NDArray[np.float64],
                 keep: NDArray[np.bool_]) -> list[tuple[NDArray[np.float64], NDArray[np.float64]]]:
    """The kept (x, y) values of each series (column).

    One gather per plot: a boolean index per series would cost a plot of
    many short series (a planar n = 600 run draws 1,199) more than it saves.
    """
    ends = np.cumsum(keep.sum(axis=0)).tolist()
    xk, yk = xs.T[keep.T], ys.T[keep.T]
    return [(xk[lo:hi], yk[lo:hi]) for lo, hi in zip([0] + ends[:-1], ends)]


def _project(states: NDArray[np.float64], n: int, dim: int) -> NDArray[np.float64]:
    """Per-agent plane coordinates; 3-D points drop to an oblique projection."""
    pts = states.reshape(states.shape[0], n, dim)
    if dim == 2:
        return pts
    out = np.empty((states.shape[0], n, 2))
    out[..., 0] = pts[..., 0] - 0.38 * pts[..., 2]
    out[..., 1] = pts[..., 1] - 0.22 * pts[..., 2]
    return out


def svg_paths(trace: SimulationTrace, title: str = "agent paths") -> str:
    """Trajectories per agent with start squares and end dots.

    Each path draws only the points :func:`_keep_mask` keeps; the CSV holds every step.
    """
    proj = _project(trace.states, trace.n, trace.dim)
    has_ref = isinstance(trace, ManeuverTrace)
    if has_ref:  # the reference path is series 0, the agents follow it
        proj = np.concatenate([_project(trace.ref_positions, 1, trace.dim), proj], axis=1)
    xs, ys = proj[..., 0], proj[..., 1]
    xlo, xhi = _scale(float(xs.min()), float(xs.max()))
    ylo, yhi = _scale(float(ys.min()), float(ys.max()))
    parts, sx, sy = _frame(title, "x", "y", xlo, xhi, ylo, yhi)
    series = _kept_series(xs, ys, _keep_mask(sx(xs), sy(ys)))
    if has_ref:
        parts.append(_polyline(*series[0], sx, sy, "#999999", 1.2, dash="6 4"))
    for i in range(trace.n):
        j = i + has_ref
        color = PALETTE[i % len(PALETTE)]
        parts.append(_polyline(*series[j], sx, sy, color))
        x0, y0 = sx(xs[0, j]), sy(ys[0, j])
        x1, y1 = sx(xs[-1, j]), sy(ys[-1, j])
        parts.append(f'<rect x="{x0 - 3:.2f}" y="{y0 - 3:.2f}" width="6" height="6" fill="{color}"/>')
        parts.append(f'<circle cx="{x1:.2f}" cy="{y1:.2f}" r="4" fill="{color}"/>')
    parts.append("</svg>")
    return "\n".join(parts)


def svg_errors(trace: SimulationTrace, title: str = "edge errors") -> str:
    """Per-edge constraint violations on a log10 scale, clamped at ``dynamics.FIT_FLOOR``.

    Below the floor an error is rounding noise (the rate fit stops there too),
    so it is drawn on the floor. Each series draws only the points
    :func:`_keep_mask` keeps; the CSV holds every step.
    """
    logs = np.log10(np.maximum(trace.edge_errors, FIT_FLOOR))
    xlo, xhi = _scale(float(trace.times[0]), float(trace.times[-1]))
    ylo, yhi = _scale(float(logs.min()), float(logs.max()))
    parts, sx, sy = _frame(title, "t", "log10 edge error", xlo, xhi, ylo, yhi)
    times = np.broadcast_to(trace.times[:, None], logs.shape)
    series = _kept_series(times, logs, _keep_mask(sx(trace.times)[:, None], sy(logs)))
    for e, (ts, ls) in enumerate(series):
        parts.append(_polyline(ts, ls, sx, sy, PALETTE[e % len(PALETTE)], 1.2))
    parts.append("</svg>")
    return "\n".join(parts)
