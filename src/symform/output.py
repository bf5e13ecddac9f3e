"""Trace serialization (CSV, JSON metrics) and minimal SVG plotting."""
from __future__ import annotations

import functools
import io
import json
import math
from pathlib import Path
from typing import BinaryIO, NamedTuple

import numpy as np
from numpy.typing import NDArray

from .dynamics import FIT_FLOOR, SimulationTrace
from .maneuver import ManeuverTrace

# Values per CSV block. A block's arrays peak near 200 bytes a value (its
# slot matrix, digit groups and double-double temporaries), so 4096 values
# keep them near 0.8 MB: few enough bytes that the heap holes they leave
# add little to a run's peak RSS, and enough values that the kernel's fixed
# cost per block (about 100 numpy calls) stays small.
_CSV_BLOCK_VALUES = 4096
# The kernel's fast path takes |x| in [1e-280, 1e280). Its decimal exponents k,
# moved by one or two, keep q = 16 - k inside the 10**q table, and no Veltkamp
# split of |x| or of 10**q overflows.
_FAST_LO, _FAST_HI = 1e-280, 1e280
_Q_MIN, _Q_MAX = -270, 300
_X_MIN = 16 - _Q_MAX  # the smallest exponent the per-exponent tables cover
_SPLITTER = 134217729.0  # 2**27 + 1
_E16, _E17 = 10 ** 16, 10 ** 17
# A value whose scaled fraction lies this close to 1/2 is formatted by `fmt`:
# the double-double product is off by about 1e-14, so every exact tie lands here
# and half-even rounding stays Python's.
_TIE_BAND = 1e-9
# The SVG kernel's band: 100 v within this of a half-integer goes to `_fmt2`.
_CENT_TIE_BAND = 1e-6
# Byte slots per value, in six uint64 words: sign, "0.000" and the first digit;
# digits 2-17, each with a slot for a point after it; "e+ddd" and the separator.
# Unused slots hold 0 and are deleted from the block's bytes.
_SLOTS = 48
_GROUP = np.arange(4)  # the four-digit groups of digits 2-17
_GROUP_OFFSET = 10 ** 4 * _GROUP[:, None]  # each group's rows in the `last` table

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


def trace_header(trace: SimulationTrace) -> str:
    """The trace CSV's column names, comma-separated: t, each agent's coordinates p<i>_<c>,
    each edge's error err_<u>_<v> (1-based ends), potential. One ``%`` over a template
    writes every node and end number."""
    coords = "".join(f"p%d_{c}," for c in _coord_names(trace.dim))
    template = "t," + coords * trace.n + "err_%d_%d," * len(trace.ends) + "potential"
    nodes = np.repeat(np.arange(1, trace.n + 1), trace.dim)
    return template % tuple(np.concatenate([nodes, trace.ends.ravel() + 1]).tolist())


def _split(x: NDArray[np.float64]) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Veltkamp split: x = hi + lo, each half with at most 26 significant bits."""
    c = _SPLITTER * x
    hi = c - (c - x)
    return hi, x - hi


class _Tables(NamedTuple):
    pow10: NDArray[np.float64]  # [:, q - _Q_MIN]: 10**q as hi, hi's Veltkamp halves, lo
    head: NDArray[np.uint64]    # [X - _X_MIN]: slots 0-7, the "0.000" prefix of -4 <= X < 0
    tail: NDArray[np.uint64]    # [X - _X_MIN]: slots 40-47, "e+ddd" outside -4 <= X <= 16, and ","
    pairs: NDArray[np.uint64]   # [g]: the digits of f"{g:04d}", each before a free slot
    keep: NDArray[np.uint64]    # [k]: the mask that keeps a group's first k digits
    last: NDArray[np.int8]      # [10**4 j + g]: 4j + position (1-4) of g's last nonzero digit, or 0 for g = 0


@functools.cache
def _kernel_tables() -> _Tables:
    """The CSV kernel's lookup tables, built on first use (a few ms, once a process).

    10**q is a double-double whose two parts are each rounded once from exact
    integers (int true division rounds correctly).
    """
    pows = []
    for q in range(_Q_MIN, _Q_MAX + 1):
        num, den = (10 ** q, 1) if q >= 0 else (1, 10 ** -q)
        hi = num / den
        h_num, h_den = hi.as_integer_ratio()
        pows.append((hi, (num * h_den - h_num * den) / (den * h_den)))
    hi, lo = np.array(pows).T

    def words(texts):
        return np.frombuffer(b"".join(t.encode().ljust(8, b"\0") for t in texts), np.uint64)

    exps = range(_X_MIN, 16 - _Q_MIN + 1)
    head = words("\0" + ("0." + "0" * (-1 - x) if -4 <= x < 0 else "") for x in exps)
    tail = words(("" if -4 <= x <= 16 else f"e{x:+03d}").ljust(7, "\0") + "," for x in exps)
    g = np.arange(10000)
    digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1)
    pairs = np.zeros((g.size, 8), np.uint8)
    pairs[:, 0::2] = digits + ord("0")
    keep = np.zeros((5, 8), np.uint8)
    for k in range(5):
        keep[k, :2 * k] = 0xFF
    last = np.where(g > 0, 4 - np.argmax(digits[:, ::-1] > 0, axis=1), 0)
    last = np.where(last > 0, last + 4 * _GROUP[:, None], 0).astype(np.int8).ravel()
    return _Tables(np.stack([hi, *_split(hi), lo]), head, tail,
                   pairs.view(np.uint64).ravel(), keep.view(np.uint64).ravel(), last)


def _scaled(a, a_hi, a_lo, k, pow10) -> tuple[NDArray[np.int64], NDArray[np.float64]]:
    """Integer and fractional parts of y = a * 10**(16 - k), to about 1e-14.

    Dekker's two-product gives a * hi exactly as p + err (numpy has no fma);
    a * lo adds the table's second part.
    """
    i = 16 - k - _Q_MIN
    hi, h_hi, h_lo, lo = (part[i] for part in pow10)
    p = a * hi
    rest = (((a_hi * h_hi - p) + a_hi * h_lo + a_lo * h_hi) + a_lo * h_lo) + a * lo
    whole = np.floor(p)
    frac = (p - whole) + rest
    carry = np.floor(frac)
    return whole.astype(np.int64) + carry.astype(np.int64), frac - carry


def _decimal(v: NDArray[np.float64]) -> tuple[NDArray[np.int64], NDArray[np.int64], NDArray[np.bool_]]:
    """``%.17g``'s digits of each value: |v| = N * 10**(X - 16), N an int64 of
    17 digits (0 for zero), X the exponent of the leading digit. The third array
    marks the values whose N and X are exact; the others go to :func:`fmt`.
    """
    a = np.abs(v)
    fast = (a >= _FAST_LO) & (a < _FAST_HI)
    a = np.where(fast, a, 1.0)
    pow10 = _kernel_tables().pow10
    a_hi, a_lo = _split(a)
    x = np.floor(np.log10(a)).astype(np.int64)
    n, frac = _scaled(a, a_hi, a_lo, x, pow10)
    # log10 can put x one off near a power of ten; the integer part shows it
    # (compared in int64: float64 cannot hold 10**16 - 1)
    off = (n >= _E17).astype(np.int64) - (n < _E16)
    redo = np.flatnonzero(off)
    if redo.size:
        x[redo] += off[redo]
        n[redo], frac[redo] = _scaled(a[redo], a_hi[redo], a_lo[redo], x[redo], pow10)
    n += frac > 0.5
    up = n == _E17  # rounded up to the next power of ten
    n[up] = _E16
    x[up] += 1
    exact = fast & (np.abs(frac - 0.5) > _TIE_BAND) & (n >= _E16) & (n < _E17)
    zero = v == 0
    n[zero] = 0
    x[zero] = 0
    return n, x, exact | zero


def _digit_groups(n: NDArray[np.int64]) -> tuple[NDArray[np.int64], NDArray[np.int64]]:
    """Each 17-digit n as its leading digit and a 4 x size array of 4-digit groups."""
    # `//` and a multiply-subtract: numpy's int64 np.divmod takes about three times as long
    high = n // 10 ** 8
    low = n - high * 10 ** 8
    first = high // 10 ** 8
    high -= first * 10 ** 8
    high_4, low_4 = high // 10 ** 4, low // 10 ** 4
    return first, np.stack([high_4, high - high_4 * 10 ** 4, low_4, low - low_4 * 10 ** 4])


def _slots(v: NDArray[np.float64], width: int) -> bytearray:
    """``width`` values per line, each as :func:`fmt` writes it, comma-separated,
    in _SLOTS byte slots per value; empty slots hold 0.

    ``%.17g`` layout: fixed notation for -4 <= X <= 16, else a mantissa and an
    exponent of at least two digits; trailing zeros and a bare point dropped;
    -0.0 written as 0.
    """
    n, x, exact = _decimal(v)
    first, groups = _digit_groups(n)
    tab = _kernel_tables()
    last = tab.last[groups + _GROUP_OFFSET].max(axis=0)  # the last nonzero digit, 0 to 16
    fixed = (x >= -4) & (x <= 16)
    point = np.where(fixed, x, 0)  # the digit the point follows (X < 0: in the prefix)
    # digits kept per group: up to the last nonzero one and the point
    kept = np.clip(np.maximum(last, point) - 4 * _GROUP[:, None], 0, 4)
    digits = tab.pairs[groups]
    digits &= tab.keep[kept]
    slots = bytearray(v.size * _SLOTS)  # filled through a numpy view: no copy to delete from
    out = np.frombuffer(slots, np.uint8).reshape(v.size, _SLOTS)
    words = out.view(np.uint64)
    words[:, 0] = tab.head[x - _X_MIN]
    words[:, 1:5] = digits.T
    words[:, 5] = tab.tail[x - _X_MIN]
    out[:, 0] = np.where(v < 0, ord("-"), 0)
    out[:, 6] = first + ord("0")
    dotted = np.flatnonzero((last > point) & (point >= 0))
    out[dotted, 7 + 2 * point[dotted]] = ord(".")
    out[width - 1::width, -1] = ord("\n")
    for i in np.flatnonzero(~exact):
        text = fmt(v[i]).encode()
        out[i, :-1] = 0
        out[i, :len(text)] = np.frombuffer(text, np.uint8)
    return slots


def _csv_body(columns: list[NDArray[np.float64]], head: str, out: BinaryIO) -> None:
    """Write ``head``, then CSV rows of :func:`fmt`-formatted values, one line per row, to ``out``.

    Each column is a 1-D array (one value per row) or a 2-D array (several
    values per row); they are laid side by side. Rows are formatted a block
    of about ``_CSV_BLOCK_VALUES`` values at a time: :func:`_slots` lays the
    block out and its empty slots are deleted, so the bytes equal the
    per-value :func:`fmt` join. Each block's bytes are written as soon as they
    are formed: no part outlives its block.
    """
    cols = [np.asarray(c, dtype=float) for c in columns]
    cols = [c[:, None] if c.ndim == 1 else c for c in cols]
    width = sum(c.shape[1] for c in cols)
    per_block = max(1, _CSV_BLOCK_VALUES // width)
    out.write(head.encode())
    for lo in range(0, len(cols[0]), per_block):
        out.write(_slots(np.hstack([c[lo:lo + per_block] for c in cols]).ravel(), width)
                  .translate(None, b"\0"))


def _write_trace(trace: SimulationTrace, out: BinaryIO) -> None:
    """Trace as CSV: time, stacked coordinates, per-edge errors, potential."""
    _csv_body([trace.times, trace.states, trace.edge_errors, trace.potentials],
              trace_header(trace) + "\n", out)


def _write_reference(trace: ManeuverTrace, out: BinaryIO) -> None:
    """Reference trajectory as CSV: origin, attitude (row-major), scale."""
    d = trace.dim
    names = _coord_names(d)
    cols = ["t"] + [f"r_{c}" for c in names]
    cols += [f"R_{a}{b}" for a in names for b in names]
    cols.append("s")
    _csv_body([trace.times, trace.ref_positions,
               trace.ref_rotations.reshape(trace.times.size, d * d), trace.ref_scales],
              ",".join(cols) + "\n", out)


def trace_csv_text(trace: SimulationTrace) -> str:
    """The bytes :func:`write_trace_csv` writes, as text."""
    buf = io.BytesIO()
    _write_trace(trace, buf)
    return buf.getvalue().decode()


def reference_csv_text(trace: ManeuverTrace) -> str:
    """The bytes :func:`write_reference_csv` writes, as text."""
    buf = io.BytesIO()
    _write_reference(trace, buf)
    return buf.getvalue().decode()


def write_trace_csv(trace: SimulationTrace, path: str | Path) -> None:
    """Stream the trace CSV (UTF-8, a block at a time) into ``path``."""
    with open(path, "wb") as out:
        _write_trace(trace, out)


def write_reference_csv(trace: ManeuverTrace, path: str | Path) -> None:
    """Stream the reference CSV (UTF-8, a block at a time) into ``path``."""
    with open(path, "wb") as out:
        _write_reference(trace, out)


def write_metrics_json(metrics: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(metrics, indent=2, sort_keys=True, allow_nan=False) + "\n",
                          encoding="utf-8")


# ---------------------------------------------------------------- SVG plotting

_W, _H = 720, 520
_ML, _MR, _MT, _MB = 64, 16, 36, 44
# Polyline cell size in px: a vertex whose cell equals its predecessor's is
# dropped. The cell diagonal, 0.35 * sqrt(2) = 0.495 px, bounds the distance
# from every point of the full line to the drawn one.
_CELL_PX = 0.35
_TICK_STEPS = 5  # most tick steps across an axis


def _scale(lo: float, hi: float) -> tuple[float, float]:
    if hi - lo < 1e-30:
        pad = max(abs(hi), 1.0) * 0.05 + 1e-12
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.07
    return lo - pad, hi + pad


def _ticks(lo: float, hi: float) -> list[float]:
    """Round axis values in [lo, hi], a step of 1, 2 or 5 times a power of ten apart that
    fits [lo, hi] at most ``_TICK_STEPS`` times."""
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / _TICK_STEPS))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= _TICK_STEPS:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + step * 1e-9:
        out.append(0.0 if abs(v) < step * 1e-9 else v)
        v += step
    return out


def _escape(text: str) -> str:
    """Text as XML character data: a scenario name may hold ``&``, ``<`` or ``>``."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


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
        f'font-size="15" fill="#222">{_escape(title)}</text>',
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


def _fmt2(x: float) -> str:
    """``%.2f``: an SVG coordinate; :func:`_polylines` writes the same bytes a block at a time."""
    return "%.2f" % x


class _CentTables(NamedTuple):
    whole: NDArray[np.uint64]  # [k]: the digits of k right-aligned in slots 0-3, the point in slot 4
    cents: NDArray[np.uint64]  # [c]: the two digits of f"{c:02d}" in slots 5-6
    seps: NDArray[np.uint64]   # [code]: "\n", "," or " " in slot 7


_SEPS = ("\n", ",", " ")  # a value's separator by code: the end of a series, after x, after y


@functools.cache
def _cent_tables() -> _CentTables:
    """The SVG kernel's lookup tables, built on first use (under 1 ms, once a process)."""
    k = np.arange(10000)
    size = 1 + (k >= 10) + (k >= 100) + (k >= 1000)  # digits of k
    whole = np.zeros((k.size, 8), np.uint8)
    for slot, unit in enumerate((1000, 100, 10, 1)):
        whole[:, slot] = np.where(4 - slot <= size, k // unit % 10 + ord("0"), 0)
    whole[:, 4] = ord(".")
    c = np.arange(100)
    cents = np.zeros((c.size, 8), np.uint8)
    cents[:, 5], cents[:, 6] = c // 10 + ord("0"), c % 10 + ord("0")
    seps = np.zeros((len(_SEPS), 8), np.uint8)
    seps[:, 7] = [ord(sep) for sep in _SEPS]
    return _CentTables(*(t.view(np.uint64).ravel() for t in (whole, cents, seps)))


def _cents(values: NDArray[np.float64], codes: NDArray[np.uint8]) -> str:
    """Each value as ``"%.2f"`` followed by its separator ``_SEPS[code]``, all in one text.

    The values are formatted ``_CSV_BLOCK_VALUES`` at a time. A value v with
    0 <= 100 v < 999,999.5 takes an 8-byte slot: for N = floor(100 v + 1/2), the
    digits of N // 100 and the point from one table, the two decimals N % 100 from
    another, then its separator. The empty slots are deleted. A set sign bit
    (negatives, -0.0), a larger or non-finite value, or a 100 v within
    _CENT_TIE_BAND of a half-integer goes to :func:`_fmt2`: below 1e4, 100 v is
    within 6e-11 of exact, so every tie lands there and half-even rounding stays
    Python's.
    """
    tab = _cent_tables()
    text = io.BytesIO()
    for lo in range(0, values.size, _CSV_BLOCK_VALUES):
        v, code = values[lo:lo + _CSV_BLOCK_VALUES], codes[lo:lo + _CSV_BLOCK_VALUES]
        scaled = 100.0 * v
        fast = (scaled < 999999.5) & ~np.signbit(v)  # False for NaN
        scaled = np.where(fast, scaled, 0.0)
        fast &= np.abs(scaled - np.floor(scaled) - 0.5) > _CENT_TIE_BAND
        whole, cents = np.divmod(np.floor(scaled + 0.5).astype(np.int64), 100)
        words = tab.whole[whole] | tab.cents[cents] | tab.seps[code]
        done = 0
        for i in np.flatnonzero(~fast).tolist():
            cell = (_fmt2(v[i]) + _SEPS[code[i]]).encode()
            text.write(words[done:i].tobytes().translate(None, b"\0") + cell)
            done = i + 1
        text.write(words[done:].tobytes().translate(None, b"\0"))
    return text.getvalue().decode()


def _polylines(px: NDArray[np.float64], py: NDArray[np.float64], keep: NDArray[np.bool_],
               styles: list[str]) -> list[str]:
    """One ``<polyline>`` per series (column): the points ``keep`` marks, as
    ``"%.2f,%.2f"`` pairs joined by spaces, then ``fill="none"`` and the series' style.

    ``px`` and ``py`` broadcast to the (samples, series) shape of ``keep``. The
    kept points of every series are formatted in one pass of :func:`_cents`, each
    value followed by ',' after x, ' ' after y and a newline at the end of a series,
    and the text is split into series at the newlines.
    """
    px, py = np.broadcast_arrays(px, py)
    counts = keep.sum(axis=0)
    values = np.empty((int(counts.sum()), 2))
    values[:, 0] = px.T[keep.T]  # series-major, as the series are written
    values[:, 1] = py.T[keep.T]
    values = values.ravel()
    lasts = 2 * np.cumsum(counts) - 1  # each series' last value
    codes = np.tile(np.array([1, 2], np.uint8), values.size // 2)
    codes[lasts] = 0
    points = _cents(values, codes).split("\n")[:-1]  # the text ends with the last series' newline
    return [f'<polyline points="{p}" fill="none" {style}/>' for p, style in zip(points, styles)]


# An agent's path, start square and end dot, its four coordinates and color left open
_AGENT = ('%s\n<rect x="%s" y="%s" width="6" height="6" fill="%s"/>\n'
          '<circle cx="%s" cy="%s" r="4" fill="%s"/>')
_MARK_BLOCK = _CSV_BLOCK_VALUES // 4  # agents whose four coordinates fill one block of the kernel


def _agent_marks(lines: list[str], x0: NDArray[np.float64], y0: NDArray[np.float64],
                 x1: NDArray[np.float64], y1: NDArray[np.float64], colors: list[str]) -> list[str]:
    """Each agent's polyline from ``lines``, then its 6 px start square centred on
    (x0, y0) and its end dot at (x1, y1), in its color: one text per ``_MARK_BLOCK``
    agents, to be joined by newlines.

    A block's corner and centre coordinates are formatted in one pass of :func:`_cents`
    and its text is written by one ``%`` over the block's template, so the strings a
    block passes through stay few while the texts add up to the file's."""
    corners = np.stack([x0 - 3, y0 - 3, x1, y1], axis=1).ravel()
    spaces = np.full(corners.size, 2, np.uint8)  # a space after each value, split on below
    texts = []
    for lo in range(0, len(lines), _MARK_BLOCK):
        hi = min(lo + _MARK_BLOCK, len(lines))
        cells = _cents(corners[4 * lo:4 * hi], spaces[4 * lo:4 * hi]).split()
        args = [""] * (7 * (hi - lo))
        args[0::7] = lines[lo:hi]
        args[1::7], args[2::7], args[4::7], args[5::7] = (cells[k::4] for k in range(4))
        args[3::7] = args[6::7] = colors[lo:hi]
        texts.append("\n".join([_AGENT] * (hi - lo)) % tuple(args))
    return texts


def _cycled(items, count: int) -> list:
    """The first ``count`` items of ``items`` repeated: a color or style per series."""
    return (list(items) * -(-count // len(items)))[:count]


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
    xlo, xhi = _scale(float(proj[..., 0].min()), float(proj[..., 0].max()))
    ylo, yhi = _scale(float(proj[..., 1].min()), float(proj[..., 1].max()))
    parts, sx, sy = _frame(title, "x", "y", xlo, xhi, ylo, yhi)
    px, py = sx(proj[..., 0]), sy(proj[..., 1])
    del proj  # the pixel arrays hold all the plot needs
    colors = _cycled(PALETTE, trace.n)
    styles = ['stroke="#999999" stroke-width="1.2" stroke-dasharray="6 4"'] * has_ref
    styles += _cycled([f'stroke="{color}" stroke-width="1.5"' for color in PALETTE], trace.n)
    lines = _polylines(px, py, _keep_mask(px, py), styles)
    parts.extend(lines[:has_ref])
    parts.extend(_agent_marks(lines[has_ref:], *(a[has_ref:] for a in (px[0], py[0], px[-1], py[-1])), colors))
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
    px, py = sx(trace.times)[:, None], sy(logs)
    del logs  # as in svg_paths: the pixel arrays hold all the plot needs
    styles = _cycled([f'stroke="{color}" stroke-width="1.2"' for color in PALETTE], py.shape[1])
    parts.extend(_polylines(px, py, _keep_mask(px, py), styles))
    parts.append("</svg>")
    return "\n".join(parts)
