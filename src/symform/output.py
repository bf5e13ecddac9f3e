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
from .laplacian import NumericFailure
from .maneuver import ManeuverTrace

# Values per CSV block. A block's arrays peak near 90 bytes a value (the values
# and their double-double temporaries, or the digit words and 32-byte slots), so
# 8,192 values keep them near 0.75 MB: few enough bytes that the heap holes they
# leave add little to a run's peak RSS, and enough values that the kernel's fixed
# cost per block (about 100 numpy calls) stays small.
_CSV_BLOCK_VALUES = 8192
_CENT_BLOCK_VALUES = 4096  # the SVG kernel's: svg_errors' tracemalloc bound (1.06 MB) sets it
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
_SLOT = 32  # bytes per value: four uint64 words, laid out as `_slots` says

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
    hi = _SPLITTER * x
    hi -= hi - x
    return hi, x - hi


class _Tables(NamedTuple):
    pow10: NDArray[np.float64]  # [:, q - _Q_MIN]: 10**q as hi, hi's Veltkamp halves, lo
    head: NDArray[np.uint64]    # [X - _X_MIN]: word 0, the "0.000" prefix of -4 <= X < 0 in bytes 1-5
    tail: NDArray[np.uint64]    # [X - _X_MIN]: word 3, "e+ddd" outside -4 <= X <= 16 in bytes 1-5, and ","
    quads: NDArray[np.uint64]   # [g]: the four digits of f"{g:04d}" in bytes 0-3
    keep: NDArray[np.uint64]    # [w, k]: the mask of word 1 + w that keeps the first k of digits 2-17
    last: NDArray[np.int8]      # [j, g]: 4j + position (1-4) of g's last nonzero digit, or 0 for g = 0


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
    tail = words(("\0" + ("" if -4 <= x <= 16 else f"e{x:+03d}")).ljust(7, "\0") + "," for x in exps)
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1)  # [:, g]: the four digits of g
    quads = (digits.T + ord("0")).copy()
    ends = 4 - np.argmax(digits[::-1] > 0, axis=0).astype(np.int8)  # g's last nonzero digit, for g > 0
    last = (np.arange(0, 16, 4, dtype=np.int8)[:, None] + ends) * digits.any(axis=0)
    keep = np.where(np.arange(16) < np.arange(17)[:, None], 0xFF, 0).astype(np.uint8).view(np.uint64)
    return _Tables(np.stack([hi, *_split(hi), lo]), head, tail,
                   quads.view(np.uint32).ravel().astype(np.uint64), keep.T.copy(), last)


def _scaled(a, a_hi, a_lo, k) -> tuple[NDArray[np.int64], NDArray[np.float64]]:
    """Integer and fractional parts of y = a * 10**(16 - k), to about 1e-14.

    Dekker's two-product gives a * hi exactly as p + err (numpy has no fma);
    a * lo adds the table's second part; the terms are summed in place, in order.
    """
    pow10 = _kernel_tables().pow10
    i = np.subtract(16 - _Q_MIN, k, dtype=np.intp)
    p, h_hi, h_lo = (part.take(i) for part in pow10[:3])
    p *= a
    rest = a_hi * h_hi - p
    rest += a_hi * h_lo
    rest += np.multiply(a_lo, h_hi, out=h_hi)
    rest += np.multiply(a_lo, h_lo, out=h_lo)
    rest += np.multiply(a, pow10[3].take(i, out=h_hi, mode="clip"), out=h_hi)  # "clip": no copy
    del i, h_hi
    whole = np.floor(p, out=h_lo)
    p -= whole
    p += rest
    carry = np.floor(p, out=rest)
    p -= carry
    return whole.astype(np.int64) + carry.astype(np.int64), p


def _decimal(v: NDArray[np.float64]) -> tuple[NDArray[np.int64], NDArray[np.int16], NDArray[np.bool_]]:
    """``%.17g``'s digits of each value: |v| = N * 10**(X - 16), N an int64 of
    17 digits (0 for zero), X the exponent of the leading digit. The third array
    marks the values whose N and X are exact; the others go to :func:`fmt`.
    """
    a = np.abs(v)
    fast = (a >= _FAST_LO) & (a < _FAST_HI)
    np.copyto(a, 1.0, where=~fast)
    a_hi, a_lo = _split(a)
    x = np.floor(np.log10(a)).astype(np.int16)
    n, frac = _scaled(a, a_hi, a_lo, x)
    # log10 can put x one off near a power of ten; the integer part shows it
    # (compared in int64: float64 cannot hold 10**16 - 1)
    redo = np.flatnonzero((n >= _E17) | (n < _E16))
    if redo.size:
        x[redo] += (n[redo] >= _E17).astype(np.int16) - (n[redo] < _E16)
        n[redo], frac[redo] = _scaled(a[redo], a_hi[redo], a_lo[redo], x[redo])
    n += frac > 0.5
    up = n == _E17  # rounded up to the next power of ten
    n[up] = _E16
    x[up] += 1
    exact = fast & (np.abs(frac - 0.5) > _TIE_BAND) & (n >= _E16) & (n < _E17)
    n[v == 0] = 0
    return n, x, exact | (v == 0)


def _slots(v: NDArray[np.float64], width: int) -> bytearray:
    """``width`` values per line, each as :func:`fmt` writes it, comma-separated,
    in _SLOT bytes a value; unused bytes hold 0.

    ``%.17g`` layout: fixed notation for -4 <= X <= 16, else a mantissa and an
    exponent of at least two digits; trailing zeros and a bare point dropped;
    -0.0 written as 0. Word 0 holds the sign, "0.000", the first digit and a
    point after it; words 1 and 2 digits 2-17, masked to the first max(last,
    point); word 3 "e+ddd" and the separator. A point after digit p + 1 > 1
    moves the digits from byte 8 + p on up a byte, the last into word 3.
    """
    n, x, exact = _decimal(v)
    tab = _kernel_tables()
    head, tail = (table.take(x - np.intp(_X_MIN)) for table in (tab.head, tab.tail))
    # the first digit, then digits 2-9 and 10-17 as two four-digit groups each (`//`, not np.divmod: 3x slower)
    high = n // 10 ** 8
    n -= high * 10 ** 8
    first = high // 10 ** 8
    high -= first * 10 ** 8
    head |= ((first + ord("0")) << 48).view(np.uint64)
    last, digits = np.zeros(v.size, np.int8), []  # the last nonzero of digits 2-17 (0 to 16); words 1, 2
    for j, eight in enumerate((high, n)):
        four = eight // 10 ** 4
        eight -= four * 10 ** 4
        digits.append(tab.quads.take(four) | tab.quads.take(eight) << 32)
        np.maximum.reduce([last, tab.last[2 * j].take(four), tab.last[2 * j + 1].take(eight)], out=last)
    del first, high, n, four
    point = np.where((x >= -4) & (x <= 16), x, 0)  # the digit the point follows (X < 0: in the prefix)
    for word, keep in zip(digits, tab.keep):
        word &= keep.take(np.maximum(last, point))
    head |= (v < 0) * np.uint64(ord("-"))
    dotted = last > point
    head |= (dotted & (point == 0)) * np.uint64(ord(".") << 56)
    inner = np.flatnonzero(dotted & (point > 0))
    at, carry = point[inner], 0
    for word, keep in zip(digits, tab.keep):
        up = word[inner]
        low = up & keep.take(at)  # the bytes before the point
        up ^= low  # and those from it on, moved up a byte
        word[inner] = low | (up << 8) | carry
        carry = up >> 56
    tail[inner] |= carry
    del up, low, carry
    slots = bytearray(v.size * _SLOT)  # filled through a numpy view: no copy to delete from
    out = np.frombuffer(slots, np.uint8).reshape(v.size, _SLOT)
    np.stack([head, *digits, tail], axis=1, out=out.view(np.uint64))
    out[inner, 8 + at] = ord(".")  # in the byte the shift left empty
    out[width - 1::width, -1] = ord("\n")
    for i in np.flatnonzero(~exact):
        out[i, :-1] = np.frombuffer(fmt(v[i]).encode().ljust(_SLOT - 1, b"\0"), np.uint8)
    return slots


def _csv_body(columns: list[NDArray[np.float64]], head: str, out: BinaryIO) -> None:
    """Write ``head``, then CSV rows of :func:`fmt`-formatted values, one line per row, to ``out``.

    Each column is a 1-D array (one value per row) or a 2-D array (several
    values per row); they are laid side by side. Each block of about
    ``_CSV_BLOCK_VALUES`` values is laid out by :func:`_slots`, its unused bytes
    deleted and the rest written at once, so no part outlives its block and the
    bytes equal the per-value :func:`fmt` join.
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


def _scale(lo: float, hi: float, axis: str = "axis") -> tuple[float, float]:
    """The data range [lo, hi] of ``axis`` widened by its margins. Raises NumericFailure,
    naming ``axis`` and [lo, hi], when the widened span exceeds the float range, so
    that no pixel can be mapped."""
    if hi - lo < 1e-30:
        pad = max(abs(hi), 1.0) * 0.05 + 1e-12
    else:
        pad = (hi - lo) * 0.07
    if not math.isfinite((hi + pad) - (lo - pad)):
        raise NumericFailure(f"plot: the {axis} spans {lo:g} to {hi:g}, which with its margins "
                             "is wider than the float range")
    return lo - pad, hi + pad


def _ticks(lo: float, hi: float) -> list[float]:
    """Round axis values in [lo, hi], in increasing order: the multiples of a step of 1, 2 or
    5 times a power of ten that fits [lo, hi] at most ``_TICK_STEPS`` times."""
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / _TICK_STEPS))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= _TICK_STEPS:
            step *= mult
            break
    # each multiple is rounded once: on a range a few float spacings wide some coincide
    ticks = {k * step for k in range(math.ceil(lo / step), math.floor(hi / step) + 1)}
    return sorted(v for v in ticks if lo <= v <= hi)


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

    The values are formatted ``_CENT_BLOCK_VALUES`` at a time. A value v with
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
    for lo in range(0, values.size, _CENT_BLOCK_VALUES):
        v, code = values[lo:lo + _CENT_BLOCK_VALUES], codes[lo:lo + _CENT_BLOCK_VALUES]
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
_MARK_BLOCK = _CENT_BLOCK_VALUES // 4  # agents whose four coordinates fill one block of the kernel


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
    xlo, xhi = _scale(float(proj[..., 0].min()), float(proj[..., 0].max()), f"x axis of {title!r}")
    ylo, yhi = _scale(float(proj[..., 1].min()), float(proj[..., 1].max()), f"y axis of {title!r}")
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
