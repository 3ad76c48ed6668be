"""Minimal deterministic SVG line plots.

Hand-rolled on purpose: the output must be byte-identical across runs and
machines, so no plotting library sits between the numbers and the file.
Fixed 800x600 canvas, 10% margins, coordinates rounded to hundredths of a
pixel, axis lines with min/max tick labels, and a small legend when curves
are labeled.  A curve that degenerates to a single point (or to zero
extent) is drawn as a dot marker instead of a polyline.

Each coordinate is `%.2f` of its pixel value: the exact value rounded to
hundredths, half to even on exact ties.  `_pairs` writes a polyline's pixel
values with no conversion per number: it looks each rounded hundredth up in
a read-only table of 100,000 eight-byte words, the text of k/100 for every
k, which takes 800 KB and stays resident after the first plot.  Label,
title and axis text is XML-escaped, and a curve's color must be `#rrggbb`.
An extent whose pixel scale is not finite (it overflows, or is subnormal)
is rejected with `ValueError`.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["Curve", "export_svg", "COMPARE_COLORS", "DEFAULT_COLOR", "isometric_projection",
           "geometry_views"]

WIDTH = 800
HEIGHT = 600
DEFAULT_COLOR = "#2c6fbb"
# Overlay palette; the first three (green, red, blue) are the documented
# colors for multi-scenario comparisons, the rest cover longer lists.
COMPARE_COLORS = ("#008000", "#d00000", "#0000cc", "#805090", "#c07818", "#108888")
# A curve's color goes into an attribute unescaped, so it must be this.
_COLOR = re.compile(r"#[0-9a-fA-F]{6}")


@dataclass(frozen=True)
class Curve:
    label: str
    x: np.ndarray
    y: np.ndarray
    color: str = DEFAULT_COLOR

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if not _COLOR.fullmatch(self.color):
            raise ValueError(f"curve {self.label!r}: color {self.color!r} is not #rrggbb")
        if x.ndim != 1 or x.shape != y.shape or x.size == 0:
            raise ValueError(f"curve {self.label!r}: x and y must be equal-length 1-D, non-empty")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError(f"curve {self.label!r} contains non-finite points")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


def isometric_projection(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project (N, 3) states onto a fixed isometric view plane.

    u spreads x against y, v mixes their mean with height, giving the usual
    corner-on view of an attractor without any perspective parameters.
    """
    st = np.asarray(states, dtype=float)
    u = (st[:, 0] - st[:, 1]) * (np.sqrt(3.0) / 2.0)
    v = (st[:, 0] + st[:, 1]) * 0.5 - st[:, 2]
    return u, v


def geometry_views(states: np.ndarray, label: str, color: str) -> dict[str, tuple[Curve, str, str]]:
    """The four geometry views of (N, 3) states, keyed by file stem in
    drawing order: the isometric projection, then the x-y, x-z and y-z
    planes, each as (curve, x_label, y_label)."""
    st = np.asarray(states, dtype=float)
    u, v = isometric_projection(st)
    return {
        "traj3d": (Curve(label, u, v, color), "u (iso)", "v (iso)"),
        "xy": (Curve(label, st[:, 0], st[:, 1], color), "x", "y"),
        "xz": (Curve(label, st[:, 0], st[:, 2], color), "x", "z"),
        "yz": (Curve(label, st[:, 1], st[:, 2], color), "y", "z"),
    }


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick(v: float) -> str:
    return f"{v:.6g}"


def _escape(text: str) -> str:
    """`text` as XML character data.  Not `xml.sax.saxutils.escape`, whose
    import pulls in `urllib.request` and several MB."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


@functools.cache
def _words() -> np.ndarray:
    """The read-only text of k/100 for k = 0..99999, one uint64 word each:
    the integer digits right-aligned in bytes 0-2 (a dropped leading digit
    is a zero byte), then ".dd"; bytes 6 and 7 are zero.  800 KB, built on
    the first plot and kept.  Word k is hundreds[k // 100] | cents[k % 100],
    both written as bytes, so the text does not depend on byte order."""
    hundreds = b"".join(b"%3d.\0\0\0\0" % i for i in range(1000)).replace(b" ", b"\0")
    cents = b"".join(b"\0\0\0\0%02d\0\0" % i for i in range(100))
    words = (np.frombuffer(hundreds, np.uint64)[:, None] | np.frombuffer(cents, np.uint64)).ravel()
    words.flags.writeable = False
    return words


# "," after a point's x and " " after its y, in byte 6 of the word.
_COMMA, _SPACE = np.frombuffer(b"\0\0\0\0\0\0,\0\0\0\0\0\0\0 \0", np.uint64)


def _pairs(v: np.ndarray) -> bytes:
    """`"%.2f,%.2f " * n % tuple(v)` without its final space, as ASCII
    bytes, for the interleaved pixel values v of n points, each
    0 <= v < 999.995: each value's word from `_words` (the 800 KB table,
    built on the first call), its separator ORed in, and every zero byte
    dropped."""
    w = v * 100.0
    if not (v.min() >= 0.0 and w.max() < 99999.5):
        raise ValueError("pixel coordinate outside [0, 999.995)")
    n = np.rint(w)
    # At a tie of w, v * 100 is w + err exactly (Veltkamp split, Dekker
    # product; 100 has 7 bits), and a nonzero err says which way v rounds.
    tie = np.flatnonzero(abs(w - n) == 0.5)
    c = v[tie] * 134217729.0
    hi = c - (c - v[tie])
    err = (hi * 100.0 - w[tie]) + (v[tie] - hi) * 100.0
    n[tie] = np.where(err == 0.0, n[tie], np.floor(w[tie]) + (err > 0.0))
    out = _words()[n.astype(np.intp)].reshape(-1, 2)
    out[:, 0] |= _COMMA
    out[:, 1] |= _SPACE
    return out.tobytes().translate(None, b"\0")[:-1]


def export_svg(
    curves: list[Curve] | tuple[Curve, ...],
    path: str | Path,
    *,
    x_label: str,
    y_label: str,
    title: str = "",
) -> Path:
    if not curves:
        raise ValueError("export_svg needs at least one curve")
    path = Path(path)

    # Each curve's extent, once: the plot's extent and the single-point test read it.
    extents = [
        (float(c.x.min()), float(c.x.max()), float(c.y.min()), float(c.y.max())) for c in curves
    ]
    xmin = min(e[0] for e in extents)
    xmax = max(e[1] for e in extents)
    ymin = min(e[2] for e in extents)
    ymax = max(e[3] for e in extents)
    # A zero extent is padded by 1, or by an ulp where 1 would not move it.
    if xmax == xmin:
        xmin, xmax = xmin - max(1.0, math.ulp(xmin)), xmax + max(1.0, math.ulp(xmax))
    if ymax == ymin:
        ymin, ymax = ymin - max(1.0, math.ulp(ymin)), ymax + max(1.0, math.ulp(ymax))

    mx0, mx1 = 0.1 * WIDTH, 0.9 * WIDTH
    my0, my1 = 0.1 * HEIGHT, 0.9 * HEIGHT
    sx = (mx1 - mx0) / (xmax - xmin)
    sy = (my1 - my0) / (ymax - ymin)
    # An overflowing extent gives a zero scale, a subnormal one an infinite scale.
    for axis, lo, hi, scale in (("x", xmin, xmax, sx), ("y", ymin, ymax, sy)):
        if not 0.0 < scale < math.inf:
            raise ValueError(f"{axis} extent [{lo!r}, {hi!r}] has no finite pixel scale")

    parts: list[bytes] = []

    def put(line: str) -> None:
        parts.append(line.encode("ascii"))

    put(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">'
    )
    put(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>')
    axis = f'stroke="#404040" stroke-width="1"'
    put(f'<line x1="{_fmt(mx0)}" y1="{_fmt(my0)}" x2="{_fmt(mx0)}" y2="{_fmt(my1)}" {axis}/>')
    put(f'<line x1="{_fmt(mx0)}" y1="{_fmt(my1)}" x2="{_fmt(mx1)}" y2="{_fmt(my1)}" {axis}/>')
    text = 'font-family="monospace" font-size="12" fill="#202020"'
    put(f'<text x="{_fmt(mx0)}" y="{_fmt(my1 + 16)}" {text}>{_tick(xmin)}</text>')
    put(f'<text x="{_fmt(mx1)}" y="{_fmt(my1 + 16)}" text-anchor="end" {text}>{_tick(xmax)}</text>')
    put(f'<text x="{_fmt(mx0 - 6)}" y="{_fmt(my1)}" text-anchor="end" {text}>{_tick(ymin)}</text>')
    put(
        f'<text x="{_fmt(mx0 - 6)}" y="{_fmt(my0 + 10)}" text-anchor="end" {text}>{_tick(ymax)}</text>'
    )
    put(
        f'<text x="{_fmt((mx0 + mx1) / 2)}" y="{_fmt(HEIGHT - 12)}" text-anchor="middle" '
        f"{text}>{_escape(x_label)}</text>"
    )
    put(
        f'<text x="16" y="{_fmt((my0 + my1) / 2)}" text-anchor="middle" {text} '
        f'transform="rotate(-90 16 {_fmt((my0 + my1) / 2)})">{_escape(y_label)}</text>'
    )
    if title:
        put(
            f'<text x="{_fmt((mx0 + mx1) / 2)}" y="{_fmt(my0 - 10)}" text-anchor="middle" '
            f"{text}>{_escape(title)}</text>"
        )

    for c, (x0, x1, y0, y1) in zip(curves, extents):
        # Element-wise, in this order, so each pixel is the scalar formula's double.
        xs = mx0 + (c.x - xmin) * sx
        ys = my1 - (c.y - ymin) * sy
        if x0 == x1 and y0 == y1:
            put(
                f'<circle cx="{_fmt(float(xs[0]))}" cy="{_fmt(float(ys[0]))}" '
                f'r="3" fill="{c.color}"/>'
            )
            continue
        parts.append(
            b'<polyline points="' + _pairs(np.column_stack((xs, ys)).ravel())
            + f'" fill="none" stroke="{c.color}" stroke-width="1"/>'.encode("ascii")
        )

    for i, c in enumerate([c for c in curves if c.label]):
        ly = my0 + 14 + 16 * i
        put(
            f'<line x1="{_fmt(mx1 - 150)}" y1="{_fmt(ly - 4)}" x2="{_fmt(mx1 - 126)}" '
            f'y2="{_fmt(ly - 4)}" stroke="{c.color}" stroke-width="2"/>'
        )
        put(f'<text x="{_fmt(mx1 - 120)}" y="{_fmt(ly)}" {text}>{_escape(c.label)}</text>')

    parts.append(b"</svg>\n")
    path.write_bytes(b"\n".join(parts))
    return path
