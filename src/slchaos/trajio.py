"""Trajectory CSV export and import.

Layout: header `t,s,x,y,z`, one row per sample, LF line endings, no
trailing whitespace.  Floats are written as their shortest round-tripping
decimal (Python repr), with the cosmetic exception that integral values
drop the trailing `.0` so a row like `1,0.9,0,0,0` stays clean.  Reading a
file produced by `write_trajectory_csv` recovers the sample columns
bit-exactly, and Trajectory equality is defined over exactly those columns.

The writer finds those digits in numpy, a block of rows at a time, and
writes what `format_float` gives, byte for byte.  The shortest decimal that
round-trips is the shortest one inside the double's rounding interval,
half an ulp either side (Steele & White 1990; Adams, "Ryu", 2018).  Each
|v| is scaled by 10^k, k = 16 - floor(log10 |v|), as an exact double-double
product, so w = |v| 10^k lies in [10^16, 10^17) and carries an error below
1e-13 in its last unit.  The 15-digit candidate nearest to w is kept when
it lies inside the scaled interval, else the nearest 16-digit one, else the
17-digit rounding of w.  That is repr's choice, the shortest and then the
nearest: no two 15-digit decimals round to one double, and the interval is
symmetric and at most 23 units wide.  The array path certifies every value
it writes.  `format_float` formats a value instead when one of its
decisions falls within `_MARGIN` (1e-9 units) of an interval edge or of a
tie between two candidates, and when the value is a power of two (its
interval is narrower below), subnormal, non-finite, or in a decade that
log10 misjudged.  Of the six registry runs' 60,000 values, only the 39
subnormals take that route.

The reader accepts only what the writer could have written: the header,
then lines of five fields over the alphabet `0-9 . + - e ,` and LF, with
finite values and strictly increasing `t` and `s`.  Anything else is a
`ValueError` naming the file and line.
"""

from __future__ import annotations

import functools
import io
import re
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .integrate import IntegrationMeta, Trajectory

__all__ = ["format_float", "write_trajectory_csv", "read_trajectory_csv", "CSV_HEADER"]

CSV_HEADER = "t,s,x,y,z"

# The `.0` that ends the repr of an integral value, at the end of a field.
_INTEGRAL_END = re.compile(r"\.0(?=[,\n]|\Z)")
# Rows per block: bounds the transient arrays to about 0.6 MB.
_BLOCK_ROWS = 512
# The bytes a CSV body may hold: what the writer writes.
_ALPHABET = b"0123456789.+-e,\n"
# Decisions closer than this (in units of the 17th digit) to an interval
# edge or a tie go to `format_float`; w's own error is below 1e-13 units.
_MARGIN = 1e-9
# Decimal exponents scaled by the table: 16 - floor(log10 |v|) over the
# normal doubles.
_K_MIN, _K_MAX = -292, 324
_SMALLEST_NORMAL = np.finfo(float).tiny
_MANTISSA = np.uint64(2**52 - 1)
_LARGEST = np.finfo(float).max

# One output cell per value, six 8-byte words: sign, the "0.000" lead of a
# small positional value, 16 digits for those up to the point, the point,
# the 17 digits again for those after it, "e", exponent sign and three
# digits, the separator and two pad bytes.  A keep mask, looked up by sign,
# layout class and digit count, picks the bytes of the value's text.
_LEAD, _HEAD, _POINT, _TAIL, _EXP, _SEP = 1, 6, 22, 23, 40, 45
_WIDTH = 48
# Layout classes: decades -4..15 print positionally (class decade + 4), the
# others in scientific form with two (class 20) or three (21) exponent digits.
_CLASSES = 22
_LEAD_WORD = np.frombuffer(b"-0.000\0\0", np.uint64)[0]


def format_float(v: float) -> str:
    """Shortest decimal string that round-trips to the same double."""
    return _INTEGRAL_END.sub("", repr(float(v)))


class _Tables(NamedTuple):
    pow10: np.ndarray  # ([hi, hi's Dekker halves, lo], k - _K_MIN)
    pow10_shift: np.ndarray  # b, with 10^k 2^-b in [1, 2)
    four_digits: np.ndarray  # uint32: the 4 ASCII digits of 0..9999
    trailing_zeros: np.ndarray  # of each 4-digit group, 4 for 0000
    exponent: np.ndarray  # uint64 (last field?, decade + 308): bytes _EXP to _WIDTH
    keep: np.ndarray  # (key, _WIDTH) bool, see `_format_block`


@functools.cache
def _tables() -> _Tables:
    """The writer's lookup tables, built on the first write (about 4 ms)."""
    pow10, shift = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        b = num.bit_length() - den.bit_length()
        if num << max(-b, 0) < den << max(b, 0):
            b -= 1
        num, den = num << max(-b, 0), den << max(b, 0)
        # hi is the double nearest to 10^k 2^-b and lo the double nearest to
        # the rest, so hi + lo is within 2^-106 relative of it.
        hi = num / den
        p, q = hi.as_integer_ratio()
        pow10.append((hi, (num * q - p * den) / (den * q)))
        shift.append(b)
    hi, lo = np.array(pow10).T
    split = hi * 134217729.0  # 2^27 + 1
    hi_hi = split - (split - hi)

    group = np.arange(10_000, dtype=np.int16)
    four_digits = np.empty((group.size, 4), np.uint8)
    trailing_zeros = np.zeros(group.size, np.int16)
    for i, unit in enumerate((1000, 100, 10, 1)):
        four_digits[:, i] = 48 + group // unit % 10
        trailing_zeros += group % (10 * unit) == 0
    decade = np.arange(-308, 309)
    exponent = np.zeros((2, decade.size, 8), np.uint8)
    exponent[..., 0] = ord("e")
    exponent[..., 1] = np.where(decade < 0, ord("-"), ord("+"))
    exponent[..., 2:5] = 48 + np.abs(decade)[:, None] // [100, 10, 1] % 10
    exponent[..., 5] = [[ord(",")], [ord("\n")]]

    # keep[sign, class, digits - 1, column]
    cls = np.arange(_CLASSES)[:, None, None]
    nd = np.arange(1, 18)[:, None]
    col = np.arange(_WIDTH)
    decade = cls - 4
    scientific = cls >= 20
    small = decade < 0
    point = np.where(scientific, 0, np.where(small, -1, decade))
    shown = np.where(scientific | small, nd, np.maximum(nd, decade + 1))
    keep = (
        (small & (col >= _LEAD) & (col < _LEAD + 1 - decade))
        | ((col >= _HEAD) & (col <= _HEAD + point))
        | ((col == _POINT) & (point >= 0) & (shown > point + 1))
        | ((col > _TAIL + point) & (col < _TAIL + shown))
        | (scientific & (col >= _EXP) & (col < _SEP) & ((col != _EXP + 2) | (cls == 21)))
        | (col == _SEP)
    )
    keep = np.stack((keep, keep | (col == 0)))
    tables = _Tables(
        pow10=np.stack((hi, hi_hi, hi - hi_hi, lo)),
        pow10_shift=np.array(shift),
        four_digits=four_digits.view(np.uint32).ravel(),
        trailing_zeros=trailing_zeros,
        exponent=exponent.view(np.uint64)[..., 0],
        keep=keep.reshape(-1, _WIDTH),
    )
    for arr in tables:
        arr.flags.writeable = False
    return tables


def _scaled(a: np.ndarray, decade: np.ndarray, tables: _Tables) -> tuple[np.ndarray, ...]:
    """w = a 10^(16 - decade) as n17 + rest, n17 the integer nearest to w and
    |rest| <= 1/2, and a's half-ulp scaled alike."""
    frac, exp2 = np.frexp(a)
    row = 16 - _K_MIN - decade
    hi, hi_hi, hi_lo, lo = np.take(tables.pow10, row, axis=1)
    scale = np.ldexp(1.0, exp2 + np.take(tables.pow10_shift, row))
    # frac (hi + lo) as p + q: Dekker's exact product frac * hi plus frac * lo.
    split = frac * 134217729.0
    f_hi = split - (split - frac)
    f_lo = frac - f_hi
    p = frac * hi
    q = ((f_hi * hi_hi - p) + f_hi * hi_lo + f_lo * hi_hi) + f_lo * hi_lo + frac * lo
    q *= scale
    rounded = np.rint(q)
    # p scale is an integer (w >= 2^53), and q - rounded is exact.
    return (p * scale).astype(np.int64) + rounded.astype(np.int64), q - rounded, hi * scale * 2.0**-54


def _nearest_shortest(n17: np.ndarray, rest: np.ndarray, half_ulp: np.ndarray) -> tuple[np.ndarray, ...]:
    """The 15-, else 16-, else 17-digit candidate nearest to w = n17 + rest
    inside its half-ulp interval, as a 17-digit integer, and whether each
    choice is clear of every edge and tie by `_MARGIN`."""
    inner = half_ulp - _MARGIN
    outer = half_ulp + _MARGIN
    # Offsets of w above the 15- and 16-digit candidates below it.
    below100 = n17 % 100
    below10 = below100 % 10
    off15 = below100 + rest
    off16 = below10 + rest
    dist15 = np.minimum(np.abs(off15), 100.0 - off15)
    dist16 = np.minimum(np.abs(off16), 10.0 - off16)
    in15 = dist15 < inner
    use16 = (dist16 < inner) & (np.abs(off16 - 5.0) > _MARGIN)
    use17 = (dist16 > outer) & (np.abs(rest) < 0.5 - _MARGIN)
    digits = n17 - np.where(
        in15, below100 - 100 * (off15 > 50.0), np.where(use16, below10 - 10 * (off16 > 5.0), 0)
    )
    return digits, in15 | ((dist15 > outer) & (use16 | use17))


def _shortest_digits(v: np.ndarray, tables: _Tables) -> tuple[np.ndarray, ...]:
    """repr's digits of each value as a 17-digit integer (0 for zero), its
    decade, and a mask of the values certified (the rest go to `format_float`)."""
    a = np.abs(v)
    # Normal and not a power of two, whose interval is narrower below.
    ok = (a >= _SMALLEST_NORMAL) & (a <= _LARGEST) & (v.view(np.uint64) & _MANTISSA != 0)
    a = np.where(ok, a, 1.5)
    decade = np.floor(np.log10(a)).astype(np.int64)
    n17, rest, half_ulp = _scaled(a, decade, tables)
    # A decade that log10 misjudged leaves w outside [10^16, 10^17).
    ok &= (n17 >= 10**16) & (n17 < 10**17 - 100)
    digits, clear = _nearest_shortest(n17, rest, half_ulp)
    zero = v == 0.0
    digits[zero] = 0
    decade[zero] = 0
    return digits, decade, (ok & clear) | zero


def _format_block(block: np.ndarray) -> np.ndarray:
    """The CSV rows of a (rows, 5) block, each value as `format_float` gives it."""
    tables = _tables()
    v = block.ravel()
    digits, decade, ok = _shortest_digits(v, tables)
    # The 17 digits in groups of four, the first "000d".
    top = digits // 10**8
    low = digits - top * 10**8
    groups = np.empty((v.size, 5), np.int32)
    groups[:, 0] = top // 10**8
    groups[:, 1] = top // 10**4 % 10**4
    groups[:, 2] = top % 10**4
    groups[:, 3] = low // 10**4
    groups[:, 4] = low % 10**4
    # Trailing zeros, group by group from the last; repr's digit count.
    zeros = np.take(tables.trailing_zeros, groups)
    trailing = zeros[:, 4]
    for g in (3, 2, 1, 0):
        trailing = np.where(trailing == 4 * (4 - g), trailing + zeros[:, g], trailing)
    nd = np.maximum(17 - trailing, 1)
    positional = (decade >= -4) & (decade < 16)
    layout = np.where(positional, decade + 4, np.where(np.abs(decade) < 100, 20, 21))
    key = (np.signbit(v) * _CLASSES + layout) * 17 + nd - 1

    text = np.take(tables.four_digits, groups).view(np.uint8)[:, 3:]
    out = np.empty((v.size, _WIDTH), np.uint8)
    words = out.view(np.uint64)
    words[:, 0] = _LEAD_WORD
    out[:, _HEAD:_POINT] = text[:, :16]
    out[:, _POINT] = ord(".")
    out[:, _TAIL:_EXP] = text
    exponent = words.reshape(-1, 5, _WIDTH // 8)[:, :, -1]
    decade = decade.reshape(-1, 5) + 308
    exponent[:, :4] = np.take(tables.exponent[0], decade[:, :4])
    exponent[:, 4] = np.take(tables.exponent[1], decade[:, 4])
    keep = np.take(tables.keep, key, axis=0)
    for i in np.flatnonzero(~ok):
        text_i = format_float(v[i]).encode("ascii")
        out[i, : len(text_i)] = np.frombuffer(text_i, np.uint8)
        keep[i, :_SEP] = np.arange(_SEP) < len(text_i)
    return out.ravel()[keep.ravel()]


def write_trajectory_csv(trajectory: Trajectory, path: str | Path) -> Path:
    path = Path(path)
    rows = np.column_stack((trajectory.t, trajectory.s, trajectory.states))
    with path.open("wb") as f:
        f.write(CSV_HEADER.encode("ascii") + b"\n")
        for start in range(0, len(rows), _BLOCK_ROWS):
            f.write(_format_block(rows[start : start + _BLOCK_ROWS]))
    return path


def _bad_row(path: Path, lines: list[bytes]) -> ValueError:
    """The error for the first line that is not five numbers."""
    for line_no, line in enumerate(lines, start=2):
        fields = line.split(b",")
        if len(fields) != 5:
            return ValueError(f"{path}:{line_no}: expected 5 fields, got {len(fields)}")
        for field in fields:
            try:
                float(field)
            except ValueError:
                return ValueError(f"{path}:{line_no}: could not convert string to float: {field.decode()!r}")
    return ValueError(f"{path}: sample rows do not parse")


def read_trajectory_csv(path: str | Path) -> Trajectory:
    """Read a CSV in the writer's format; any other input is a `path:line` error.

    The body may hold only the writer's alphabet, five fields a line, finite
    values and strictly increasing `t` and `s` columns.  The checks are one
    byte scan, numpy's parser and numpy reductions; a failed one looks for
    its line.
    """
    path = Path(path)
    header, _, body = path.read_bytes().partition(b"\n")
    if header != CSV_HEADER.encode("ascii"):
        raise ValueError(f"{path}: expected header {CSV_HEADER!r}")
    if not body:
        raise ValueError(f"{path}: no sample rows")
    if not body.endswith(b"\n"):
        body += b"\n"
    stray = body.translate(None, _ALPHABET)
    if stray:
        at = body.index(stray[:1])
        line_no = body.count(b"\n", 0, at) + 2
        raise ValueError(f"{path}:{line_no}: unexpected character {stray[:1]!r}")
    rows = body.count(b"\n")
    try:
        values = np.loadtxt(io.BytesIO(body), delimiter=",", ndmin=2)
    except ValueError:
        values = None
    # loadtxt skips blank lines, so a short result has one.
    if values is None or values.shape != (rows, 5):
        raise _bad_row(path, body.split(b"\n")[:-1])
    names = CSV_HEADER.split(",")
    infinite = np.flatnonzero(~np.isfinite(values.ravel()))
    if infinite.size:
        row, col = divmod(int(infinite[0]), 5)
        field = body.split(b"\n")[row].split(b",")[col].decode()
        raise ValueError(f"{path}:{row + 2}: {names[col]} = {field} is not finite")
    for col in (0, 1):
        stalls = np.flatnonzero(np.diff(values[:, col]) <= 0.0)
        if stalls.size:
            row = int(stalls[0]) + 1
            before, at = (line.split(b",")[col].decode() for line in body.split(b"\n")[row - 1 : row + 1])
            raise ValueError(f"{path}:{row + 2}: {names[col]} = {at} does not increase from {before}")
    return Trajectory(
        values[:, 0].copy(),
        values[:, 1].copy(),
        values[:, 2:].copy(),
        IntegrationMeta(0, 0, "imported"),
    )
