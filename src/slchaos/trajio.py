"""Trajectory CSV export and import.

Layout: header `t,s,x,y,z`, one row per sample, LF line endings, no
trailing whitespace.  Floats are written as their shortest round-tripping
decimal (Python repr), with the cosmetic exception that integral values
drop the trailing `.0` so a row like `1,0.9,0,0,0` stays clean.  Reading a
file produced by `write_trajectory_csv` recovers the sample columns
bit-exactly, and Trajectory equality is defined over exactly those columns.
The writer formats blocks of rows with one `%` call each and drops the
`.0` endings with the pattern `format_float` applies, which is byte for
byte what `format_float` gives on each value: the contract above holds.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .integrate import IntegrationMeta, Trajectory

__all__ = ["format_float", "write_trajectory_csv", "read_trajectory_csv", "CSV_HEADER"]

CSV_HEADER = "t,s,x,y,z"

# The `.0` that ends the repr of an integral value, at the end of a field.
_INTEGRAL_END = re.compile(r"\.0(?=[,\n]|\Z)")
# Rows per `%` call: bounds the Python floats alive at once.
_BLOCK_ROWS = 256


def format_float(v: float) -> str:
    """Shortest decimal string that round-trips to the same double."""
    return _INTEGRAL_END.sub("", repr(float(v)))


def write_trajectory_csv(trajectory: Trajectory, path: str | Path) -> Path:
    path = Path(path)
    rows = np.column_stack((trajectory.t, trajectory.s, trajectory.states))
    parts = [CSV_HEADER + "\n"]
    for block in np.split(rows, range(_BLOCK_ROWS, len(rows), _BLOCK_ROWS)):
        parts.append("%r,%r,%r,%r,%r\n" * len(block) % tuple(block.ravel().tolist()))
    path.write_bytes(_INTEGRAL_END.sub("", "".join(parts)).encode("ascii"))
    return path


def read_trajectory_csv(path: str | Path) -> Trajectory:
    path = Path(path)
    text = path.read_text(encoding="ascii")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: expected header {CSV_HEADER!r}")
    if len(lines) < 2:
        raise ValueError(f"{path}: no sample rows")
    t: list[float] = []
    s: list[float] = []
    states: list[tuple[float, float, float]] = []
    for ln, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 5:
            raise ValueError(f"{path}:{ln}: expected 5 fields, got {len(parts)}")
        try:
            vals = list(map(float, parts))
        except ValueError as exc:
            raise ValueError(f"{path}:{ln}: {exc}") from None
        t.append(vals[0])
        s.append(vals[1])
        states.append((vals[2], vals[3], vals[4]))
    return Trajectory(
        np.asarray(t),
        np.asarray(s),
        np.asarray(states),
        IntegrationMeta(0, 0, "imported"),
    )
