"""Deterministic integration of the quadratic field with dense sampling.

Two drivers: a Taylor-series driver, which solves every run, and classical
fixed-step RK4 for convergence studies and criterion 1's reference (the
Lyapunov estimators step with its straight-line copy, `analysis._carry`).
A run is two settings: one tolerance (absolute and relative) and the
sample count.  Samples are spaced by the clock: geometrically in t on a
gauged clock, whose spans cover decades from t0 > 0, and linearly on the
identity clock.

Taylor steps.  The field f = (a(y - x), x(b - z) - y, xy - cz) is
quadratic, so the Taylor coefficients of the orbit through a point follow
exactly from Cauchy products (Corliss & Chang, ACM TOMS 8, 1982; Jorba &
Zou, Experimental Math. 14, 2005):

    X_{k+1} = a (Y_k - X_k) / (k + 1)
    Y_{k+1} = (b X_k - Y_k - sum_i X_i Z_{k-i}) / (k + 1)
    Z_{k+1} = (sum_i X_i Y_{k-i} - c Z_k) / (k + 1)

Each step builds them to the order p = ceil(-ln(tol) / 2) + 1 (12 at tol
1e-9) and takes h = min((eps / |X_{p-1}|)**(1/(p-1)), (eps / |X_p|)**(1/p))
with eps = tol (1 + |x|), in max norms; it rejects nothing.  So the step
count grows like tol**(-1/p), which the order itself follows, and a run at
tol 1e-12 costs about what one at 1e-9 does.  Where both last coefficients
vanish, a zero field above all, no bound applies: the one step has
h = inf and its polynomial is the orbit for all time.  The stepping loop
of each order is one generated function: Python source generated from p
alone, whose step (the coefficients, h and Horner at h) is straight-line
code with every coefficient a local and every Cauchy sum and norm written
out, and whose loop keeps the step budget, the floor, the record and the
settle check below.  It is compiled on the first solve at that order and
cached for the process (`_kernel`).  Rows come from Horner
on the polynomial of the step that brackets them, evaluated over arrays
after the solve from a record of such steps: one table, allocated with a
row per sample, since each recorded step passes one.  The step sequence
depends only on the field, the start point and the tolerance, not on the
samples or the end, so one solve can serve several sample grids.  Each
grid brings the t and s columns its run carries, and its rows and step
counts are read off the record after the solve.
Every run solves in scaled time; `integrate_direct_t` solves the gauged
field in ordinary t by fixed-step RK4, as criterion 1's reference.

Sample clocks.  The grids of a solve are its clocks: for each gauge of a
(gauges, span, samples) key, the sigma-instants, the t column and the s
column.  They are inputs of the solve, the same on every call, so each is
built once per process and kept, read-only, in a small LRU cache
(`_clock`); one `scale_grid` pass maps the key's t grid under every gauge.
The span is keyed on its bits, so (-6.0, -0.0) and (-6.0, 0.0) get clocks
of their own.  `check_run`, the one check of a run's span and settings,
runs on every call, before the cache is read, and each run gets its own
writable copy of its two time columns.

Settled tail.  A solve of the quadratic field (`integrate_sl_gauges`,
hence every run) stops stepping once a step ends close to a stable
equilibrium x* (a "stable node" or "stable focus-node" of the
`analysis.conjecture_report` table): every later sample comes from the
exact linear flow there,

    x(sigma) = x* + V exp(Lambda (sigma - sigma_1)) V^-1 (x(sigma_1) - x*),

with the spectrum Lambda and eigenvectors V of the Jacobian at x* from one
LAPACK decomposition (`analysis.stable_tails`).  Near a stable equilibrium
an explicit step is held by its stability region, not by the tolerance, so
this is where a long run would spend almost all of its steps.  "Close" is
within the tail's convergence radius, cut to where the part of the field
the linear flow leaves out moves no later sample by more than 1e-2 * tol:
with d = x - x*, leading real part -alpha < 0 and eigenbasis condition K, the
flow is off by at most 2 K**3 |d|**2 / alpha (`StableTail.switch_radius2`).
Equilibria with a near-singular eigenbasis (coalescing eigenvalues) get no
switch; nor do saddles, marginal points and unstable points, where the run
keeps stepping.  The switch point depends only on the field, the start
point and the tolerance, so the prefix property above holds, and a grid
that ends after the switch gets the step count reached at it, the final one.

All state arithmetic is double precision in a fixed order, element by
element in arrays too, so identical inputs produce bit-identical trajectories.
RK4's right-hand sides are callables rhs(t, (x, y, z)) -> (fx, fy, fz), as
produced by `dynamics.make_field` and `timegauge.make_gauged_field`.
"""

from __future__ import annotations

import functools
import math
import struct
from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

# Unused here, `make_field` and `unscale_time` are targets of slbench's
# `dynamics.field` and `timegauge.map` trace hooks.
from .dynamics import State3, SystemParams, make_field
from .timegauge import Gauge, make_gauged_field, scale_grid, scale_time, unscale_time

if TYPE_CHECKING:
    from .analysis import StableTail

__all__ = [
    "check_run",
    "IntegrationMeta",
    "Trajectory",
    "IntegrationError",
    "rk4_step",
    "integrate_fixed",
    "integrate_sl",
    "integrate_sl_gauges",
    "integrate_direct_t",
]

RHS = Callable[[float, tuple[float, float, float]], tuple[float, float, float]]


def check_run(
    gauges: Sequence[Gauge | None], span: tuple[float, float], tol: float, samples: int
) -> tuple[float, float, float, int]:
    """The inputs of a run under the clocks of `gauges` as (t0, t1, tol,
    samples), floats and an int, or ValueError: the one check of a run's
    span and settings, made before any clock is built or step taken.

    Outside tol in [1e-15, 1e-1] a solve misses its tolerance on the
    z-axis: by 6.7 * tol at 1e-16 and 1.1 * tol at 1.  At tol 1
    lorenz-standard fails with a step-size underflow at t = 2.26, and tol
    1e300 would allow one step of h = 2.9e149 off its attractor.  `samples`
    must be a whole number, at least 2.  The span needs finite t0 < t1, and
    a gauged one 0 < t0: the direct factor t**(-D) is singular at the
    origin and the gauge map is not invertible there.  No instant may
    overflow: neither the span's length t1 - t0 nor, on a gauged clock,
    the scaled time of t1, its largest instant (the map is increasing)."""
    tol = float(tol)
    if not 1e-15 <= tol <= 1e-1:
        raise ValueError(f"tol must be in [1e-15, 1e-1], got {tol!r}")
    if not isinstance(samples, (int, np.integer)) and not float(samples).is_integer():
        raise ValueError(f"sample_count must be an integer, got {samples!r}")
    if int(samples) < 2:
        raise ValueError(f"sample_count must be >= 2, got {samples!r}")
    t0, t1 = (float(span[0]), float(span[1]))
    if not (math.isfinite(t0) and math.isfinite(t1) and t1 > t0):
        raise ValueError(f"span must be finite with t1 > t0, got [{t0!r}, {t1!r}]")
    gauged = [gauge for gauge in gauges if gauge is not None]
    if gauged and t0 <= 0.0:
        raise ValueError(f"SL span must start at t0 > 0 (0 < t0 < t1), got [{t0!r}, {t1!r}]")
    if not math.isfinite(t1 - t0):
        raise ValueError(f"span [{t0!r}, {t1!r}] is too long: t1 - t0 overflows")
    for gauge in gauged:
        with np.errstate(over="ignore"):
            end = scale_time(gauge, t1)
        if not math.isfinite(end):
            raise ValueError(
                f"span [{t0!r}, {t1!r}] overflows the scaled time of gauge mu = {gauge.mu!r}, D = {gauge.D!r}"
            )
    return t0, t1, tol, int(samples)


@dataclass(frozen=True)
class IntegrationMeta:
    """Step accounting for a finished run.  `tol` is the run's tolerance,
    absolute and relative, also on criterion 1's RK4 reference; None for
    other fixed-step output and for trajectories read back from CSV.  The
    clock is not recorded: the s column carries it; the report names it `gauge`."""

    steps_taken: int
    steps_rejected: int
    method: str
    tol: float | None = None


@dataclass(eq=False)
class Trajectory:
    """Sampled solution: ordinary-time column t, scaled-time column s, and
    an (N, 3) state array, all equal length with strictly increasing time
    columns and finite states.

    Equality compares the sample columns only.  Metadata is provenance, and
    a trajectory written to CSV and read back must compare equal to the
    original even though the file cannot carry step counts.
    """

    t: np.ndarray
    s: np.ndarray
    states: np.ndarray
    meta: IntegrationMeta

    def __post_init__(self) -> None:
        self.t = np.asarray(self.t, dtype=float)
        self.s = np.asarray(self.s, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.t.ndim != 1 or self.t.size == 0:
            raise ValueError("trajectory needs at least one sample")
        if self.s.shape != self.t.shape or self.states.shape != (self.t.size, 3):
            raise ValueError(
                f"column shapes disagree: t {self.t.shape}, s {self.s.shape}, "
                f"states {self.states.shape}"
            )
        for name, col in (("t", self.t), ("s", self.s)):
            if not np.all(np.isfinite(col)):
                raise ValueError(f"{name} column contains non-finite entries")
            if col.size > 1 and not np.all(np.diff(col) > 0.0):
                raise ValueError(f"{name} column must be strictly increasing")
        if not np.all(np.isfinite(self.states)):
            raise ValueError("states contain non-finite entries")

    def __len__(self) -> int:
        return int(self.t.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return (
            np.array_equal(self.t, other.t)
            and np.array_equal(self.s, other.s)
            and np.array_equal(self.states, other.states)
        )


class IntegrationError(RuntimeError):
    """Raised when a run cannot continue: a non-finite start or state, an
    exhausted step budget, or step-size underflow.  Carries the index of the
    failing step and the trajectory accumulated so far (when available)."""

    def __init__(
        self,
        message: str,
        step_index: int | None = None,
        partial: Trajectory | None = None,
    ) -> None:
        super().__init__(message)
        self.step_index = step_index
        self.partial = partial


# ---------------------------------------------------------------------------
# classical RK4
# ---------------------------------------------------------------------------


def rk4_step(
    rhs: RHS, t: float, state: Sequence[float], h: float
) -> tuple[float, float, float]:
    """One classical fourth-order step from (t, state) with width h."""
    x, y, z = state
    hh = 0.5 * h
    k1x, k1y, k1z = rhs(t, (x, y, z))
    th = t + hh
    k2x, k2y, k2z = rhs(th, (x + hh * k1x, y + hh * k1y, z + hh * k1z))
    k3x, k3y, k3z = rhs(th, (x + hh * k2x, y + hh * k2y, z + hh * k2z))
    te = t + h
    k4x, k4y, k4z = rhs(te, (x + h * k3x, y + h * k3y, z + h * k3z))
    w = h / 6.0
    nx = x + w * (k1x + 2.0 * (k2x + k3x) + k4x)
    ny = y + w * (k1y + 2.0 * (k2y + k3y) + k4y)
    nz = z + w * (k1z + 2.0 * (k2z + k3z) + k4z)
    # A non-finite stage propagates into the update, so one check suffices.
    if not (math.isfinite(nx) and math.isfinite(ny) and math.isfinite(nz)):
        raise IntegrationError(f"non-finite state while stepping from t = {t!r}")
    return (nx, ny, nz)


def integrate_fixed(
    rhs: RHS,
    t0: float,
    t1: float,
    x0: State3 | Sequence[float],
    n_steps: int,
) -> Trajectory:
    """Uniform-step RK4 over [t0, t1], sampling every step endpoint.

    Step endpoints are computed as t0 + i*h (not accumulated), with the last
    endpoint pinned to exactly t1.
    """
    t0 = float(t0)
    t1 = float(t1)
    if not (math.isfinite(t0) and math.isfinite(t1) and t1 > t0):
        raise ValueError(f"need finite t1 > t0, got [{t0!r}, {t1!r}]")
    n = int(n_steps)
    if n < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps!r}")

    h = (t1 - t0) / n
    times = [t0 + i * h for i in range(n)]
    times.append(t1)
    states: list[tuple[float, float, float]] = [tuple(float(v) for v in x0)]
    y = states[0]
    if not all(map(math.isfinite, y)):
        raise IntegrationError(f"non-finite initial state {y!r}", 0)
    for i in range(n):
        try:
            y = rk4_step(rhs, times[i], y, times[i + 1] - times[i])
        except IntegrationError as exc:
            partial = Trajectory(
                np.asarray(times[: i + 1]),
                np.asarray(times[: i + 1]),
                np.asarray(states),
                IntegrationMeta(i, 0, "rk4"),
            )
            raise IntegrationError(str(exc), step_index=i, partial=partial) from None
        states.append(y)

    arr_t = np.asarray(times)
    return Trajectory(
        arr_t,
        arr_t.copy(),
        np.asarray(states),
        IntegrationMeta(n, 0, "rk4"),
    )


# ---------------------------------------------------------------------------
# Taylor series of the quadratic field
# ---------------------------------------------------------------------------

# Steps before a run gives up.
_MAX_STEPS = 10_000_000


def _order(tol: float) -> int:
    """The series order at `tol`: ceil(-ln(tol) / 2) + 1, at least 2 (Jorba &
    Zou's rule; 12 at tol 1e-9)."""
    return max(2, math.ceil(-0.5 * math.log(tol)) + 1)


# p <= 19 for any tol >= 1e-15 (`check_run`), so the cache stays bounded.
@functools.cache
def _kernel(p: int) -> Callable:
    """The Taylor solve of order p: the stepping loop of `_adaptive_solve`,
    compiled from source generated from p alone, with every coefficient a
    local and every Cauchy sum written out.

    `solve(a, b, c, tol, x0, y0, z0, merged, table, near, max_steps)` steps
    the field of (a, b, c) from (x0, y0, z0) at t = 0 until a step passes
    `merged[-2]`, the last of the sorted instants before the end marker inf.
    Each step that passes an instant packs t, h, the step count at its end
    and the coefficients x0..xp, y0..yp, z0..zp into the next row of
    `table`, the record.  It returns the time reached, the rows recorded,
    the steps taken, the settled tail as (tail, t, state) or None, and the
    message of an early stop ("" if none).

    Every sum starts from 0.0, so a -0.0 first term adds to +0.0, and runs
    in the order i = 0..k of the recurrence's sum_i.  Each norm is
    max(abs(u), abs(v), abs(w)) written out, with the builtin's choices: the
    first of equal values wins, and a NaN wins only in first place.  A -0.0
    that abs would make +0.0 changes neither eps nor a test against 0.0."""

    def cauchy(u: str, v: str, k: int) -> str:
        return " + ".join(["(0.0"] + [f"{u}{i} * {v}{k - i}" for i in range(k + 1)]) + ")"

    def norm(k: int) -> list[str]:
        lines = [f"n = -x{k} if x{k} < 0.0 else x{k}"]
        for v in "yz":
            lines += [f"m = -{v}{k} if {v}{k} < 0.0 else {v}{k}", "if m > n: n = m"]
        return lines

    body = [
        "if accepted >= max_steps:",
        "    message = f'step budget of {max_steps} exhausted at t = {t!r}'",
        "    break",
    ]
    for k in range(p):
        f = [f"a * (y{k} - x{k})", f"b * x{k} - y{k} - {cauchy('x', 'z', k)}", f"{cauchy('x', 'y', k)} - c * z{k}"]
        # Dividing by 1 is the identity and by 2**j is multiplying by
        # 2**-j: exact either way, so the bits are those of the division.
        j = k + 1
        scale = "" if j == 1 else f" * {1.0 / j!r}" if j & (j - 1) == 0 else f" / {float(j)!r}"
        body.append(f"x{j}, y{j}, z{j} = " + ", ".join(f"({e}){scale}" for e in f))
    # h from the last two coefficients (Jorba & Zou); where both vanish, a
    # zero field above all, the polynomial is the orbit for all time.  A NaN
    # bound (NaN != NaN) is kept, so it fails the floor.
    body += [*norm(0), "eps = tol + tol * n", "h = inf"]
    for k in (p - 1, p):
        body += [
            *norm(k),
            "if n != 0.0:",
            f"    hk = (eps / n) ** {1.0 / k!r}",
            "    h = hk if hk < h or hk != hk else h",
        ]
    # The floor, 1e-14*max(1, t), is near where t + h stops moving t.
    body += [
        "if not h >= (1e-14 * t if t > 1.0 else 1e-14):",
        "    message = (",
        "        f'step size underflow (h = {h!r}) at t = {t!r}; '",
        "        'the Taylor coefficients are too large for any step at this tolerance'",
        "    )",
        "    break",
    ]
    # Horner, one statement per order: nested, it would pass the parser's
    # limit of 200 parentheses past p = 200.
    body.append(f"xn, yn, zn = x{p}, y{p}, z{p}")
    body += [f"xn, yn, zn = xn * h + x{k}, yn * h + y{k}, zn * h + z{k}" for k in range(p - 1, -1, -1)]
    # u - u is 0.0 for finite u and NaN for an infinite or NaN one.
    body += [
        "if h < inf and not (xn - xn == 0.0 and yn - yn == 0.0 and zn - zn == 0.0):",
        "    message = f'non-finite state while stepping from t = {t!r}'",
        "    break",
        "accepted += 1",
        "tn = t + h",
        "if next_t <= tn:",
        f"    at = {8 * (3 * p + 6)} * recorded",
    ]
    # The row is packed 28 values at a time: a call of more than 30
    # arguments compiles to a list build and a starred call.
    values = ["t", "h", "accepted", *(f"{v}{k}" for v in "xyz" for k in range(p + 1))]
    packs = {}
    for i in range(0, len(values), 28):
        part = values[i : i + 28]
        packs[f"pack{i}"] = struct.Struct(f"{len(part)}d").pack_into
        body.append(f"    pack{i}(table, {f'at + {8 * i}' if i else 'at'}, {', '.join(part)})")
    body += [
        "    recorded += 1",
        "    next_t = merged[bisect_right(merged, tn, 0, last)]",
        "t = tn",
        "if h == inf:",
        "    break",
        "x0, y0, z0 = xn, yn, zn",
        "for px, py, pz, r2, tail in near:",
        "    dx, dy, dz = x0 - px, y0 - py, z0 - pz",
        "    if dx * dx + dy * dy + dz * dz <= r2:",
        "        settled = (tail, t, (x0, y0, z0))",
        "        next_t = inf",
        "        break",
    ]
    src = [
        "def solve(a, b, c, tol, x0, y0, z0, merged, table, near, max_steps):",
        "    last = len(merged) - 1",
        "    t = 0.0",
        "    next_t = merged[bisect_right(merged, t, 0, last)]",
        "    recorded = accepted = 0",
        "    settled = None",
        "    message = ''",
        "    while next_t < inf:",
        *(f"        {line}" for line in body),
        "    return t, recorded, accepted, settled, message",
    ]
    name = f"<slchaos.integrate taylor solve p={p}>"
    scope = {"inf": math.inf, "bisect_right": bisect_right, **packs}
    exec(compile("\n".join(src), name, "exec"), scope)
    return scope["solve"]


def _dense(steps: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The rows at `times`, each by Horner on the Taylor polynomial of the
    first row of `steps` to end at or after it, 2,048 samples at a time.  A
    row of `steps` is t, h, the step count at its end and the coefficients
    X_0..X_p, Y_0..Y_p, Z_0..Z_p.  A sample on a step's end t + h is
    evaluated at h itself, not at (t + h) - t, so its row is bit-equal to
    the end state the step went on from."""
    rows = np.empty((times.size, 3))
    ends = steps[:, 0] + steps[:, 1]
    at = np.searchsorted(ends, times)
    width = steps.shape[1] // 3 - 1
    # by_order[k] is the (step, 3) array of order-k terms.  The gather below
    # copies a block's steps out of it order by order, so each order's terms
    # are contiguous for the Horner loop.
    by_order = steps[:, 3:].reshape(len(steps), 3, width).transpose(2, 0, 1)
    for a in range(0, times.size, 2048):
        part = slice(a, a + 2048)
        i = at[part]
        tau = np.where(times[part] == ends[i], steps[i, 1], times[part] - steps[i, 0])[:, None]
        # Order by order, in place on the block's rows.
        coeffs = by_order[:, i, :]
        y = rows[part]
        y[...] = coeffs[-1]
        for terms in coeffs[-2::-1]:
            y *= tau
            y += terms
    return rows


def _adaptive_solve(
    params: SystemParams,
    x0: Sequence[float],
    tol: float,
    grids: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
    tails: Sequence[StableTail] = (),
) -> list[Trajectory | IntegrationError]:
    """Core Taylor driver: one solve of dx/dt = f(x), the quadratic field of
    `params`, from x0 at t = 0, sampled on several grids.

    Each grid is a triple (instants, t column, s column) of equal-length
    arrays: the instants in the solve's variable, strictly increasing from
    0 and ending where the run ends, and the two time columns its run
    carries.  The solve never clips a step to land on an end: it steps
    until it has passed the last instant of every grid.  Rows sit exactly
    on the instants, read after the solve off the Taylor polynomial of the
    step that brackets them, kept in a record of such steps, so the steps
    taken depend on neither the grids nor their ends, and the rows of a
    solve to any end are bit-equal to those of a solve to a later one.
    Each recorded step passes at least one instant, so the record is one
    table with a row per instant; a loop that stops early leaves a message,
    and every grid's run is read off the table after the loop.  Entry i is
    grid i's run, or the IntegrationError that a solve on it alone raises,
    its rows so far as the partial.  A run's step count is the one the
    record holds for the first recorded step to end at or after its last
    instant, or, past every recorded step, the solve's final one.

    After each step the end point is checked against `tails`; the first
    step that ends within a tail's switch radius at `tol` is the last one,
    and every sample after it comes from that tail's linear flow, with the
    step count reached there.
    """
    # All samples and an end marker, which no lookup passes: a Python float
    # per instant, dropped as soon as the loop returns, before the runs are
    # built, so that it and their columns are never resident together.
    merged = sorted(np.concatenate([grid[0] for grid in grids]).tolist() + [math.inf])
    p = _order(tol)
    table = np.empty((len(merged) - 1, 3 * p + 6))
    start = tuple(float(v) for v in x0)
    if not all(map(math.isfinite, start)):
        return [IntegrationError(f"non-finite initial state {start!r}", 0) for _ in grids]
    near = [(*tail.point, tail.switch_radius2(tol), tail) for tail in tails]
    # The step budget is read per call, so a patch applies.
    t, recorded, accepted, settled, message = _kernel(p)(
        params.a, params.b, params.c, tol, *start, merged, table, near, _MAX_STEPS
    )
    del merged

    # Each grid's run, or for one left unfinished, `message` and its partial.
    steps = table[:recorded]
    runs: list[Trajectory | IntegrationError] = []
    for instants, t_col, s_col in grids:
        k = int(np.searchsorted(instants, t, side="right"))
        rows = np.empty((k if settled is None else instants.size, 3))
        rows[0] = start
        rows[1:k] = _dense(steps, instants[1:k])
        if k < len(rows):
            tail, s1, state = settled
            rows[k:] = tail.flow(s1, state, instants[k:])
        end = int(np.searchsorted(steps[:, 0] + steps[:, 1], instants[-1]))
        meta = IntegrationMeta(int(steps[end, 2]) if end < recorded else accepted, 0, "taylor", tol)
        n = len(rows)
        # The grids may be a cached clock's: each run gets its own columns.
        run = Trajectory(t_col[:n].copy(), s_col[:n].copy(), rows, meta)
        runs.append(run if n == instants.size else IntegrationError(message, accepted, run))
    return runs


# A clock holds two arrays of `samples` doubles per gauge and one t grid
# per kind of clock: 176 KB for five gauges at 2,000 samples, so sixteen
# such clocks hold under 3 MB.
@functools.lru_cache(maxsize=16)
def _clock(
    gauges: tuple[Gauge | None, ...], t0: str, t1: str, samples: int
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """The sample clock of each of `gauges` on the span [t0, t1] that
    `check_run` passed, given as `float.hex` strings: (instants, t column,
    s column), read-only.  The t grid is geometric on a gauged
    clock and linear on the identity clock, and one `scale_grid` pass maps
    it under every gauge.  The instants are s - s[0].

    The span is keyed on its bits, not on float equality, so that -0.0 and
    0.0 get clocks of their own."""
    start, end = float.fromhex(t0), float.fromhex(t1)
    gauged = [gauge for gauge in gauges if gauge is not None]
    geometric = np.geomspace(start, end, samples) if gauged else None
    linear = np.linspace(start, end, samples) if None in gauges else None
    mapped = iter(scale_grid(gauged, geometric) if gauged else ())
    clocks = []
    for gauge in gauges:
        t, s = (linear, linear) if gauge is None else (geometric, next(mapped))
        clocks.append((s - s[0], t, s))
    for arrays in clocks:
        for array in arrays:
            array.flags.writeable = False
    return tuple(clocks)


def integrate_sl(
    params: SystemParams,
    gauge: Gauge | None,
    span: tuple[float, float],
    x0: State3 | Sequence[float],
    tol: float = 1e-9,
    samples: int = 2000,
) -> Trajectory:
    """Integrate the quadratic field with coefficients `params` over an
    ordinary-time span, on the clock of `gauge`, to `samples` rows.

    This is the one solve entry of every run: `integrate_sl_gauges` with
    one clock, which solves the autonomous dx/ds = f over the image of the
    span under the gauge.  With `gauge` None the clock is the identity,
    s = t (a Lorenz run), and the span may start at any finite t0.  Each row
    carries both times, related by the clock.
    """
    run = integrate_sl_gauges(params, [gauge], span, x0, tol, samples)[0]
    if isinstance(run, IntegrationError):
        raise run
    return run


def integrate_sl_gauges(
    params: SystemParams,
    gauges: Sequence[Gauge | None],
    span: tuple[float, float],
    x0: State3 | Sequence[float],
    tol: float = 1e-9,
    samples: int = 2000,
) -> list[Trajectory | IntegrationError]:
    """Taylor runs of one orbit under several clocks, from one solve.

    Whatever the clock, the run solves the autonomous dx/ds = f from x0, in
    sigma = s - s_0 from 0; clocks change only the sigma-range and the
    sample instants sigma_k = s_k - s_0, where s_k is the clock's t grid
    mapped by the gauge (s_k = t_k for None, the identity clock).  So one
    solve to the largest sigma-range serves every clock, and since a
    solve to any end is a bit-equal prefix of a solve to a later one,
    entry i is exactly what `integrate_sl(params, gauges[i], span, x0,
    tol=tol, samples=samples)` returns, or the IntegrationError it raises,
    step counts included.  The s column is s_k.  The solve finishes on the
    settled tail of the module docstring.
    """
    # Imported here because `analysis` imports this module's `rk4_step`.
    from .analysis import stable_tails

    t0, t1, tol, samples = check_run(gauges, span, tol, samples)
    if not gauges:
        raise ValueError("integrate_sl_gauges needs at least one gauge (None for the identity clock)")
    clocks = _clock(tuple(gauges), t0.hex(), t1.hex(), samples)
    return _adaptive_solve(params, x0, tol, clocks, stable_tails(params))


def integrate_direct_t(
    params: SystemParams,
    gauge: Gauge,
    span: tuple[float, float],
    x0: State3 | Sequence[float],
    tol: float = 1e-9,
    samples: int = 2000,
) -> Trajectory:
    """Criterion 1's reference: dx/dt = lam * t**(-D) * f(x), the gauged
    equations of `timegauge.make_gauged_field`, solved in t (no settled
    tail) by fixed-step RK4 on `integrate_sl`'s t grid, with
    s = scale_time(gauge, t) beside each row: between samples k and k + 1,
    m_k = ceil(max(s_{k+1} - s_k, ln(t_{k+1} / t_k)) / tol**(1/4)) equal
    steps, the s bound for RK4's stability late and the ln t bound for the
    early transient.  No run takes it; the acceptance suite checks that the
    two agree rather than assuming it.  `gauge` None is a ValueError."""
    if gauge is None:
        raise ValueError("integrate_direct_t needs a gauge; the identity clock has no direct-t form")
    t0, t1, tol, samples = check_run([gauge], span, tol, samples)
    _, t, s = _clock((gauge,), t0.hex(), t1.hex(), samples)[0]
    t, s = t.copy(), s.copy()
    rhs = make_gauged_field(params, gauge)
    rows = [tuple(float(v) for v in x0)]
    steps = 0
    for k in range(samples - 1):
        m = math.ceil(max(s[k + 1] - s[k], math.log(t[k + 1] / t[k])) / tol**0.25)
        try:
            rows.append(integrate_fixed(rhs, t[k], t[k + 1], rows[-1], m).states[-1])
        except IntegrationError as exc:
            if exc.partial is None:  # a non-finite start
                raise
            steps += exc.step_index
            partial = Trajectory(t[: k + 1], s[: k + 1], rows, IntegrationMeta(steps, 0, "rk4", tol))
            raise IntegrationError(str(exc), steps, partial) from None
        steps += m
    return Trajectory(t, s, rows, IntegrationMeta(steps, 0, "rk4", tol))
