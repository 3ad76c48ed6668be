"""Deterministic Runge-Kutta integration with dense sampling.

Two drivers: classical fixed-step RK4 for convergence studies and the
twin-trajectory estimators, and an embedded Dormand-Prince 5(4) pair with
PI step-size control, which solves every run.  A run is two settings:
one tolerance (absolute and relative) and the sample count.  Samples are
spaced by the clock: geometrically in t on a gauged clock, whose spans
cover decades from t0 > 0, and linearly on the identity clock; off-step
samples come from the pair's own 4th-order continuous extension over the
bracketing step (Hairer, Norsett & Wanner, Solving ODEs I, II.6), built
from the seven stages in hand, evaluated over arrays after the solve from
a record of the steps that bracket a sample: one table, allocated with a
row per sample, since each such step passes one.  The DP54 step sequence
depends only on the field, the start point and the tolerances, not on the
samples or the end, so one solve can serve several sample grids.  Each
grid brings the t and s columns its run carries, and its rows and step
counts are read off the record after the solve.
Every run solves in scaled time; `integrate_direct_t` solves a gauged
field in ordinary t with the same driver, as criterion 1's reference.

Settled tail.  A DP54 solve of the quadratic field (`integrate_sl_gauges`,
hence every run) stops stepping once an accepted step ends close to a
stable equilibrium x* (a "stable node" or "stable focus-node" of the
`analysis.conjecture_report` table): every later sample comes from the
exact linear flow there,

    x(sigma) = x* + V exp(Lambda (sigma - sigma_1)) V^-1 (x(sigma_1) - x*),

with the closed-form spectrum Lambda and eigenvectors V of the Jacobian at
x* (`analysis.stable_tails`).  Near a stable equilibrium DP54's step is
held by its stability region, not by the tolerance, so this is where a
long run spent almost all of its steps.  "Close" is within the tail's
convergence radius, cut to where the part of the field the linear flow
leaves out moves no later sample by more than 1e-2 * tol: with
d = x - x*, leading real part -alpha < 0 and eigenbasis condition K, the
flow is off by at most 2 K**3 |d|**2 / alpha (`StableTail.switch_radius2`).
Equilibria with a near-singular eigenbasis (coalescing eigenvalues) get no
switch; nor do saddles, marginal points and unstable points, where the run
keeps stepping.  The switch point depends only on the field, the start
point and the tolerances, so the prefix property above holds, and a grid
that ends after the switch gets the step counts reached at it, the final ones.

All state arithmetic is double precision in a fixed order, element by
element in arrays too, so identical inputs produce bit-identical trajectories.
Right-hand sides are callables rhs(t, (x, y, z)) -> (fx, fy, fz), as
produced by `dynamics.make_field` and `timegauge.make_gauged_field`.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .dynamics import State3, SystemKind, SystemParams, make_field
# Unused here, `unscale_time` is a target of slbench's `timegauge.map` trace hook.
from .timegauge import Gauge, make_gauged_field, scale_time, unscale_time

if TYPE_CHECKING:
    from .analysis import StableTail

__all__ = [
    "check_settings",
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


def check_settings(tol: float, samples: int) -> tuple[float, int]:
    """The run settings `tol` and `samples` as float and int, or ValueError
    if either is out of range or `samples` is not a whole number."""
    tol = float(tol)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if not isinstance(samples, (int, np.integer)) and not float(samples).is_integer():
        raise ValueError(f"sample_count must be an integer, got {samples!r}")
    if int(samples) < 2:
        raise ValueError(f"sample_count must be >= 2, got {samples!r}")
    return tol, int(samples)


@dataclass(frozen=True)
class IntegrationMeta:
    """Step accounting for a finished run.  `tol` is the run's tolerance,
    absolute and relative; None for fixed-step output and for trajectories
    read back from CSV.  The clock is not recorded: the trajectory's s
    column carries it, and the analysis report names it as its `gauge`."""

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
    """Raised when a run cannot continue: a non-finite stage or state, an
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
# Dormand-Prince 5(4)
# ---------------------------------------------------------------------------

_C2, _C3, _C4, _C5 = 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0,
    -355.0 / 33.0,
    46732.0 / 5247.0,
    49.0 / 176.0,
    -5103.0 / 18656.0,
)
_B1, _B3, _B4, _B5, _B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71.0 / 57600.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)
# Dense output: the 4th-order continuous extension of the pair (Hairer's
# DOPRI5 `contd5`), its last coefficient weighting the seven stages.
_D1, _D3, _D4, _D5, _D6, _D7 = (
    -12715105075.0 / 11282082432.0,
    87487479700.0 / 32700410799.0,
    -10690763975.0 / 1880347072.0,
    701980252875.0 / 199316789632.0,
    -1453857185.0 / 822651844.0,
    69997945.0 / 29380423.0,
)

# PI controller: classic exponents for a 5th-order pair, the usual 0.9
# safety factor, growth clamped to [0.2, 5.0], plus the usual cap at 1.0
# right after a rejection.
_SAFETY = 0.9
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0
_FAC_MIN = 0.2
_FAC_MAX = 5.0
# Attempted steps before a run gives up.
_MAX_STEPS = 10_000_000


# The step record: per accepted step that brackets a sample, t, h, t + h,
# x, x_new, k1, k7, the extension's q sums and the accepted and rejected
# step counts at its end, one float64 row of a table with a row per sample.
_RECORD_ROW = struct.Struct("20d")


def _extension(steps: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The rows at `times`, past the first recorded step's start, from the
    continuous extension of the first row of `steps` to end at or after each
    (its end state where theta >= 1), 256 samples at a time."""
    rows = np.empty((times.size, 3))
    at = np.searchsorted(steps[:, 2], times)
    for a in range(0, times.size, 256):
        part = slice(a, a + 256)
        step = steps[at[part]].T
        x, xn, k1, k7, q = step[3:18].reshape(5, 3, -1)
        h = step[1]
        theta = (times[part] - step[0]) / h
        th1 = 1.0 - theta
        # y(t + theta*h) = x + theta*(dx + th1*(bx + theta*(cx + th1*q))), per component
        dx = xn - x
        bx = h * k1 - dx
        cx = dx - h * k7 - bx
        y = x + theta * (dx + th1 * (bx + theta * (cx + th1 * q)))
        rows[part] = np.where(theta >= 1.0, xn, y).T
    return rows


def _adaptive_solve(
    rhs: RHS,
    t0: float,
    x0: Sequence[float],
    tol: float,
    grids: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
    tails: Sequence[StableTail] = (),
) -> list[Trajectory | IntegrationError]:
    """Core DP54 driver: one solve from (t0, x0), sampled on several grids.

    Each grid is a triple (instants, t column, s column) of equal-length
    arrays: the instants in the solve's variable, strictly increasing from
    t0 and ending where the run ends, and the two time columns its run
    carries.  The solve never clips a step to land on an end: it steps
    until it has passed the last instant of every grid.  Rows sit exactly
    on the instants, read after the solve off the continuous extension of
    the step that brackets them, kept in a record of such steps, so the
    steps taken depend on neither the grids nor their ends, and the rows of
    a solve to any end are bit-equal to those of a solve to a later one.
    Each recorded step passes at least one instant, so the record is one
    table with a row per instant; a loop that stops early leaves a message,
    and every grid's run is read off the table after the loop.  Entry i is
    grid i's run, or the IntegrationError that a solve on it alone raises,
    its rows so far as the partial.  A run's step counts are those the
    record holds for the first recorded step to end at or after its last
    instant, or, past every recorded step, the solve's final ones.

    After each accepted step the end point is checked against `tails`; the
    first step that ends within a tail's switch radius at `tol` is the
    last one, and every sample after it comes from that tail's linear flow,
    with the step counts reached there.
    """
    # All samples and an end marker.
    merged = sorted(np.concatenate([grid[0] for grid in grids]).tolist() + [math.inf])
    table = np.empty((len(merged) - 1, 20))
    recorded = accepted = rejected = attempts = 0
    settled: tuple[StableTail, float, tuple[float, float, float]] | None = None
    message = ""

    x, y, z = start = tuple(float(v) for v in x0)
    k1x, k1y, k1z = rhs(t0, start)
    if not (math.isfinite(k1x) and math.isfinite(k1y) and math.isfinite(k1z)):
        return [IntegrationError(f"non-finite field at the initial point t = {t0!r}", 0) for _ in grids]
    next_t = merged[bisect_right(merged, t0)]

    # Hairer's first guess: a step that moves the scaled state by 1%.  It
    # starts at or above the underflow floor; only the controller may cross
    # it.  The floor, 1e-14*max(1, |t|), is near where t + h stops moving t.
    sx, sy, sz = tol + tol * abs(x), tol + tol * abs(y), tol + tol * abs(z)
    # Squares as products: a float multiply overflows to inf, `**` raises.
    n0 = math.sqrt((x / sx * (x / sx) + y / sy * (y / sy) + z / sz * (z / sz)) / 3.0)
    n1 = math.sqrt((k1x / sx * (k1x / sx) + k1y / sy * (k1y / sy) + k1z / sz * (k1z / sz)) / 3.0)
    h = max(0.01 * n0 / n1 if n0 > 1e-10 and n1 > 1e-10 else 1e-6, 1e-14 * max(1.0, abs(t0)))

    t = t0
    errold = 1e-4
    just_rejected = False
    near = [(*tail.point, tail.switch_radius2(tol), tail) for tail in tails]
    # The tableau, the controller and the step budget (read per call, so a patch
    # applies) as locals: in the stage loop a global lookup costs more than a multiply.
    c2, c3, c4, c5, a21, a31, a32, a41, a42, a43 = _C2, _C3, _C4, _C5, _A21, _A31, _A32, _A41, _A42, _A43
    a51, a52, a53, a54, a61, a62, a63, a64, a65 = _A51, _A52, _A53, _A54, _A61, _A62, _A63, _A64, _A65
    b1, b3, b4, b5, b6, e1, e3, e4, e5, e6, e7 = _B1, _B3, _B4, _B5, _B6, _E1, _E3, _E4, _E5, _E6, _E7
    d1, d3, d4, d5, d6, d7 = _D1, _D3, _D4, _D5, _D6, _D7
    safety, pi_alpha, pi_beta, fac_min, fac_max = _SAFETY, _PI_ALPHA, _PI_BETA, _FAC_MIN, _FAC_MAX
    max_steps, isfinite, pack, inf = _MAX_STEPS, math.isfinite, _RECORD_ROW.pack_into, math.inf

    while next_t < inf:
        if attempts >= max_steps:
            message = f"step budget of {max_steps} exhausted at t = {t!r}"
            break
        at = t if t >= 0.0 else -t  # the floor above, spelled out for speed
        if h < (1e-14 * at if at > 1.0 else 1e-14):
            message = (
                f"step size underflow (h = {h!r}) at t = {t!r}; "
                "the error estimate refuses to shrink with the step"
            )
            break
        attempts += 1

        x2 = x + h * (a21 * k1x)
        y2 = y + h * (a21 * k1y)
        z2 = z + h * (a21 * k1z)
        k2x, k2y, k2z = rhs(t + c2 * h, (x2, y2, z2))

        x3 = x + h * (a31 * k1x + a32 * k2x)
        y3 = y + h * (a31 * k1y + a32 * k2y)
        z3 = z + h * (a31 * k1z + a32 * k2z)
        k3x, k3y, k3z = rhs(t + c3 * h, (x3, y3, z3))

        x4 = x + h * (a41 * k1x + a42 * k2x + a43 * k3x)
        y4 = y + h * (a41 * k1y + a42 * k2y + a43 * k3y)
        z4 = z + h * (a41 * k1z + a42 * k2z + a43 * k3z)
        k4x, k4y, k4z = rhs(t + c4 * h, (x4, y4, z4))

        x5 = x + h * (a51 * k1x + a52 * k2x + a53 * k3x + a54 * k4x)
        y5 = y + h * (a51 * k1y + a52 * k2y + a53 * k3y + a54 * k4y)
        z5 = z + h * (a51 * k1z + a52 * k2z + a53 * k3z + a54 * k4z)
        k5x, k5y, k5z = rhs(t + c5 * h, (x5, y5, z5))

        x6 = x + h * (a61 * k1x + a62 * k2x + a63 * k3x + a64 * k4x + a65 * k5x)
        y6 = y + h * (a61 * k1y + a62 * k2y + a63 * k3y + a64 * k4y + a65 * k5y)
        z6 = z + h * (a61 * k1z + a62 * k2z + a63 * k3z + a64 * k4z + a65 * k5z)
        k6x, k6y, k6z = rhs(t + h, (x6, y6, z6))

        xn = x + h * (b1 * k1x + b3 * k3x + b4 * k4x + b5 * k5x + b6 * k6x)
        yn = y + h * (b1 * k1y + b3 * k3y + b4 * k4y + b5 * k5y + b6 * k6y)
        zn = z + h * (b1 * k1z + b3 * k3z + b4 * k4z + b5 * k5z + b6 * k6z)
        tn = t + h
        k7x, k7y, k7z = rhs(tn, (xn, yn, zn))

        ex = h * (e1 * k1x + e3 * k3x + e4 * k4x + e5 * k5x + e6 * k6x + e7 * k7x)
        ey = h * (e1 * k1y + e3 * k3y + e4 * k4y + e5 * k5y + e6 * k6y + e7 * k7y)
        ez = h * (e1 * k1z + e3 * k3z + e4 * k4z + e5 * k5z + e6 * k6z + e7 * k7z)

        # A non-finite estimate rejects the step (a `max` would drop a NaN).
        if not isfinite(ex + ey + ez):
            rejected += 1
            just_rejected = True
            h *= fac_min
            continue
        a, b = abs(x), abs(xn)
        err = abs(ex) / (tol + tol * (a if a >= b else b))
        a, b = abs(y), abs(yn)
        e = abs(ey) / (tol + tol * (a if a >= b else b))
        err = e if e > err else err
        a, b = abs(z), abs(zn)
        e = abs(ez) / (tol + tol * (a if a >= b else b))
        err = e if e > err else err

        if err <= 1.0:
            accepted += 1
            if next_t <= tn:
                pack(
                    table, 160 * recorded, t, h, tn, x, y, z, xn, yn, zn, k1x, k1y, k1z, k7x, k7y, k7z,
                    h * (d1 * k1x + d3 * k3x + d4 * k4x + d5 * k5x + d6 * k6x + d7 * k7x),
                    h * (d1 * k1y + d3 * k3y + d4 * k4y + d5 * k5y + d6 * k6y + d7 * k7y),
                    h * (d1 * k1z + d3 * k3z + d4 * k4z + d5 * k5z + d6 * k6z + d7 * k7z),
                    accepted, rejected,
                )
                recorded += 1
                next_t = merged[bisect_right(merged, tn)]
            t = tn
            x, y, z = xn, yn, zn
            k1x, k1y, k1z = k7x, k7y, k7z
            for px, py, pz, r2, tail in near:
                dx, dy, dz = x - px, y - py, z - pz
                if dx * dx + dy * dy + dz * dz <= r2:
                    settled = (tail, t, (x, y, z))
                    next_t = inf
                    break
            if err == 0.0:
                fac = fac_max
            else:
                fac = safety * err**-pi_alpha * errold**pi_beta
                fac = fac_max if fac > fac_max else (fac_min if fac < fac_min else fac)
            if just_rejected and fac > 1.0:
                fac = 1.0
            h *= fac
            errold = 1e-4 if err < 1e-4 else err
            just_rejected = False
        else:
            rejected += 1
            just_rejected = True
            h *= max(fac_min, min(1.0, safety * err**-0.2))

    # Each grid's run, or for one left unfinished, `message` and its partial.
    steps = table[:recorded]
    runs: list[Trajectory | IntegrationError] = []
    for instants, t_col, s_col in grids:
        k = int(np.searchsorted(instants, t, side="right"))
        rows = np.empty((k if settled is None else instants.size, 3))
        rows[0] = start
        rows[1:k] = _extension(steps, instants[1:k])
        if k < len(rows):
            tail, s1, state = settled
            rows[k:] = tail.flow(s1, state, instants[k:])
        last = int(np.searchsorted(steps[:, 2], instants[-1]))
        counts = steps[last, 18:] if last < recorded else (accepted, rejected)
        meta = IntegrationMeta(int(counts[0]), int(counts[1]), "rk45", tol)
        n = len(rows)
        run = Trajectory(t_col[:n], s_col[:n], rows, meta)
        runs.append(run if n == instants.size else IntegrationError(message, attempts, run))
    return runs


def _span(gauge: Gauge | None, span: tuple[float, float], samples: int) -> np.ndarray:
    """The sample instants in t of a checked span, from t0 to t1.  A gauged
    span needs 0 < t0 < t1: the direct weight t**(-D) is singular at the
    origin and the gauge map is not invertible there; its samples are
    geometric.  The identity clock (no gauge, a Lorenz run) takes any finite
    t0 < t1, sampled linearly."""
    t0, t1 = (float(span[0]), float(span[1]))
    if not (math.isfinite(t0) and math.isfinite(t1) and t1 > t0):
        raise ValueError(f"need finite t1 > t0, got [{t0!r}, {t1!r}]")
    if gauge is None:
        return np.linspace(t0, t1, samples)
    if t0 <= 0.0:
        raise ValueError(f"SL span needs 0 < t0 < t1, got [{t0!r}, {t1!r}]")
    return np.geomspace(t0, t1, samples)


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
    """DP54 runs of one orbit under several clocks, from one solve.

    Whatever the clock, the run solves the autonomous dx/ds = f from x0, in
    sigma = s - s_0 from 0; clocks change only the sigma-range and the
    sample instants sigma_k = s_k - s_0, where s_k is the clock's t grid
    mapped by the gauge (s_k = t_k for None, the identity clock).  So one
    solve to the largest sigma-range serves every clock, and since a DP54
    solve to any end is a bit-equal prefix of a solve to a later one,
    entry i is exactly what `integrate_sl(params, gauges[i], span, x0,
    tol=tol, samples=samples)` returns, or the IntegrationError it raises,
    step counts included.  The s column is s_k.  The solve finishes on the
    settled tail of the module docstring.
    """
    # Imported here because `analysis` imports this module's `rk4_step`.
    from .analysis import stable_tails

    tol, samples = check_settings(tol, samples)
    if not gauges:
        raise ValueError("integrate_sl_gauges needs at least one gauge (None for the identity clock)")
    t_grids = [_span(gauge, span, samples) for gauge in gauges]
    s_grids = [t.copy() if gauge is None else scale_time(gauge, t) for gauge, t in zip(gauges, t_grids)]
    return _adaptive_solve(
        make_field(SystemKind.SL, params),
        0.0,
        x0,
        tol,
        [(s - s[0], t, s) for t, s in zip(t_grids, s_grids)],
        stable_tails(params),
    )


def integrate_direct_t(
    params: SystemParams,
    gauge: Gauge,
    span: tuple[float, float],
    x0: State3 | Sequence[float],
    tol: float = 1e-9,
    samples: int = 2000,
) -> Trajectory:
    """Criterion 1's reference: dx/dt = lam * t**(-D) * f(x), the weighted
    equations of `timegauge.make_gauged_field`, solved in t (no settled
    tail) by the DP54 driver on `integrate_sl`'s t grid, with s =
    scale_time(gauge, t) beside each row.  No run takes it; the acceptance
    suite checks that the two agree rather than assuming it.  `gauge` None
    is a ValueError."""
    if gauge is None:
        raise ValueError("integrate_direct_t needs a gauge; the identity clock has no direct-t form")
    tol, samples = check_settings(tol, samples)
    t = _span(gauge, span, samples)
    grid = (t, t, scale_time(gauge, t))
    run = _adaptive_solve(make_gauged_field(params, gauge), float(t[0]), x0, tol, [grid])[0]
    if isinstance(run, IntegrationError):
        raise run
    return run
