"""Deterministic Runge-Kutta integration with dense sampling.

Two drivers: classical fixed-step RK4 for convergence studies and the
twin-trajectory estimators, and an embedded Dormand-Prince 5(4) pair with
PI step-size control, which solves every run.  A run is two settings:
one tolerance (absolute and relative) and the sample count.  Samples are
spaced by the clock: geometrically in t on a gauged clock, whose spans
cover decades from t0 > 0, and linearly on the identity clock; off-step
samples come from the pair's own 4th-order continuous extension over the
bracketing step (Hairer, Norsett & Wanner, Solving ODEs I, II.6), built
from the seven stages already in hand, so it costs no extra field
evaluations.  The DP54 step sequence depends only on the field, the start
point and the tolerances, never on where the samples fall or the run ends,
so one solve can serve several sample grids (`integrate_sl_gauges`).

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
that ends after the switch records the step counts reached at it.

All state arithmetic is plain scalar double precision with a fixed
evaluation order, so identical inputs produce bit-identical trajectories.
Right-hand sides are callables rhs(t, (x, y, z)) -> (fx, fy, fz), as
produced by `dynamics.make_field` and `timegauge.make_gauged_field`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .dynamics import State3, SystemKind, SystemParams, make_field
# Unused here, `unscale_time` is a target of slbench's `timegauge.map` trace hook.
from .timegauge import Gauge, make_gauged_field, scale_time, unscale_time

if TYPE_CHECKING:
    from .analysis import StableTail

__all__ = [
    "SLMode",
    "check_settings",
    "IntegrationMeta",
    "Trajectory",
    "IntegrationError",
    "rk4_step",
    "integrate_fixed",
    "integrate_sl",
    "integrate_sl_gauges",
]

RHS = Callable[[float, tuple[float, float, float]], tuple[float, float, float]]


class SLMode(enum.Enum):
    """The two routes of `integrate_sl` for a gauged run.

    SCALED_S integrates the autonomous dx/ds = f(x) in scaled time and
    relabels the samples through the gauge map; every run takes it.
    DIRECT_T integrates dx/dt = lam * t**(-D) * f(x) in ordinary time.  It
    is not a run setting but criterion 1's reference: the two must agree,
    and the acceptance suite checks that rather than assuming it.
    """

    DIRECT_T = "direct-t"
    SCALED_S = "scaled-s"


def check_settings(tol: float, samples: int) -> tuple[float, int]:
    """The run settings `tol` and `samples` as float and int, or ValueError
    if either is out of range."""
    tol = float(tol)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if int(samples) < 2:
        raise ValueError(f"sample_count must be >= 2, got {samples!r}")
    return tol, int(samples)


@dataclass(frozen=True)
class IntegrationMeta:
    """Step accounting for a finished run.  Both tolerances are the run's
    `tol`; they are None for fixed-step output and for trajectories read
    back from CSV."""

    steps_taken: int
    steps_rejected: int
    method: str
    abs_tol: float | None = None
    rel_tol: float | None = None
    mode: str | None = None


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


def _adaptive_solve(
    rhs: RHS,
    t0: float,
    x0: Sequence[float],
    tol: float,
    grids: Sequence[np.ndarray],
    tails: Sequence[StableTail] = (),
) -> list[Trajectory | IntegrationError]:
    """Core DP54 driver: one solve from (t0, x0), sampled on several grids.

    Each grid is strictly increasing from t0 and ends where its run ends.
    The solve never clips a step to land on an end: it steps until it has
    passed the last sample of every grid.  Rows sit exactly on the grids,
    read off the continuous extension of the step that brackets them, so
    the steps taken depend on neither the grids nor their ends, and the
    rows of a solve to any end are bit-equal to those of a solve to a later
    one.  Entry i is grid i's run, with the grid as both time columns and
    the step counts at its last sample, or the IntegrationError
    that a solve on grid i alone raises.

    After each accepted step the end point is checked against `tails`; the
    first step that ends within a tail's switch radius at `tol` is the
    last one, and every sample after it comes from that tail's linear flow,
    with the step counts reached there.
    """
    # Per grid: its samples, its rows (written through a flat memoryview,
    # far cheaper per row than numpy indexing), how many rows are out, and
    # the step counts once the last one is.  `active` lists the unfinished
    # grids and `next_t` is the earliest sample any of them still needs.
    samples = [grid.tolist() for grid in grids]
    outs = [np.empty((grid.size, 3)) for grid in grids]
    bufs = [memoryview(rows.reshape(-1)) for rows in outs]
    emitted = [0] * len(grids)
    metas: list[IntegrationMeta | None] = [None] * len(grids)
    accepted = 0
    rejected = 0
    attempts = 0

    def meta() -> IntegrationMeta:
        return IntegrationMeta(accepted, rejected, "rk45", tol, tol)

    def runs(message: str = "", step_index: int | None = None) -> list[Trajectory | IntegrationError]:
        """Each grid's run, or for a grid left unfinished, `message` with
        the rows it got so far as the partial."""
        result: list[Trajectory | IntegrationError] = []
        for grid, rows, k, done in zip(grids, outs, emitted, metas):
            if done is not None:
                result.append(Trajectory(grid, grid.copy(), rows, done))
            else:
                partial = Trajectory(grid[:k], grid[:k].copy(), rows[:k], meta()) if k else None
                result.append(IntegrationError(message, step_index, partial))
        return result

    x, y, z = (float(v) for v in x0)
    k1x, k1y, k1z = rhs(t0, (x, y, z))
    if not (math.isfinite(k1x) and math.isfinite(k1y) and math.isfinite(k1z)):
        return runs(f"non-finite field at the initial point t = {t0!r}", 0)
    for i, (smp, buf) in enumerate(zip(samples, bufs)):
        k = 0
        while smp[k] <= t0:
            buf[3 * k], buf[3 * k + 1], buf[3 * k + 2] = x, y, z
            k += 1
        emitted[i] = k
    active = list(range(len(grids)))
    next_t = min(smp[k] for smp, k in zip(samples, emitted))

    # Hairer's first guess: a step that moves the scaled state by 1%.  It
    # starts at or above the underflow floor; only the controller may cross
    # it.  The floor, 1e-14*max(1, |t|), is near where t + h stops moving t.
    sx, sy, sz = tol + tol * abs(x), tol + tol * abs(y), tol + tol * abs(z)
    # Squares as products: a float multiply overflows to inf, `**` raises.
    d0 = math.sqrt((x / sx * (x / sx) + y / sy * (y / sy) + z / sz * (z / sz)) / 3.0)
    d1 = math.sqrt((k1x / sx * (k1x / sx) + k1y / sy * (k1y / sy) + k1z / sz * (k1z / sz)) / 3.0)
    h = max(0.01 * d0 / d1 if d0 > 1e-10 and d1 > 1e-10 else 1e-6, 1e-14 * max(1.0, abs(t0)))

    t = t0
    errold = 1e-4
    just_rejected = False
    near = [(*tail.point, tail.switch_radius2(tol), tail) for tail in tails]

    while active:
        if attempts >= _MAX_STEPS:
            return runs(f"step budget of {_MAX_STEPS} exhausted at t = {t!r}", attempts)
        at = t if t >= 0.0 else -t  # the floor above, spelled out for speed
        if h < (1e-14 * at if at > 1.0 else 1e-14):
            return runs(
                f"step size underflow (h = {h!r}) at t = {t!r}; "
                "the error estimate refuses to shrink with the step",
                attempts,
            )
        attempts += 1

        x2 = x + h * (_A21 * k1x)
        y2 = y + h * (_A21 * k1y)
        z2 = z + h * (_A21 * k1z)
        k2x, k2y, k2z = rhs(t + _C2 * h, (x2, y2, z2))

        x3 = x + h * (_A31 * k1x + _A32 * k2x)
        y3 = y + h * (_A31 * k1y + _A32 * k2y)
        z3 = z + h * (_A31 * k1z + _A32 * k2z)
        k3x, k3y, k3z = rhs(t + _C3 * h, (x3, y3, z3))

        x4 = x + h * (_A41 * k1x + _A42 * k2x + _A43 * k3x)
        y4 = y + h * (_A41 * k1y + _A42 * k2y + _A43 * k3y)
        z4 = z + h * (_A41 * k1z + _A42 * k2z + _A43 * k3z)
        k4x, k4y, k4z = rhs(t + _C4 * h, (x4, y4, z4))

        x5 = x + h * (_A51 * k1x + _A52 * k2x + _A53 * k3x + _A54 * k4x)
        y5 = y + h * (_A51 * k1y + _A52 * k2y + _A53 * k3y + _A54 * k4y)
        z5 = z + h * (_A51 * k1z + _A52 * k2z + _A53 * k3z + _A54 * k4z)
        k5x, k5y, k5z = rhs(t + _C5 * h, (x5, y5, z5))

        x6 = x + h * (_A61 * k1x + _A62 * k2x + _A63 * k3x + _A64 * k4x + _A65 * k5x)
        y6 = y + h * (_A61 * k1y + _A62 * k2y + _A63 * k3y + _A64 * k4y + _A65 * k5y)
        z6 = z + h * (_A61 * k1z + _A62 * k2z + _A63 * k3z + _A64 * k4z + _A65 * k5z)
        k6x, k6y, k6z = rhs(t + h, (x6, y6, z6))

        xn = x + h * (_B1 * k1x + _B3 * k3x + _B4 * k4x + _B5 * k5x + _B6 * k6x)
        yn = y + h * (_B1 * k1y + _B3 * k3y + _B4 * k4y + _B5 * k5y + _B6 * k6y)
        zn = z + h * (_B1 * k1z + _B3 * k3z + _B4 * k4z + _B5 * k5z + _B6 * k6z)
        tn = t + h
        k7x, k7y, k7z = rhs(tn, (xn, yn, zn))

        ex = h * (_E1 * k1x + _E3 * k3x + _E4 * k4x + _E5 * k5x + _E6 * k6x + _E7 * k7x)
        ey = h * (_E1 * k1y + _E3 * k3y + _E4 * k4y + _E5 * k5y + _E6 * k6y + _E7 * k7y)
        ez = h * (_E1 * k1z + _E3 * k3z + _E4 * k4z + _E5 * k5z + _E6 * k6z + _E7 * k7z)

        # A non-finite estimate rejects the step (a `max` would drop a NaN).
        if not math.isfinite(ex + ey + ez):
            rejected += 1
            just_rejected = True
            h *= _FAC_MIN
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
                # y(t + theta*h) = x + theta*(dx + th1*(bx + theta*(cx + th1*qx)))
                # with th1 = 1 - theta, per component.
                dx, dy, dz = xn - x, yn - y, zn - z
                bx, by, bz = h * k1x - dx, h * k1y - dy, h * k1z - dz
                cx, cy, cz = dx - h * k7x - bx, dy - h * k7y - by, dz - h * k7z - bz
                qx = h * (_D1 * k1x + _D3 * k3x + _D4 * k4x + _D5 * k5x + _D6 * k6x + _D7 * k7x)
                qy = h * (_D1 * k1y + _D3 * k3y + _D4 * k4y + _D5 * k5y + _D6 * k6y + _D7 * k7y)
                qz = h * (_D1 * k1z + _D3 * k3z + _D4 * k4z + _D5 * k5z + _D6 * k6z + _D7 * k7z)
                next_t = math.inf
                finished = False
                for i in active:
                    smp, buf, k = samples[i], bufs[i], emitted[i]
                    n = len(smp)
                    while k < n and smp[k] <= tn:
                        theta = (smp[k] - t) / h
                        j = 3 * k
                        if theta >= 1.0:
                            buf[j], buf[j + 1], buf[j + 2] = xn, yn, zn
                        else:
                            th1 = 1.0 - theta
                            buf[j] = x + theta * (dx + th1 * (bx + theta * (cx + th1 * qx)))
                            buf[j + 1] = y + theta * (dy + th1 * (by + theta * (cy + th1 * qy)))
                            buf[j + 2] = z + theta * (dz + th1 * (bz + theta * (cz + th1 * qz)))
                        k += 1
                    emitted[i] = k
                    if k == n:
                        metas[i] = meta()
                        finished = True
                    elif smp[k] < next_t:
                        next_t = smp[k]
                if finished:
                    active = [i for i in active if metas[i] is None]
            t = tn
            x, y, z = xn, yn, zn
            k1x, k1y, k1z = k7x, k7y, k7z
            for px, py, pz, r2, tail in near:
                dx, dy, dz = x - px, y - py, z - pz
                if dx * dx + dy * dy + dz * dz <= r2:
                    flow = tail.flow(t, (x, y, z))
                    for i in active:
                        smp, buf = samples[i], bufs[i]
                        for k in range(emitted[i], len(smp)):
                            buf[3 * k], buf[3 * k + 1], buf[3 * k + 2] = flow(smp[k])
                        emitted[i] = len(smp)
                        metas[i] = meta()
                    active = []
                    break
            if err == 0.0:
                fac = _FAC_MAX
            else:
                fac = _SAFETY * err**-_PI_ALPHA * errold**_PI_BETA
                fac = min(_FAC_MAX, max(_FAC_MIN, fac))
            if just_rejected:
                fac = min(fac, 1.0)
            h *= fac
            errold = max(err, 1e-4)
            just_rejected = False
        else:
            rejected += 1
            just_rejected = True
            h *= max(_FAC_MIN, min(1.0, _SAFETY * err**-0.2))

    return runs()


def _span(
    gauge: Gauge | None, span: tuple[float, float], samples: int
) -> tuple[float, float, np.ndarray]:
    """t0, t1 and the sample instants in t of a checked span.  A gauged span
    needs 0 < t0 < t1: the direct weight t**(-D) is singular at the origin
    and the gauge map is not invertible there; its samples are geometric.
    The identity clock (no gauge, a Lorenz run) takes any finite t0 < t1,
    sampled linearly."""
    t0, t1 = (float(span[0]), float(span[1]))
    if not (math.isfinite(t0) and math.isfinite(t1) and t1 > t0):
        raise ValueError(f"need finite t1 > t0, got [{t0!r}, {t1!r}]")
    if gauge is None:
        return t0, t1, np.linspace(t0, t1, samples)
    if t0 <= 0.0:
        raise ValueError(f"SL span needs 0 < t0 < t1, got [{t0!r}, {t1!r}]")
    return t0, t1, np.geomspace(t0, t1, samples)


def _relabel(
    run: Trajectory | IntegrationError,
    columns: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    mode: str | None,
) -> Trajectory | IntegrationError:
    """`run` with the time columns `columns(run.t)` in place of its
    integration variable and `meta.mode` set to `mode`; for an error, the
    same error with its partial relabelled so."""
    if isinstance(run, IntegrationError):
        if run.partial is not None:
            run.partial = _relabel(run.partial, columns, mode)
        return run
    return Trajectory(*columns(run.t), run.states, replace(run.meta, mode=mode))


def integrate_sl(
    params: SystemParams,
    gauge: Gauge | None,
    span: tuple[float, float],
    x0: State3 | Sequence[float],
    tol: float = 1e-9,
    samples: int = 2000,
    mode: SLMode = SLMode.SCALED_S,
) -> Trajectory:
    """Integrate the quadratic field with coefficients `params` over an
    ordinary-time span, on the clock of `gauge`, to `samples` rows.

    This is the one solve entry of every run: `integrate_sl_gauges` with
    one clock, which solves the autonomous dx/ds = f over the image of the
    span under the gauge.  With `gauge` None the clock is the identity,
    s = t (a Lorenz run): the span may start at any finite t0, `mode` is
    ignored and `meta.mode` is None.  Each row carries both times, related
    by the clock.  `mode` DIRECT_T instead solves the weighted equations in
    t on the same t grid, as criterion 1's reference.
    """
    if not isinstance(mode, SLMode):
        raise ValueError(f"mode must be an SLMode, got {mode!r}")
    tol, samples = check_settings(tol, samples)
    if gauge is None or mode is SLMode.SCALED_S:
        run = integrate_sl_gauges(params, [gauge], span, x0, tol, samples)[0]
    else:
        t0, _, t = _span(gauge, span, samples)
        run = _relabel(
            _adaptive_solve(make_gauged_field(params, gauge), t0, x0, tol, [t])[0],
            lambda u: (u, np.asarray([scale_time(gauge, tv) for tv in u])),
            mode.value,
        )
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
    t_grids = [_span(gauge, span, samples)[2] for gauge in gauges]
    s_grids = [
        t.copy() if gauge is None else np.asarray([scale_time(gauge, tv) for tv in t])
        for gauge, t in zip(gauges, t_grids)
    ]
    runs = _adaptive_solve(
        make_field(SystemKind.SL, params),
        0.0,
        x0,
        tol,
        [s - s[0] for s in s_grids],
        stable_tails(params),
    )
    return [
        _relabel(
            run,
            lambda u, t=t, s=s: (t[: len(u)], s[: len(u)]),
            None if gauge is None else SLMode.SCALED_S.value,
        )
        for run, gauge, t, s in zip(runs, gauges, t_grids, s_grids)
    ]
