"""Deterministic integration of the quadratic field with dense sampling.

Two drivers: classical fixed-step RK4 for convergence studies and the
twin-trajectory estimators, and a Taylor-series driver, which solves every
run.  A run is two settings: one tolerance (absolute and relative) and the
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
h = inf and its polynomial is the orbit for all time.  Rows come from Horner
on the polynomial of the step that brackets them, evaluated over arrays
after the solve from a record of such steps: one table, allocated with a
row per sample, since each recorded step passes one.  The step sequence
depends only on the field, the start point and the tolerance, not on the
samples or the end, so one solve can serve several sample grids.  Each
grid brings the t and s columns its run carries, and its rows and step
counts are read off the record after the solve.
Every run solves in scaled time; `integrate_direct_t` solves a gauged
field in ordinary t with the same driver, as criterion 1's reference.

Settled tail.  A solve of the quadratic field (`integrate_sl_gauges`,
hence every run) stops stepping once a step ends close to a stable
equilibrium x* (a "stable node" or "stable focus-node" of the
`analysis.conjecture_report` table): every later sample comes from the
exact linear flow there,

    x(sigma) = x* + V exp(Lambda (sigma - sigma_1)) V^-1 (x(sigma_1) - x*),

with the closed-form spectrum Lambda and eigenvectors V of the Jacobian at
x* (`analysis.stable_tails`).  Near a stable equilibrium an explicit step
is held by its stability region, not by the tolerance, so this is where a
long run would spend almost all of its steps.  "Close" is within the tail's
convergence radius, cut to where the part of the field the linear flow
leaves out moves no later sample by more than 1e-2 * tol: with
d = x - x*, leading real part -alpha < 0 and eigenbasis condition K, the
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

import math
import struct
from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

# Unused here, `make_field`, `make_gauged_field` and `unscale_time` are targets
# of slbench's `dynamics.field` and `timegauge.map` trace hooks.
from .dynamics import State3, SystemParams, make_field
from .timegauge import Gauge, make_gauged_field, scale_grid, scale_time, unscale_time

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


def _series(
    a: float, b: float, c: float, products: list, x: float, y: float, z: float, w: list[float] | None = None
) -> tuple[list[float], list[float], list[float]]:
    """The Taylor coefficients X_0..X_p, Y_0..Y_p, Z_0..Z_p of the orbit of
    dx/dt = w(t) f(x) through (x, y, z): X_{k+1} = (w * F)_k / (k + 1), where
    F_k, the coefficients of f(x(t)), are exact Cauchy products of the
    orbit's own.  `products` holds k + 1 and the index pairs (i, k - i) for
    each order k < p, and `w` the weight's coefficients w_0..w_{p-1} (None
    for w = 1)."""
    X, Y, Z = [x], [y], [z]
    FX, FY, FZ = [], [], []
    xk, yk, zk = x, y, z
    for n, pairs in products:
        xz = xy = 0.0
        for i, j in pairs:
            xi = X[i]
            xz += xi * Z[j]
            xy += xi * Y[j]
        fx, fy, fz = a * (yk - xk), b * xk - yk - xz, xy - c * zk
        if w is not None:
            FX.append(fx)
            FY.append(fy)
            FZ.append(fz)
            fx = fy = fz = 0.0
            for i, j in pairs:
                wi = w[i]
                fx += wi * FX[j]
                fy += wi * FY[j]
                fz += wi * FZ[j]
        xk, yk, zk = fx / n, fy / n, fz / n
        X.append(xk)
        Y.append(yk)
        Z.append(zk)
    return X, Y, Z


def _dense(steps: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The rows at `times`, each by Horner on the Taylor polynomial of the
    first row of `steps` to end at or after it, 256 samples at a time.  A
    row of `steps` is t, h, the step count at its end and the coefficients
    X_0..X_p, Y_0..Y_p, Z_0..Z_p.  A sample on a step's end t + h is
    evaluated at h itself, not at (t + h) - t, so its row is bit-equal to
    the end state the step went on from."""
    rows = np.empty((times.size, 3))
    ends = steps[:, 0] + steps[:, 1]
    at = np.searchsorted(ends, times)
    width = steps.shape[1] // 3 - 1
    for a in range(0, times.size, 256):
        part = slice(a, a + 256)
        step = steps[at[part]]
        tau = np.where(times[part] == ends[at[part]], step[:, 1], times[part] - step[:, 0])[:, None]
        # Order by order: coeffs[k] is the (n, 3) array of order-k terms.
        coeffs = step[:, 3:].reshape(len(step), 3, width).transpose(2, 0, 1)
        y = coeffs[-1]
        for terms in coeffs[-2::-1]:
            y = y * tau + terms
        rows[part] = y
    return rows


def _adaptive_solve(
    params: SystemParams,
    t0: float,
    x0: Sequence[float],
    tol: float,
    grids: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
    tails: Sequence[StableTail] = (),
    weight: Gauge | None = None,
) -> list[Trajectory | IntegrationError]:
    """Core Taylor driver: one solve of dx/dt = f(x), the quadratic field of
    `params`, from (t0, x0), sampled on several grids.  Given a gauge as
    `weight`, it solves dx/dt = lam * t**(-D) * f(x) in t > 0 instead, with
    the weight's binomial series about each step's start,
    w_k = w_{k-1} (-D - k + 1) / (k t).

    Each grid is a triple (instants, t column, s column) of equal-length
    arrays: the instants in the solve's variable, strictly increasing from
    t0 and ending where the run ends, and the two time columns its run
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
    # All samples and an end marker, which no lookup passes.
    merged = sorted(np.concatenate([grid[0] for grid in grids]).tolist() + [math.inf])
    last = len(merged) - 1
    p = _order(tol)
    table = np.empty((last, 3 * p + 6))
    recorded = accepted = 0
    settled: tuple[StableTail, float, tuple[float, float, float]] | None = None
    message = ""

    x, y, z = start = tuple(float(v) for v in x0)
    if not all(map(math.isfinite, start)):
        return [IntegrationError(f"non-finite initial state {start!r}", 0) for _ in grids]
    t = t0
    next_t = merged[bisect_right(merged, t0, 0, last)]
    near = [(*tail.point, tail.switch_radius2(tol), tail) for tail in tails]
    a, b, c = params.a, params.b, params.c
    # The step budget is read per call, so a patch applies.
    max_steps, isfinite, inf, exp, log = _MAX_STEPS, math.isfinite, math.inf, math.exp, math.log
    pack = struct.Struct(f"{3 * p + 6}d").pack_into
    products = [(k + 1.0, [(i, k - i) for i in range(k + 1)]) for k in range(p)]
    orders = range(p - 1, -1, -1)

    while next_t < inf:
        if accepted >= max_steps:
            message = f"step budget of {max_steps} exhausted at t = {t!r}"
            break
        w = None
        if weight is not None:
            w = [weight.lam * exp(-weight.D * log(t))]
            for k in range(1, p):
                w.append(w[-1] * (-weight.D - k + 1.0) / (k * t))
        X, Y, Z = _series(a, b, c, products, x, y, z, w)
        # h from the last two coefficients (Jorba & Zou); where both vanish,
        # a zero field above all, the polynomial is the orbit for all time.
        # A NaN bound (NaN != NaN) is kept, so it fails the floor below.
        eps = tol + tol * max(abs(x), abs(y), abs(z))
        h = inf
        for k in (p - 1, p):
            norm = max(abs(X[k]), abs(Y[k]), abs(Z[k]))
            if norm != 0.0:
                hk = (eps / norm) ** (1.0 / k)
                h = hk if hk < h or hk != hk else h
        # The floor, 1e-14*max(1, |t|), is near where t + h stops moving t.
        at = t if t >= 0.0 else -t
        if not h >= (1e-14 * at if at > 1.0 else 1e-14):
            message = (
                f"step size underflow (h = {h!r}) at t = {t!r}; "
                "the Taylor coefficients are too large for any step at this tolerance"
            )
            break
        if h < inf:
            xn, yn, zn = X[p], Y[p], Z[p]
            for k in orders:
                xn = xn * h + X[k]
                yn = yn * h + Y[k]
                zn = zn * h + Z[k]
            if not (isfinite(xn) and isfinite(yn) and isfinite(zn)):
                message = f"non-finite state while stepping from t = {t!r}"
                break
        accepted += 1
        tn = t + h
        if next_t <= tn:
            pack(table, 8 * (3 * p + 6) * recorded, t, h, accepted, *X, *Y, *Z)
            recorded += 1
            next_t = merged[bisect_right(merged, tn, 0, last)]
        t = tn
        if h == inf:
            break
        x, y, z = xn, yn, zn
        for px, py, pz, r2, tail in near:
            dx, dy, dz = x - px, y - py, z - pz
            if dx * dx + dy * dy + dz * dz <= r2:
                settled = (tail, t, (x, y, z))
                next_t = inf
                break

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
        run = Trajectory(t_col[:n], s_col[:n], rows, meta)
        runs.append(run if n == instants.size else IntegrationError(message, accepted, run))
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

    tol, samples = check_settings(tol, samples)
    if not gauges:
        raise ValueError("integrate_sl_gauges needs at least one gauge (None for the identity clock)")
    t_grids = [_span(gauge, span, samples) for gauge in gauges]
    # Every gauged clock has the same geometric t grid: one log pass maps it
    # under all of them.
    gauged = [(gauge, t) for gauge, t in zip(gauges, t_grids) if gauge is not None]
    mapped = iter(scale_grid([gauge for gauge, _ in gauged], gauged[0][1]) if gauged else ())
    s_grids = [t.copy() if gauge is None else next(mapped) for gauge, t in zip(gauges, t_grids)]
    return _adaptive_solve(
        params,
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
    tail) by the Taylor driver with the weight's series, on `integrate_sl`'s
    t grid, with s = scale_time(gauge, t) beside each row.  No run takes it;
    the acceptance suite checks that the two agree rather than assuming it.
    `gauge` None is a ValueError."""
    if gauge is None:
        raise ValueError("integrate_direct_t needs a gauge; the identity clock has no direct-t form")
    tol, samples = check_settings(tol, samples)
    t = _span(gauge, span, samples)
    grid = (t, t, scale_time(gauge, t))
    run = _adaptive_solve(params, float(t[0]), x0, tol, [grid], weight=gauge)[0]
    if isinstance(run, IntegrationError):
        raise run
    return run
