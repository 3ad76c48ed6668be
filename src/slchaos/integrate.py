"""Deterministic Runge-Kutta integration with dense sampling.

Two drivers: classical fixed-step RK4 for convergence studies, and an
embedded Dormand-Prince 5(4) pair with PI step-size control for production
runs.  Sampling plans place output points linearly or geometrically in the
integration variable (geometric spacing keeps multi-decade spans readable);
off-step samples come from the pair's own 4th-order continuous extension
over the bracketing step (Hairer, Norsett & Wanner, Solving ODEs I, II.6),
built from the seven stages already in hand, so it costs no extra field
evaluations.  The DP54 step sequence depends only on the field, the start
point and the tolerances, never on where the samples fall.

All state arithmetic is plain scalar double precision with a fixed
evaluation order, so identical inputs produce bit-identical trajectories.
Right-hand sides are callables rhs(t, (x, y, z)) -> (fx, fy, fz), as
produced by `dynamics.make_field` and `timegauge.make_gauged_field`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .dynamics import State3, SystemKind, SystemParams, make_field
from .timegauge import Gauge, make_gauged_field, scale_time, unscale_time

__all__ = [
    "Method",
    "SamplingMode",
    "SLMode",
    "IntegratorConfig",
    "SamplingPlan",
    "IntegrationMeta",
    "Trajectory",
    "IntegrationError",
    "rk4_step",
    "integrate_fixed",
    "integrate_adaptive",
    "integrate_sl",
]

RHS = Callable[[float, tuple[float, float, float]], tuple[float, float, float]]


class Method(enum.Enum):
    RK4_FIXED = "rk4"
    RK45_ADAPTIVE = "rk45"


class SamplingMode(enum.Enum):
    LINEAR = "linear"
    GEOMETRIC = "geometric"


class SLMode(enum.Enum):
    """How a gauged run is carried out.

    DIRECT_T integrates dx/dt = lam * t**(-D) * f(x) in ordinary time.
    SCALED_S integrates the autonomous dx/ds = f(x) in scaled time and
    relabels the samples through the gauge map.  The two must agree; that
    equivalence is checked by the test suite rather than assumed.
    """

    DIRECT_T = "direct-t"
    SCALED_S = "scaled-s"


@dataclass
class IntegratorConfig:
    method: Method = Method.RK45_ADAPTIVE
    abs_tol: float = 1e-9
    rel_tol: float = 1e-9

    def __post_init__(self) -> None:
        if not isinstance(self.method, Method):
            raise ValueError(f"method must be a Method, got {self.method!r}")
        for name in ("abs_tol", "rel_tol"):
            v = float(getattr(self, name))
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {v!r}")
            setattr(self, name, v)


@dataclass
class SamplingPlan:
    mode: SamplingMode = SamplingMode.LINEAR
    sample_count: int = 2000

    def __post_init__(self) -> None:
        if not isinstance(self.mode, SamplingMode):
            raise ValueError(f"mode must be a SamplingMode, got {self.mode!r}")
        n = int(self.sample_count)
        if n < 2:
            raise ValueError(f"sample_count must be >= 2, got {self.sample_count!r}")
        self.sample_count = n

    def grid(self, t0: float, t1: float) -> np.ndarray:
        """Sample locations in the integration variable."""
        if self.mode is SamplingMode.LINEAR:
            return np.linspace(t0, t1, self.sample_count)
        if t0 <= 0.0:
            raise ValueError(f"geometric sampling needs t0 > 0, got {t0!r}")
        return np.geomspace(t0, t1, self.sample_count)


@dataclass(frozen=True)
class IntegrationMeta:
    """Step accounting for a finished run.  Tolerances are None for
    fixed-step output and for trajectories read back from CSV."""

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

    @property
    def final_state(self) -> State3:
        row = self.states[-1]
        return State3(float(row[0]), float(row[1]), float(row[2]))


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
                IntegrationMeta(i, 0, Method.RK4_FIXED.value),
            )
            raise IntegrationError(str(exc), step_index=i, partial=partial) from None
        states.append(y)

    arr_t = np.asarray(times)
    return Trajectory(
        arr_t,
        arr_t.copy(),
        np.asarray(states),
        IntegrationMeta(n, 0, Method.RK4_FIXED.value),
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
    t1: float,
    x0: Sequence[float],
    config: IntegratorConfig,
    sample_ts: np.ndarray,
    mode: str | None,
) -> tuple[np.ndarray, np.ndarray, IntegrationMeta]:
    """Core DP54 driver.  Returns the time column, the states and the
    run's metadata, which records `mode`.  Output rows sit exactly on the
    sample grid, read off the continuous extension of the step that
    brackets them.  The steps taken do not depend on `sample_ts`.
    """
    h_min = 1e-14 * (t1 - t0)
    atol = config.abs_tol
    rtol = config.rel_tol

    x, y, z = (float(v) for v in x0)
    k1x, k1y, k1z = rhs(t0, (x, y, z))
    if not (math.isfinite(k1x) and math.isfinite(k1y) and math.isfinite(k1z)):
        raise IntegrationError(
            f"non-finite field at the initial point t = {t0!r}", step_index=0
        )

    # Row i of the output is the state at samples[i].
    samples = sample_ts.tolist()
    n_samples = len(samples)
    out_y: list[tuple[float, float, float]] = []
    si = 0
    while si < n_samples and samples[si] <= t0:
        out_y.append((x, y, z))
        si += 1

    def meta() -> IntegrationMeta:
        return IntegrationMeta(accepted, rejected, Method.RK45_ADAPTIVE.value, atol, rtol, mode)

    def partial() -> Trajectory | None:
        if not out_y:
            return None
        arr = sample_ts[: len(out_y)]
        return Trajectory(arr, arr.copy(), np.asarray(out_y), meta())

    # Hairer's first guess: a step that moves the scaled state by 1%.  It
    # starts at or above the underflow floor; only the controller may cross it.
    sx, sy, sz = atol + rtol * abs(x), atol + rtol * abs(y), atol + rtol * abs(z)
    d0 = math.sqrt(((x / sx) ** 2 + (y / sy) ** 2 + (z / sz) ** 2) / 3.0)
    d1 = math.sqrt(((k1x / sx) ** 2 + (k1y / sy) ** 2 + (k1z / sz) ** 2) / 3.0)
    h = max(0.01 * d0 / d1 if d0 > 1e-10 and d1 > 1e-10 else 1e-6, h_min)

    t = t0
    accepted = 0
    rejected = 0
    attempts = 0
    errold = 1e-4
    just_rejected = False

    while t < t1:
        if attempts >= _MAX_STEPS:
            raise IntegrationError(
                f"step budget of {_MAX_STEPS} exhausted at t = {t!r}",
                step_index=attempts,
                partial=partial(),
            )
        remaining = t1 - t
        last = h >= remaining
        if last:
            hs = remaining
        else:
            if h < h_min:
                raise IntegrationError(
                    f"step size underflow (h = {h!r}) at t = {t!r}; "
                    "the error estimate refuses to shrink with the step",
                    step_index=attempts,
                    partial=partial(),
                )
            hs = h
        attempts += 1

        x2 = x + hs * (_A21 * k1x)
        y2 = y + hs * (_A21 * k1y)
        z2 = z + hs * (_A21 * k1z)
        k2x, k2y, k2z = rhs(t + _C2 * hs, (x2, y2, z2))

        x3 = x + hs * (_A31 * k1x + _A32 * k2x)
        y3 = y + hs * (_A31 * k1y + _A32 * k2y)
        z3 = z + hs * (_A31 * k1z + _A32 * k2z)
        k3x, k3y, k3z = rhs(t + _C3 * hs, (x3, y3, z3))

        x4 = x + hs * (_A41 * k1x + _A42 * k2x + _A43 * k3x)
        y4 = y + hs * (_A41 * k1y + _A42 * k2y + _A43 * k3y)
        z4 = z + hs * (_A41 * k1z + _A42 * k2z + _A43 * k3z)
        k4x, k4y, k4z = rhs(t + _C4 * hs, (x4, y4, z4))

        x5 = x + hs * (_A51 * k1x + _A52 * k2x + _A53 * k3x + _A54 * k4x)
        y5 = y + hs * (_A51 * k1y + _A52 * k2y + _A53 * k3y + _A54 * k4y)
        z5 = z + hs * (_A51 * k1z + _A52 * k2z + _A53 * k3z + _A54 * k4z)
        k5x, k5y, k5z = rhs(t + _C5 * hs, (x5, y5, z5))

        x6 = x + hs * (_A61 * k1x + _A62 * k2x + _A63 * k3x + _A64 * k4x + _A65 * k5x)
        y6 = y + hs * (_A61 * k1y + _A62 * k2y + _A63 * k3y + _A64 * k4y + _A65 * k5y)
        z6 = z + hs * (_A61 * k1z + _A62 * k2z + _A63 * k3z + _A64 * k4z + _A65 * k5z)
        k6x, k6y, k6z = rhs(t + hs, (x6, y6, z6))

        xn = x + hs * (_B1 * k1x + _B3 * k3x + _B4 * k4x + _B5 * k5x + _B6 * k6x)
        yn = y + hs * (_B1 * k1y + _B3 * k3y + _B4 * k4y + _B5 * k5y + _B6 * k6y)
        zn = z + hs * (_B1 * k1z + _B3 * k3z + _B4 * k4z + _B5 * k5z + _B6 * k6z)
        tn = t1 if last else t + hs
        k7x, k7y, k7z = rhs(tn, (xn, yn, zn))

        ex = hs * (_E1 * k1x + _E3 * k3x + _E4 * k4x + _E5 * k5x + _E6 * k6x + _E7 * k7x)
        ey = hs * (_E1 * k1y + _E3 * k3y + _E4 * k4y + _E5 * k5y + _E6 * k6y + _E7 * k7y)
        ez = hs * (_E1 * k1z + _E3 * k3z + _E4 * k4z + _E5 * k5z + _E6 * k6z + _E7 * k7z)

        err = 0.0
        for comp, old, new in ((ex, x, xn), (ey, y, yn), (ez, z, zn)):
            scale = atol + rtol * max(abs(old), abs(new))
            err = max(err, abs(comp) / scale)

        if not math.isfinite(err):
            rejected += 1
            just_rejected = True
            h = hs * _FAC_MIN
            continue

        if err <= 1.0:
            if si < n_samples and samples[si] <= tn:
                # y(t + theta*hs) = x + theta*(dx + th1*(bx + theta*(cx + th1*qx)))
                # with th1 = 1 - theta, per component.
                dx, dy, dz = xn - x, yn - y, zn - z
                bx, by, bz = hs * k1x - dx, hs * k1y - dy, hs * k1z - dz
                cx, cy, cz = dx - hs * k7x - bx, dy - hs * k7y - by, dz - hs * k7z - bz
                qx = hs * (_D1 * k1x + _D3 * k3x + _D4 * k4x + _D5 * k5x + _D6 * k6x + _D7 * k7x)
                qy = hs * (_D1 * k1y + _D3 * k3y + _D4 * k4y + _D5 * k5y + _D6 * k6y + _D7 * k7y)
                qz = hs * (_D1 * k1z + _D3 * k3z + _D4 * k4z + _D5 * k5z + _D6 * k6z + _D7 * k7z)
                while si < n_samples and samples[si] <= tn:
                    theta = (samples[si] - t) / hs
                    if theta >= 1.0:
                        out_y.append((xn, yn, zn))
                    else:
                        th1 = 1.0 - theta
                        out_y.append((
                            x + theta * (dx + th1 * (bx + theta * (cx + th1 * qx))),
                            y + theta * (dy + th1 * (by + theta * (cy + th1 * qy))),
                            z + theta * (dz + th1 * (bz + theta * (cz + th1 * qz))),
                        ))
                    si += 1
            accepted += 1
            t = tn
            x, y, z = xn, yn, zn
            k1x, k1y, k1z = k7x, k7y, k7z
            if err == 0.0:
                fac = _FAC_MAX
            else:
                fac = _SAFETY * err**-_PI_ALPHA * errold**_PI_BETA
                fac = min(_FAC_MAX, max(_FAC_MIN, fac))
            if just_rejected:
                fac = min(fac, 1.0)
            h = hs * fac
            errold = max(err, 1e-4)
            just_rejected = False
        else:
            rejected += 1
            just_rejected = True
            fac = max(_FAC_MIN, min(1.0, _SAFETY * err**-0.2))
            h = hs * fac

    # A grid whose tail coincides with t1 is fully emitted inside the loop;
    # anything still pending would mean the grid exceeds the span.
    if si < n_samples:
        raise IntegrationError(
            f"sample grid extends past t1 = {t1!r} (next sample {samples[si]!r})",
            partial=partial(),
        )
    return sample_ts, np.asarray(out_y), meta()


def _solve(
    rhs: RHS,
    u0: float,
    u1: float,
    x0: Sequence[float],
    config: IntegratorConfig,
    grid: np.ndarray | None,
    sample_count: int,
    mode: str | None = None,
) -> tuple[np.ndarray, np.ndarray, IntegrationMeta]:
    """Run the configured method over [u0, u1] in the integration variable u.

    RK4 ignores `grid` and takes `sample_count - 1` uniform steps, recording
    every endpoint; DP54 samples on `grid`.
    Returns the u column, the states and the run's metadata.
    """
    if config.method is Method.RK4_FIXED:
        base = integrate_fixed(rhs, u0, u1, x0, sample_count - 1)
        return base.t, base.states, replace(base.meta, mode=mode)
    return _adaptive_solve(rhs, u0, u1, x0, config, grid, mode)


def integrate_adaptive(
    rhs: RHS,
    t0: float,
    t1: float,
    x0: State3 | Sequence[float],
    config: IntegratorConfig | None = None,
    plan: SamplingPlan | None = None,
) -> Trajectory:
    """Adaptive DP54 run over [t0, t1] sampled per `plan`."""
    config = config if config is not None else IntegratorConfig()
    plan = plan if plan is not None else SamplingPlan()
    if config.method is not Method.RK45_ADAPTIVE:
        raise ValueError("integrate_adaptive requires Method.RK45_ADAPTIVE")
    t0 = float(t0)
    t1 = float(t1)
    if not (math.isfinite(t0) and math.isfinite(t1) and t1 > t0):
        raise ValueError(f"need finite t1 > t0, got [{t0!r}, {t1!r}]")

    arr_t, states, meta = _solve(
        rhs, t0, t1, tuple(float(v) for v in x0), config, plan.grid(t0, t1), plan.sample_count
    )
    return Trajectory(arr_t, arr_t.copy(), states, meta)


def integrate_sl(
    params: SystemParams,
    gauge: Gauge,
    span: tuple[float, float],
    x0: State3 | Sequence[float],
    config: IntegratorConfig | None = None,
    plan: SamplingPlan | None = None,
    mode: SLMode = SLMode.SCALED_S,
) -> Trajectory:
    """Integrate the gauged SL system over an ordinary-time span.

    DIRECT_T solves the weighted equations in t; SCALED_S solves the
    autonomous dx/ds = f over the image of the span under the gauge.  The
    span is given in t for both, and t must start strictly above zero: the
    direct weight t**(-D) is singular at the origin and the gauge map is not
    invertible there.  Each row carries both times, related by the gauge map.

    Under DP54 both modes sample the same instants: the plan's grid is laid
    out in t, and SCALED_S samples at s_k = scale_time(t_k) and stores the
    original t grid alongside, which makes cross-mode rows directly
    comparable.  RK4 ignores the plan's spacing and takes sample_count - 1
    uniform steps in its own integration variable, so its samples are
    uniform in t under DIRECT_T and uniform in s under SCALED_S, and the two
    modes sample different instants.
    """
    config = config if config is not None else IntegratorConfig()
    plan = plan if plan is not None else SamplingPlan(SamplingMode.GEOMETRIC)
    t0, t1 = (float(span[0]), float(span[1]))
    if not (math.isfinite(t0) and math.isfinite(t1)) or t0 <= 0.0 or t1 <= t0:
        raise ValueError(f"SL span needs 0 < t0 < t1, got [{t0!r}, {t1!r}]")
    x0 = tuple(float(v) for v in x0)

    t_grid = plan.grid(t0, t1) if config.method is Method.RK45_ADAPTIVE else None
    if mode is SLMode.DIRECT_T:
        rhs, u0, u1, grid = make_gauged_field(params, gauge), t0, t1, t_grid
    else:
        rhs = make_field(SystemKind.SL, params)
        u0, u1 = scale_time(gauge, t0), scale_time(gauge, t1)
        grid = None if t_grid is None else np.asarray([scale_time(gauge, tv) for tv in t_grid])

    def trajectory(u: np.ndarray, states: np.ndarray, meta: IntegrationMeta) -> Trajectory:
        """Rows in the integration variable u, with both time columns."""
        if mode is SLMode.DIRECT_T:
            arr_t, arr_s = u, np.asarray([scale_time(gauge, tv) for tv in u])
        elif t_grid is not None:
            arr_t, arr_s = np.asarray(t_grid[: len(u)], dtype=float), u
        else:
            arr_t, arr_s = np.asarray([unscale_time(gauge, sv) for sv in u]), u
        return Trajectory(arr_t, arr_s, states, meta)

    try:
        u, states, meta = _solve(rhs, u0, u1, x0, config, grid, plan.sample_count, mode.value)
    except IntegrationError as exc:
        if exc.partial is not None:
            exc.partial = trajectory(exc.partial.t, exc.partial.states, exc.partial.meta)
        raise
    return trajectory(u, states, meta)
