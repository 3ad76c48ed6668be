"""Stability and chaos diagnostics.

Each 3x3 Jacobian gets one LAPACK eigendecomposition (`numpy.linalg.eig`,
in `_eig`), which gives both its spectrum and its eigenvectors; the digits
follow the installed LAPACK.  On top of that sit Newton refinement of
fixed points, a twin-trajectory largest-Lyapunov estimator with periodic
renormalization, a raw two-run divergence probe, and a report for the
fixed-point-existence property that every parameter choice is expected to
satisfy.  That report is the one table of the closed-form equilibria with
their spectra, classes and tails: the JSON report, the `fixed-points`
command and the settle rule below all read it, so a fixed point's class is
decided in one place.  It is built once per coefficient set and shared.

Each stable equilibrium of that table also holds its exact linear flow
(its tail), built from the eigenvectors of the same decomposition,
with a convergence radius: an orbit that enters it provably converges to
that equilibrium.  Entering that radius is the one settle rule.  The Taylor
integrator finishes such orbits on the linear flow, inside the part of the
radius where the flow is accurate to a share of its tolerance.  The
estimator, `max_lyapunov` (the one entry), carries the reference orbit
alone first, keeping its state at each renormalization boundary (three
doubles), and checks it against the system's tails: it stops at the first
boundary inside a radius, before the twin takes a step, as the largest
exponent of a settled orbit is the leading real part of the equilibrium's
spectrum, so no twin run can improve on it.  Orbits that settle nowhere,
only on a saddle or a marginal point, or on a stable point without a usable
eigenbasis (a defective one), then get the full twin run against the
stored states.

The estimator and the divergence probe step their orbits with `_carry`,
fixed RK4 of the quadratic field written out as one straight line: it
gives the doubles `rk4_step` gives on `make_field`'s closure, without a
call per stage.  A budget of more RK4 steps per orbit than a solve may take
(`integrate._MAX_STEPS`, 10**7) is a ValueError before the first step, and
an estimate the twin cannot produce (no growth sample, or no finite mean
and spread) is an ArithmeticError, never an infinity.

Gauged systems are analyzed in scaled time: under s = mu * t**(1 - D) the
system is autonomous, so exponents quoted per unit s are honest constants,
whereas per-unit-t rates would decay with the weight t**(-D).  Every
estimate records which time variable it is measured in.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from array import array
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import (
    Equilibrium,
    State3,
    SystemKind,
    SystemParams,
    effective_params,
    equilibria,
    jacobian,
    make_field,
)
# `_MAX_STEPS`, the solve's step budget, is bound once here: a budget
# lowered on `integrate` to make a solve fail leaves the estimators' alone.
from .integrate import _MAX_STEPS, IntegrationError

# Imported only so the benchmark's tracer finds `analysis.rk4_step`; the
# estimators step with `_carry`.
from .integrate import rk4_step  # noqa: F401

__all__ = [
    "Spectrum3",
    "LyapunovEstimate",
    "SeparationSeries",
    "ConjectureReport",
    "NewtonError",
    "eigenvalues_3x3",
    "char_poly_residual",
    "classify_spectrum",
    "newton_fixed_point",
    "check_lyapunov_budget",
    "max_lyapunov",
    "divergence_probe",
    "separation_slope",
    "conjecture_report",
    "StableTail",
    "stable_tails",
]

# Real parts closer to zero than this are treated as marginal rather than
# guessed at; double-precision eigenvalues cannot support a sign claim there.
MARGINAL_REAL_PART = 1e-9
# Settled tails: the share of the tolerance the linear flow may leave out,
# and the largest eigenbasis condition number that may carry it.
TAIL_SHARE = 1e-2
TAIL_MAX_CONDITION = 1e4

# Twin-trajectory geometry: the twin's start offset, the widest RK4 step, the
# share of growth samples discarded as transient, the divergence-probe sample
# count, and the growth in decades above which `separation_slope` treats a
# separation record as chaotic.
LYAPUNOV_OFFSET = 1e-8
RK4_DT = 0.01
TRANSIENT_FRACTION = 0.1
PROBE_SAMPLES = 400
GROWTH_DECADES = 4.0


@dataclass(frozen=True)
class Spectrum3:
    """Eigenvalues of a 3x3 real matrix, sorted by descending real part,
    ties broken by descending imaginary part."""

    eigenvalues: tuple[complex, complex, complex]

    @property
    def real_parts(self) -> tuple[float, float, float]:
        e = self.eigenvalues
        return (e[0].real, e[1].real, e[2].real)


@dataclass(frozen=True)
class LyapunovEstimate:
    """Largest-exponent estimate with its averaging geometry.

    The horizon must cover at least 100 renormalization intervals; shorter
    runs produce numbers too noisy to report.  It is the budget that was
    asked for, whether or not the estimator spent all of it.  `estimator`
    says where the number comes from: "twin" is the mean growth rate of a
    twin run, "equilibrium" the leading real part of the spectrum of the
    stable equilibrium the orbit settled on, with `sample_stddev` 0.0.
    `settled_at` is the first renormalization boundary, in `time_variable`,
    at which the reference state lay within that equilibrium's convergence
    radius (`StableTail.radius2`), and None for a twin estimate.
    """

    lambda_max: float
    horizon: float
    renorm_interval: float
    sample_stddev: float
    time_variable: str = "t"
    estimator: str = "twin"
    settled_at: float | None = None

    def __post_init__(self) -> None:
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon!r}")
        if not (self.renorm_interval > 0.0 and math.isfinite(self.renorm_interval)):
            raise ValueError(f"renorm_interval must be positive and finite, got {self.renorm_interval!r}")
        if self.horizon < 100.0 * self.renorm_interval:
            raise ValueError(
                f"horizon {self.horizon!r} covers fewer than 100 renormalization "
                f"intervals of {self.renorm_interval!r}"
            )
        if self.time_variable not in ("t", "s"):
            raise ValueError(f"time_variable must be 't' or 's', got {self.time_variable!r}")
        if self.estimator not in ("twin", "equilibrium"):
            raise ValueError(
                f"estimator must be 'twin' or 'equilibrium', got {self.estimator!r}"
            )


@dataclass(frozen=True)
class SeparationSeries:
    """Twin-run separation ||x_a - x_b||_2 sampled along the run."""

    time: np.ndarray
    separation: np.ndarray
    delta0: float
    time_variable: str = "t"


@dataclass(frozen=True)
class ConjectureReport:
    """Outcome of checking that a parameter choice admits at least one
    fixed point, with each fixed point classified.  The origin is a zero of
    the field for every (a, b, c), so the expected verdict is always
    'satisfied'; the report makes that check explicit.  `spectra` and
    `classes` are index-aligned with `equilibria_found`: the spectrum of
    the Jacobian at each equilibrium and its `classify_spectrum` class;
    `tails` the stable ones' linear flows."""

    equilibria_found: tuple[Equilibrium, ...]
    spectra: tuple[Spectrum3, ...]
    classes: tuple[str, ...]
    tails: tuple[StableTail, ...]
    verdict: str
    note: str


class NewtonError(RuntimeError):
    """Newton refinement failed: singular Jacobian, divergence, or no
    convergence within the iteration budget.  Carries the last iterate."""

    def __init__(self, message: str, last_point: tuple[float, float, float], residual: float):
        super().__init__(message)
        self.last_point = last_point
        self.residual = residual


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


def char_poly_residual(matrix: np.ndarray, spectrum: Spectrum3) -> float:
    """max_i |p(lambda_i)| for the characteristic polynomial of `matrix`."""
    p, q, r = _char_poly_coeffs(np.asarray(matrix, dtype=float))
    worst = 0.0
    for lam in spectrum.eigenvalues:
        worst = max(worst, abs(((lam + p) * lam + q) * lam + r))
    return worst


def _char_poly_coeffs(m: np.ndarray) -> tuple[float, float, float]:
    # The coefficients of lambda**3 + p*lambda**2 + q*lambda + r, written out
    # from the matrix entries, so the residual shares no code with LAPACK.
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m.tolist()
    tr = m00 + m11 + m22
    minors = (m11 * m22 - m12 * m21) + (m00 * m22 - m02 * m20) + (m00 * m11 - m01 * m10)
    det = (
        m00 * (m11 * m22 - m12 * m21)
        - m01 * (m10 * m22 - m12 * m20)
        + m02 * (m10 * m21 - m11 * m20)
    )
    return (-tr, minors, -det)


def _eig(matrix: np.ndarray | Sequence[Sequence[float]]) -> tuple[Spectrum3, np.ndarray]:
    """The spectrum of a real 3x3 matrix and its unit eigenvectors, the
    columns of a complex V index-aligned with it, from one LAPACK call
    (`numpy.linalg.eig`).  ValueError for a wrong shape or a non-finite
    entry; ArithmeticError when LAPACK fails or returns a non-finite
    eigenvalue."""
    m = np.asarray(matrix, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    try:
        values, vectors = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(f"LAPACK failed ({exc}): no finite spectrum") from None
    if not np.isfinite(values).all():
        raise ArithmeticError("LAPACK returned a non-finite eigenvalue: no finite spectrum")
    values = [complex(v) for v in values.tolist()]
    order = sorted(range(3), key=lambda i: (-values[i].real, -values[i].imag))
    spectrum = Spectrum3(tuple(values[i] for i in order))
    return spectrum, np.asarray(vectors, dtype=complex)[:, order]


def eigenvalues_3x3(matrix: np.ndarray | Sequence[Sequence[float]]) -> Spectrum3:
    """Spectrum of a real 3x3 matrix, from LAPACK (`_eig`)."""
    return _eig(matrix)[0]


def classify_spectrum(spectrum: Spectrum3) -> str:
    """'stable node' / 'stable focus-node' / 'unstable' / 'saddle' /
    'marginal' from the sign pattern of the real parts."""
    res = spectrum.real_parts
    if any(abs(v) < MARGINAL_REAL_PART for v in res):
        return "marginal"
    if all(v < 0.0 for v in res):
        if any(lam.imag != 0.0 for lam in spectrum.eigenvalues):
            return "stable focus-node"
        return "stable node"
    if all(v > 0.0 for v in res):
        return "unstable"
    return "saddle"


# ---------------------------------------------------------------------------
# Newton refinement
# ---------------------------------------------------------------------------


def newton_fixed_point(
    kind: SystemKind,
    params: SystemParams | None,
    guess: State3 | Sequence[float],
    tol: float = 1e-12,
    max_iter: int = 50,
) -> Equilibrium:
    """Refine `guess` to a zero of the field with ||f|| <= tol.

    Full Newton steps on the exact Jacobian.  Raises NewtonError on a
    singular Jacobian, a non-finite iterate, or failure to reach the
    tolerance within `max_iter` iterations; the error carries the last
    iterate and its residual so callers can report where the search died.
    """
    rhs = make_field(kind, params)
    pt = np.array([float(v) for v in guess], dtype=float)
    f = rhs(0.0, pt)
    res = math.hypot(*f)
    for _ in range(max_iter):
        if res <= tol:
            return Equilibrium(State3(pt[0], pt[1], pt[2]), res, "")
        jac = jacobian(kind, params, pt)
        try:
            delta = np.linalg.solve(jac, np.asarray(f, dtype=float))
        except np.linalg.LinAlgError as exc:
            raise NewtonError(
                f"singular Jacobian at {tuple(pt)!r}", tuple(pt), res
            ) from exc
        pt = pt - delta
        if not np.all(np.isfinite(pt)):
            raise NewtonError(
                f"iterate diverged to non-finite values from guess {tuple(guess)!r}",
                tuple(pt),
                math.inf,
            )
        f = rhs(0.0, pt)
        res = math.hypot(*f)
    if res <= tol:
        return Equilibrium(State3(pt[0], pt[1], pt[2]), res, "")
    raise NewtonError(
        f"no convergence to ||f|| <= {tol!r} within {max_iter} iterations "
        f"(last residual {res:.3e})",
        tuple(pt),
        res,
    )


# ---------------------------------------------------------------------------
# Lyapunov estimation
# ---------------------------------------------------------------------------


def _time_variable(kind: SystemKind) -> str:
    """SL runs are measured in scaled time, where the system is autonomous;
    Lorenz runs in ordinary time."""
    return "s" if kind is SystemKind.SL else "t"


def _carry(params: SystemParams, state: tuple, interval: float) -> tuple:
    """Carry one state across `interval` in equal fixed RK4 steps no wider
    than RK4_DT of the field a(y-x), x(b-z)-y, xy-cz with `params`'
    coefficients: the stepper both divergence estimators share.

    Each step is `rk4_step` on `make_field`'s closure written out as one
    straight line, with the same expressions in the same order, so it
    gives the same doubles without a call per stage.  The field is
    autonomous, so each step starts at time 0.0, and a non-finite state
    raises the IntegrationError `rk4_step` raises.  It is checked once, at
    the end: a non-finite component stays so under x + w * (...)."""
    a, b, c = params.a, params.b, params.c
    n_sub = max(1, math.ceil(interval / RK4_DT))
    h = interval / n_sub
    hh = 0.5 * h
    w = h / 6.0
    x, y, z = state
    for _ in range(n_sub):
        k1x, k1y, k1z = a * (y - x), x * (b - z) - y, x * y - c * z
        sx, sy, sz = x + hh * k1x, y + hh * k1y, z + hh * k1z
        k2x, k2y, k2z = a * (sy - sx), sx * (b - sz) - sy, sx * sy - c * sz
        sx, sy, sz = x + hh * k2x, y + hh * k2y, z + hh * k2z
        k3x, k3y, k3z = a * (sy - sx), sx * (b - sz) - sy, sx * sy - c * sz
        sx, sy, sz = x + h * k3x, y + h * k3y, z + h * k3z
        k4x, k4y, k4z = a * (sy - sx), sx * (b - sz) - sy, sx * sy - c * sz
        x = x + w * (k1x + 2.0 * (k2x + k3x) + k4x)
        y = y + w * (k1y + 2.0 * (k2y + k3y) + k4y)
        z = z + w * (k1z + 2.0 * (k2z + k3z) + k4z)
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise IntegrationError("non-finite state while stepping from t = 0.0")
    return (x, y, z)


def check_lyapunov_budget(horizon: float, renorm_interval: float) -> int:
    """The number of renormalization intervals in `horizon`, checked before
    anything is integrated: ValueError for a geometry `LyapunovEstimate`
    refuses, or for more RK4 steps per orbit than a solve may take when
    `_carry` crosses each interval.  `max_lyapunov` and `divergence_probe`
    check their budgets with it, and a run its report's before the solve."""
    horizon, renorm_interval = float(horizon), float(renorm_interval)
    LyapunovEstimate(math.nan, horizon, renorm_interval, 0.0)
    # A float, inf when the interval count overflows.
    intervals = round(horizon / renorm_interval, 0)
    steps = intervals * max(1, math.ceil(renorm_interval / RK4_DT))
    if steps > _MAX_STEPS:
        raise ValueError(f"{steps:.6g} RK4 steps per orbit exceed the step budget of {_MAX_STEPS}")
    return int(intervals)


def max_lyapunov(
    kind: SystemKind,
    params: SystemParams | None,
    x0: State3 | Sequence[float],
    horizon: float,
    renorm_interval: float,
) -> LyapunovEstimate:
    """Benettin-style largest Lyapunov exponent of a system, measured in its
    natural time variable (`_time_variable`), each interval carried by
    `_carry` with the system's effective coefficients (`effective_params`).

    The reference orbit runs first, alone, and its state at the start and
    at every `renorm_interval` boundary is kept (24 bytes each) and checked
    against the system's `stable_tails`.  The first time it lies within a
    tail's convergence radius, which no other tail's overlaps, the orbit has
    settled on that equilibrium: its leading real part -alpha is the
    estimate and the run stops there, before the twin takes a step.

    An orbit that never settles then gets its twin, displaced by
    LYAPUNOV_OFFSET along x and carried interval by interval.  At each
    boundary the log growth of its separation from the stored reference
    state is recorded and the twin is pulled back to that distance along
    the current separation direction.  The first TRANSIENT_FRACTION of the
    growth samples is discarded; the mean of the rest is the estimate and
    their standard deviation is reported as a quality signal.
    """
    p = effective_params(kind, params)
    n_intervals = check_lyapunov_budget(horizon, renorm_interval)
    budget = LyapunovEstimate(math.nan, float(horizon), float(renorm_interval), 0.0, _time_variable(kind))
    tails = stable_tails(p)

    ref = tuple(float(v) for v in x0)
    # The reference at every boundary, 3 doubles each, for the twin pass.
    states = array("d", ref)
    for i in range(n_intervals):
        for tail in tails:
            px, py, pz = tail.point
            dx, dy, dz = ref[0] - px, ref[1] - py, ref[2] - pz
            # A non-finite state fails the comparison.
            if dx * dx + dy * dy + dz * dz <= tail.radius2:
                return dataclasses.replace(
                    budget, lambda_max=-tail.alpha, estimator="equilibrium", settled_at=i * renorm_interval
                )
        ref = _carry(p, ref, renorm_interval)
        states.extend(ref)

    twin = (states[0] + LYAPUNOV_OFFSET, states[1], states[2])
    rates: list[float] = []
    for i in range(n_intervals):
        twin = _carry(p, twin, renorm_interval)
        rx, ry, rz = states[3 * i + 3 : 3 * i + 6]
        dx, dy, dz = twin[0] - rx, twin[1] - ry, twin[2] - rz
        d = math.hypot(dx, dy, dz)
        if d == 0.0:
            # The twins collapsed onto each other below double resolution;
            # restart the displacement and skip the unusable sample.
            twin = (rx + LYAPUNOV_OFFSET, ry, rz)
            continue
        rates.append(math.log(d / LYAPUNOV_OFFSET) / renorm_interval)
        f = LYAPUNOV_OFFSET / d
        twin = (rx + dx * f, ry + dy * f, rz + dz * f)

    discard = int(len(rates) * TRANSIENT_FRACTION)
    kept = rates[discard:]
    if not kept:
        raise ArithmeticError(f"the twin collapsed in every renormalization interval of {renorm_interval!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        mean, spread = float(np.mean(kept)), float(np.std(kept))
    if not (math.isfinite(mean) and math.isfinite(spread)):
        raise ArithmeticError(f"no finite growth rate at renormalization interval {renorm_interval!r}")
    return dataclasses.replace(budget, lambda_max=mean, sample_stddev=spread)


def divergence_probe(
    kind: SystemKind,
    params: SystemParams | None,
    x0: State3 | Sequence[float],
    delta0: float,
    horizon: float,
) -> SeparationSeries:
    """Raw separation of two runs started `delta0` apart along x.

    No renormalization: this is the plain picture of how fast nearby states
    drift apart (or together), sampled PROBE_SAMPLES times over the horizon
    in the same time variable max_lyapunov uses, under its budget check,
    `check_lyapunov_budget`, with each sample interval as an interval.
    """
    if not (delta0 > 0.0 and math.isfinite(delta0)):
        raise ValueError(f"delta0 must be positive, got {delta0!r}")
    sample_interval = horizon / PROBE_SAMPLES
    check_lyapunov_budget(horizon, sample_interval)
    p = effective_params(kind, params)
    ax, ay, az = (float(v) for v in x0)
    a = (ax, ay, az)
    b = (a[0] + delta0, a[1], a[2])
    times = [0.0]
    seps = [delta0]
    for i in range(PROBE_SAMPLES):
        a = _carry(p, a, sample_interval)
        b = _carry(p, b, sample_interval)
        times.append((i + 1) * sample_interval)
        seps.append(math.hypot(b[0] - a[0], b[1] - a[1], b[2] - a[2]))
    return SeparationSeries(np.asarray(times), np.asarray(seps), delta0, _time_variable(kind))


def separation_slope(series: SeparationSeries) -> float:
    """Least-squares slope of ln(separation) against time, fitted over the
    linear-growth window.

    A separation record from a chaotic run has three regimes: an alignment
    transient where the offset rotates into the expanding direction (the
    log-separation wanders), clean exponential growth, and saturation at
    the attractor diameter.  When the series grows by at least
    GROWTH_DECADES decades overall, the fit window is bracketed off the
    saturation level S = max separation: it ends where the separation first
    reaches S/100 and starts at the last moment before that where it still
    sat within 100 * delta0.  A series that never grows that much (a
    contracting system) has no such regimes; then the whole record minus
    the first tenth is fitted, which is what the sign checks against
    lambda_max use.  Zero separations cannot enter a log fit and are
    dropped.
    """
    sep = series.separation
    t = series.time
    peak = float(sep.max())
    if peak >= series.delta0 * 10.0**GROWTH_DECADES:
        high = np.nonzero(sep >= 0.01 * peak)[0]
        end = int(high[0]) + 1
        low = np.nonzero(sep[:end] <= 100.0 * series.delta0)[0]
        start = int(low[-1]) if low.size else 0
    else:
        start = len(sep) // 10
        end = len(sep)
    tw = t[start:end]
    sw = sep[start:end]
    keep = sw > 0.0
    if int(keep.sum()) < 2:
        raise ValueError("separation series has fewer than two usable samples in the fit window")
    slope = np.polyfit(tw[keep], np.log(sw[keep]), 1)[0]
    return float(slope)


# ---------------------------------------------------------------------------
# fixed-point existence
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=128)
def conjecture_report(params: SystemParams) -> ConjectureReport:
    """Check that the parameter choice admits at least one fixed point, and
    classify each one.

    Uses the closed-form solution set, which `equilibria` lists with the
    origin first or raises, so the verdict is 'satisfied' for every input
    that returns.  Each equilibrium's Jacobian is built and decomposed once
    (`_eig`); that gives its spectrum, the spectrum's class and, at a stable
    node or focus-node, the tail, with V^-1 from `numpy.linalg.inv`.  This
    is the one place the equilibria are listed and classified.  Raises what
    `equilibria` raises, and ArithmeticError for a Jacobian without a
    finite spectrum.

    At a stable equilibrium x* the field is exactly J d + q(d) in d = x - x*,
    with q(d) = (0, -dx dz, dx dy), so |q(d)| <= |d|**2 / 2.  With the
    leading real part -alpha < 0 and K = ||V||_F ||V^-1||_F >= ||exp(J s)||
    exp(alpha s), an orbit starting at |d| = r <= alpha / (2 K**2) stays
    within 2 K r exp(-alpha s) of x*, and the linear flow from the same start
    is off by at most 2 K**3 r**2 / alpha at every later s.  The tail's
    convergence radius is the smaller of alpha / (4 K**2) and half the
    distance to any other equilibrium, so x* is the nearest one;
    `StableTail.switch_radius2` cuts it to a tolerance.  An equilibrium
    whose V is singular or whose K is above TAIL_MAX_CONDITION (a defective
    one, or coalescing eigenvalues) gets no tail.

    The report is immutable and memoised on the (frozen, hashable)
    coefficients, so every reader of one run, and every run of the same
    coefficients, shares one build; `conjecture_report.cache_clear()` empties
    the memo.  Errors are not memoised.
    """
    eqs = tuple(equilibria(params))
    points = [tuple(eq.point) for eq in eqs]
    decompositions = [_eig(jacobian(SystemKind.SL, params, point)) for point in points]
    spectra = tuple(spec for spec, _ in decompositions)
    classes = tuple(classify_spectrum(spec) for spec in spectra)
    tails = []
    for point, (spec, v), cls in zip(points, decompositions, classes):
        if not cls.startswith("stable"):
            continue
        try:
            w = np.linalg.inv(v)
        except np.linalg.LinAlgError:
            continue
        # ||V||_F ||V^-1||_F with unit columns; hypot neither overflows nor warns.
        cond = math.sqrt(3.0) * math.hypot(*w.real.ravel().tolist(), *w.imag.ravel().tolist())
        if not cond <= TAIL_MAX_CONDITION:
            continue
        alpha = -spec.real_parts[0]
        apart = min((math.dist(point, q) for q in points if q != point), default=math.inf)
        # Products, not `**`: a square past the largest double is inf, not an OverflowError.
        reach, half = alpha / (4.0 * cond * cond), 0.5 * apart
        modes = zip(spec.eigenvalues, map(tuple, v.T.tolist()), map(tuple, w.tolist()))
        tails.append(StableTail(point, min(reach * reach, half * half), alpha, cond, tuple(modes)))
    count = len(eqs)
    kinds = "origin only" if count == 1 else f"origin and symmetric pair ({count} total)"
    return ConjectureReport(eqs, spectra, classes, tuple(tails), "satisfied", kinds)


# ---------------------------------------------------------------------------
# linear flow at stable equilibria
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StableTail:
    """The linear flow at one stable equilibrium, held as its modes: each
    eigenvalue with its column of V and its row of V^-1, with the leading
    real part -`alpha` and the eigenbasis condition `cond` (K).  An orbit
    that comes within sqrt(`radius2`), its convergence radius, of `point`
    converges to it (`conjecture_report`)."""

    point: tuple[float, float, float]
    radius2: float
    alpha: float
    cond: float
    modes: tuple[tuple[complex, tuple[complex, ...], tuple[complex, ...]], ...]

    def switch_radius2(self, tol: float) -> float:
        """The square of the radius within which the linear flow is off by
        at most TAIL_SHARE * `tol`: the convergence radius, cut to where the
        bound 2 K**3 r**2 / alpha stays below that share."""
        return min(TAIL_SHARE * tol * self.alpha / (2.0 * self.cond**3), self.radius2)

    def flow(
        self, s1: float, state: tuple[float, float, float], times: np.ndarray | Sequence[float]
    ) -> np.ndarray:
        """The linear flow through `state` at time `s1` at each of `times`, an
        (n, 3) array: the real part of sum_i v_i c_i exp(lambda_i (s - s1)),
        c = V^-1 (state - point), in the scalar order with `math`'s exp, cos and
        sin (numpy's may round apart).  A real mode skips cos 0 = 1 and sin 0 = 0."""
        tau = np.asarray(times, dtype=float) - s1
        dx, dy, dz = (state[i] - self.point[i] for i in range(3))
        rows = np.zeros((tau.size, 3))
        for lam, v, w in self.modes:
            c = w[0] * dx + w[1] * dy + w[2] * dz
            a = np.array([vi * c for vi in v])
            g = np.fromiter(map(math.exp, (lam.real * tau).tolist()), float, tau.size)
            if lam.imag == 0.0:
                rows += np.multiply.outer(g, a.real)
            else:
                phase = (lam.imag * tau).tolist()
                gc = g * np.fromiter(map(math.cos, phase), float, tau.size)
                gs = g * np.fromiter(map(math.sin, phase), float, tau.size)
                rows += np.multiply.outer(gc, a.real) - np.multiply.outer(gs, a.imag)
        return rows + self.point


def stable_tails(params: SystemParams) -> tuple[StableTail, ...]:
    """The `conjecture_report` table's tails: the linear flow at each stable
    node or focus-node, with its convergence radius.  Coefficients without
    a finite closed-form equilibrium list or a finite spectrum get none: a
    tail only saves work, so it must never turn a run into an error."""
    try:
        return conjecture_report(params).tails
    except (ValueError, ArithmeticError):
        return ()
