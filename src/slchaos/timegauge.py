"""Power-law time gauge and the gauged right-hand side.

A gauge (mu, D) with mu > 0 and 0 < D < 1 defines the scaled time

    s = mu * t**(1 - D)

and the coefficient lam = mu * (1 - D).  Weighting an ordinary time
derivative by t**D / lam turns dx/dt into d/ds, so the gauged system

    dx/dt = lam * t**(-D) * f(x, y, z)

is equivalent to the autonomous system dx/ds = f under the substitution
above: the chain rule gives ds/dt = mu * (1 - D) * t**(-D) = lam * t**(-D).
That equivalence is the correctness anchor of every run, which solves in s
(`integrate.integrate_sl`), and criterion 1 checks it against the solve in t
(`integrate.integrate_direct_t`).

Real powers are evaluated as exp(p * log(t)) rather than t**p so that both
directions of the map use the identical primitive and round-trip cleanly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .dynamics import SystemKind, SystemParams, make_field

__all__ = [
    "Gauge",
    "scale_time",
    "scale_grid",
    "unscale_time",
    "make_gauged_field",
]


@dataclass(frozen=True)
class Gauge:
    """A validated (mu, D) pair; `lam` = mu * (1 - D) is always derived,
    never stored free.

    mu must be positive and finite; D must lie strictly inside (0, 1).  At
    D = 1 the scaled time degenerates to a constant and at D = 0 the gauge
    is the identity with no reparametrization content, so both endpoints are
    rejected.
    """

    mu: float
    D: float
    lam: float = field(init=False)

    def __post_init__(self) -> None:
        mu = float(self.mu)
        D = float(self.D)
        if not (math.isfinite(mu) and mu > 0.0):
            raise ValueError(f"gauge mu must be positive and finite, got {mu!r}")
        if not (math.isfinite(D) and 0.0 < D < 1.0):
            raise ValueError(f"gauge D must lie strictly in (0, 1), got {D!r}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "lam", mu * (1.0 - D))


def scale_time(gauge: Gauge, t: float | np.ndarray) -> float | np.ndarray:
    """Map ordinary time t >= 0 to scaled time s = mu * t**(1 - D): a float
    to a float, a 1-D array elementwise, by `scale_grid`."""
    s = scale_grid([gauge], np.atleast_1d(np.asarray(t, dtype=float)))[0]
    return s if np.ndim(t) else float(s[0])


def scale_grid(gauges: Sequence[Gauge], t: np.ndarray) -> list[np.ndarray]:
    """Map a 1-D array of ordinary times t >= 0 under each of `gauges`:
    entry i is s = mu_i * exp((1 - D_i) * log t) elementwise (0 at t = 0).
    The logs are taken once for every gauge; logs and exps both go through
    `math`, one value at a time, since numpy's may round apart."""
    ts = np.asarray(t, dtype=float)
    bad = ts[~(np.isfinite(ts) & (ts >= 0.0))]
    if bad.size:
        raise ValueError(f"scale_time needs finite t >= 0, got {bad[0].item()!r}")
    positive = ts > 0.0
    logs = np.fromiter(map(math.log, np.where(positive, ts, 1.0).tolist()), float, ts.size)
    exps = (np.fromiter(map(math.exp, ((1.0 - gauge.D) * logs).tolist()), float, ts.size) for gauge in gauges)
    return [np.where(positive, gauge.mu * e, 0.0) for gauge, e in zip(gauges, exps)]


def unscale_time(gauge: Gauge, s: float) -> float:
    """Inverse map: t = (s / mu)**(1 / (1 - D)) for s >= 0."""
    s = float(s)
    if not math.isfinite(s) or s < 0.0:
        raise ValueError(f"unscale_time needs finite s >= 0, got {s!r}")
    if s == 0.0:
        return 0.0
    return math.exp(math.log(s / gauge.mu) / (1.0 - gauge.D))


def make_gauged_field(
    params: SystemParams, gauge: Gauge
) -> Callable[[float, tuple[float, float, float]], tuple[float, float, float]]:
    """Bind (params, gauge) into a plain-tuple evaluator rhs(t, (x, y, z)) of
    the gauged right-hand side lam * t**(-D) * f(state): the output of
    `dynamics.make_field`'s SL closure, weighted.

    The weight is singular at t = 0, so the evaluator rejects t <= 0.
    """
    f = make_field(SystemKind.SL, params)
    lam, D = gauge.lam, gauge.D
    log = math.log
    exp = math.exp

    def rhs(t: float, state: tuple[float, float, float]) -> tuple[float, float, float]:
        if t <= 0.0:
            raise ValueError(f"gauged field needs t > 0, got {t!r}")
        w = lam * exp(-D * log(t))
        fx, fy, fz = f(t, state)
        return (w * fx, w * fy, w * fz)

    return rhs
