"""Reference values that share no code with slchaos.

- lambda_max of a contracting sl run: the origin's leading eigenvalue in
  closed form, (-(a+1) + sqrt((a-1)^2 + 4ab)) / 2 (or -c if larger);
- lambda_max of lorenz-literal: the largest real part from
  `numpy.linalg.eigvals` of a Jacobian written here, at the attracting
  equilibrium;
- lambda_max of lorenz-standard: 0.9056 (Sprott, *Chaos and Time-Series
  Analysis*);
- trajectories: scipy `solve_ivp` DOP853 at rtol = atol = 1e-13 on the field
  written here, with dense output so the written rows can be compared at
  whatever times they carry.  Gauged runs are solved in scaled time
  s = mu * t**(1 - D).  For lorenz-standard only t <= 10 is compared: past
  that no pointwise reference is meaningful at tolerance 1e-9.

scipy is imported only here, by the orchestrating process, never by the
process that runs the workload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

from workloads import Case

LORENZ_COEFFS = {"lorenz-standard": (10.0, 28.0, 8.0 / 3.0), "lorenz-literal": (10.0, 8.0 / 3.0, 28.0)}
SPROTT_LAMBDA = 0.9056
LORENZ_POINTWISE_T = 10.0
RTOL = ATOL = 1e-13


def coefficients(case: Case) -> tuple[float, float, float]:
    return LORENZ_COEFFS.get(case.system, (case.a, case.b, case.c))


def _jacobian(a: float, b: float, c: float, x: float, y: float, z: float) -> np.ndarray:
    return np.array([[-a, a, 0.0], [b - z, -1.0, -x], [y, x, -c]])


def reference_lambda(case: Case) -> float:
    a, b, c = coefficients(case)
    if case.system == "lorenz-standard":
        return SPROTT_LAMBDA
    if case.system == "lorenz-literal":
        r = math.sqrt(c * (b - 1.0))
        return float(np.linalg.eigvals(_jacobian(a, b, c, r, r, b - 1.0)).real.max())
    if b >= 1.0:
        raise ValueError(f"{case.name}: no closed-form exponent, b = {b} does not contract")
    return max((-(a + 1.0) + math.sqrt((a - 1.0) ** 2 + 4.0 * a * b)) / 2.0, -c)


@dataclass(frozen=True)
class Reference:
    case: Case
    lam: float
    solution: object  # scipy OdeSolution over the integration variable

    def states_at(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Reference states at ordinary times `t`, and the mask of rows for
        which a pointwise comparison is meaningful."""
        keep = np.ones(t.shape, dtype=bool)
        if self.case.system == "lorenz-standard":
            keep = t <= LORENZ_POINTWISE_T
        if self.case.gauge is not None:
            mu, D = self.case.gauge
            t = mu * t ** (1.0 - D)
        return self.solution(t[keep]).T, keep


def prepare(case: Case) -> Reference:
    a, b, c = coefficients(case)

    def field(_: float, u: np.ndarray) -> list[float]:
        x, y, z = u
        return [a * (y - x), x * (b - z) - y, x * y - c * z]

    t0, t1 = case.span
    if case.system == "lorenz-standard":
        t1 = min(t1, LORENZ_POINTWISE_T)
    if case.gauge is not None:
        mu, D = case.gauge
        t0, t1 = mu * t0 ** (1.0 - D), mu * t1 ** (1.0 - D)
    sol = solve_ivp(field, (t0, t1), case.x0, method="DOP853", rtol=RTOL, atol=ATOL, dense_output=True)
    if not sol.success:
        raise RuntimeError(f"{case.name}: reference solve failed: {sol.message}")
    return Reference(case, reference_lambda(case), sol.sol)


@dataclass(frozen=True)
class Accuracy:
    name: str
    lam: float
    lam_ref: float
    lam_err: float
    rows: int
    sample_err: float


def measure(ref: Reference, root: Path) -> Accuracy:
    """Compare one case's written CSV (parsed with numpy) and lambda_max
    with the reference."""
    case = ref.case
    rows = np.loadtxt(case.csv(root), delimiter=",", skiprows=1, ndmin=2)
    expect, keep = ref.states_at(rows[:, 0])
    err = float(np.abs(rows[keep, 2:5] - expect).max())
    lam = case.lam(root)
    return Accuracy(case.name, lam, ref.lam, abs(lam - ref.lam), int(keep.sum()), err)
