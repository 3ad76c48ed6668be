"""The lorenz-standard registry run against a multi-precision Taylor reference.

The field dx/dt = (a(y - x), x(b - z) - y, xy - cz) is quadratic, so its
Taylor coefficients at a point follow exactly from Cauchy products:

    X_{n+1} = a (Y_n - X_n) / (n + 1)
    Y_{n+1} = (b X_n - Y_n - sum_i X_i Z_{n-i}) / (n + 1)
    Z_{n+1} = (sum_i X_i Y_{n-i} - c Z_n) / (n + 1)

Summed at mpmath precision they give the orbit from the run's own float
start and coefficients.  The package's Taylor driver runs the same
recurrence in float64 at a lower order, but shares no code with this
reference.  The reference is trusted as far as two settings of order and
precision agree.
"""

import math

import numpy as np
import pytest

from slchaos.scenarios import run_trajectory, scenario_registry

H_MAX = 0.03


def taylor_reference(params, x0, times, order, digits):
    """The orbit of the quadratic field from `x0` at `times[0]`, at each of
    `times`, by Taylor steps of at most H_MAX that land on every time."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits):
        a, b, c = (mpmath.mpf(float(v)) for v in (params.a, params.b, params.c))
        x, y, z = (mpmath.mpf(float(v)) for v in x0)
        rows = [(x, y, z)]
        for t0, t1 in zip(times, times[1:]):
            n = math.ceil((t1 - t0) / H_MAX)
            h = (mpmath.mpf(float(t1)) - mpmath.mpf(float(t0))) / n
            for _ in range(n):
                X, Y, Z = [x], [y], [z]
                for k in range(order):
                    xz = mpmath.fsum(X[i] * Z[k - i] for i in range(k + 1))
                    xy = mpmath.fsum(X[i] * Y[k - i] for i in range(k + 1))
                    X.append(a * (Y[k] - X[k]) / (k + 1))
                    Y.append((b * X[k] - Y[k] - xz) / (k + 1))
                    Z.append((xy - c * Z[k]) / (k + 1))
                x, y, z = (mpmath.polyval(coeffs[::-1], h) for coeffs in (X, Y, Z))
            rows.append((x, y, z))
        return np.array([[float(v) for v in row] for row in rows])


def test_lorenz_standard_rows_follow_the_taylor_reference():
    sc = scenario_registry()["lorenz-standard"]
    run = run_trajectory(sc)
    # Every 10th row up to t = 10: nearly all sit between step ends, so
    # they come from the dense output.
    rows = np.flatnonzero(run.t <= 10.0)[::10]
    times = run.t[rows].tolist()
    ref = taylor_reference(sc.params, run.states[0], times, order=25, digits=30)
    check = taylor_reference(sc.params, run.states[0], times, order=35, digits=40)
    assert np.max(np.abs(ref - check)) < 1e-12
    err = np.max(np.abs(run.states[rows] - ref), axis=1)
    # Measured: 6.9e-9 up to t = 5 and 7.6e-9 up to t = 10, growing with
    # the largest Lyapunov exponent.
    assert np.max(err[run.t[rows] <= 5.0]) < 2e-7
    assert np.max(err) < 1e-6


def test_continuous_extension_follows_the_taylor_reference_within_one_step(monkeypatch):
    # The test above compares rows with the true orbit from t = 0, so the
    # solve's global error hides the dense output's own.  Here each point is
    # compared with the orbit from its step's recorded start state at its
    # recorded start time, so only one step's error is left: that of the
    # step's Taylor polynomial, at theta = 0.25, 0.5 and 0.75 of about 50
    # recorded steps (each record row is t, h, the step count and the
    # coefficients X_0..X_p, Y_0..Y_p, Z_0..Z_p).
    from slchaos import integrate

    sc = scenario_registry()["lorenz-standard"]
    dense = integrate._dense
    seen = []
    monkeypatch.setattr(integrate, "_dense", lambda steps, times: seen.append(steps) or dense(steps, times))
    run_trajectory(sc)
    steps = seen[0]
    width = (steps.shape[1] - 3) // 3
    thetas = (0.25, 0.5, 0.75)
    worst = 0.0
    for row in steps[:: len(steps) // 50].tolist():
        t, h = row[0], row[1]
        times = [t + theta * h for theta in thetas]
        rows = dense(steps, np.array(times))
        start = (row[3], row[3 + width], row[3 + 2 * width])
        ref = taylor_reference(sc.params, start, [t, *times], order=25, digits=30)
        worst = max(worst, float(np.max(np.abs(rows - ref[1:]))))
    # Measured: 2.2e-11 at order 12.  Any coefficient up to order 8 scaled
    # by 0.9 fails (order 8 reads 1.2e-7, order 2 reads 4.0e-2); from order
    # 10 up the term itself is below the bound (1.5e-9 at order 10).
    assert worst < 2e-8
