"""How far a run's rows can be trusted, against scipy's DOP853 at 1e-13.

A chaotic run leaves the true orbit at a departure time that grows like
ln(1/tol)/lambda_1: each decade of tol buys ln(10)/lambda_1 time units.  A
settled run writes its tail from the linear flow at a stable equilibrium,
which the switch radius keeps within TAIL_SHARE * tol of the orbit.  scipy
is a test-only reference and shares no code with the package's solver.
"""

import numpy as np
import pytest

from slchaos import analysis
from slchaos.dynamics import SystemKind, make_field
from slchaos.scenarios import derive, lookup_scenario, run_trajectory

SPROTT_LAMBDA_1 = 0.9056


def dop853(rhs, start, x0, at, atol):
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    ref = solve_ivp(rhs, (start, at[-1]), x0, method="DOP853", t_eval=at, rtol=1e-13, atol=atol)
    return ref.y.T


def test_departure_time_grows_as_log_of_one_over_tol():
    # lorenz-standard on [0, 40], 4001 rows.  The reference itself leaves the
    # true orbit by 1e-3 only near t = 32 (by extrapolation), after the
    # departure of every run below.
    base = lookup_scenario("lorenz-standard")
    rhs = make_field(SystemKind.SL, base.params)
    grid = np.linspace(0.0, 40.0, 4001)
    ref = dop853(lambda t, s: rhs(t, tuple(s)), 0.0, tuple(base.x0), grid, 1e-13)
    tols = 10.0 ** -np.arange(6, 12)
    departures = []
    for tol in tols:
        run = run_trajectory(derive(base, base.name, t1=40.0, sample_count=4001, tol=float(tol)))
        off = np.max(np.abs(run.states - ref), axis=1) > 1e-3
        departures.append(run.t[np.argmax(off)])
    # Measured 16.52, 16.64, 21.66, 28.50, 24.99 and 28.57.  The gain per
    # decade varies from -3.5 to 6.8, so only the fitted slope is checked:
    # it read 1.14 against 1/lambda_1 = 1.10.
    slope, _ = np.polyfit(np.log(1.0 / tols), departures, 1)
    assert 0.85 <= slope <= 1.35
    assert abs(slope * SPROTT_LAMBDA_1 - 1.0) <= 0.25


@pytest.mark.parametrize("name", ["sl-a2.35", "sl-a2", "sl-a1.5", "sl-a1.35", "lorenz-literal"])
def test_settled_tail_rows_are_within_the_share_of_tol(name, monkeypatch):
    # Capture the switch point and the tail the solve writes, then solve the
    # full field from there, in the deviation d = x - x* (which resolves d
    # far below the rounding of x).  Measured 4.4e-7 to 8.1e-7 times tol
    # over 454 to 1759 tail rows.
    taken = []
    flow = analysis.StableTail.flow

    def capture(tail, s1, state, times):
        rows = flow(tail, s1, state, times)
        taken.append((tail.point, s1, state, np.asarray(times), rows))
        return rows

    monkeypatch.setattr(analysis.StableTail, "flow", capture)
    sc = lookup_scenario(name)
    run = run_trajectory(sc)
    [(point, s1, state, times, rows)] = taken
    assert np.array_equal(run.states[-len(times) :], rows)
    a, b, c = sc.params.a, sc.params.b, sc.params.c
    px, py, pz = point

    def deviation(s, d):
        dx, dy, dz = d
        return (
            a * (dy - dx),
            (b - pz) * dx - dy - px * dz - dx * dz,
            py * dx + px * dy - c * dz + dx * dy,
        )

    ref = dop853(deviation, s1, np.subtract(state, point), times, 1e-30)
    assert np.max(np.abs(rows - np.asarray(point) - ref)) <= analysis.TAIL_SHARE * sc.tol
