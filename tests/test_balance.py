"""Time-average balance identities: exact checks on a run's statistics.

For any function F of the state, the average of dF/dt over [0, T] is
(F(T) - F(0)) / T exactly.  With the field (a(y-x), x(b-z)-y, xy-cz) and
F = x, z, x**2/2, y**2/2, z**2/2 this gives five linear identities among
the moments of the run.  They hold in s for a gauged run, where the field is
autonomous, and past the time at which the rows stop following the orbit
from x0 pointwise.  The averages here are trapezoid sums over the rows, so
the identities close to quadrature error only; they share no code with the
solver.
"""

import numpy as np
import pytest

from slchaos.dynamics import State3, SystemParams
from slchaos.integrate import integrate_sl
from slchaos.scenarios import derive, lookup_scenario, run_trajectory
from slchaos.timegauge import Gauge

LORENZ = (10.0, 28.0, 8.0 / 3.0)
# Largest residual relative to its identity's largest term.  The runs below
# measured 1.2e-5 and 9.9e-6; a coefficient off by 0.1% gives 1e-3.
BOUND = 1e-4


def balance_residuals(time, states, a, b, c):
    """|sum of terms| / max |term| for each of the five identities, with
    trapezoid averages over `time` and the boundary term (F(T) - F(0)) / T."""
    x, y, z = states.T
    T = time[-1] - time[0]
    dt = np.diff(time)

    def avg(g):
        return float(np.sum(dt * (g[1:] + g[:-1])) / (2.0 * T))

    def delta(F):
        return float(F[-1] - F[0]) / T

    xy = avg(x * y)
    identities = [
        (avg(y), -avg(x), -delta(x) / a),
        (xy, -c * avg(z), -delta(z)),
        (xy, -avg(x * x), -delta(x * x / 2.0) / a),
        (b * xy, -avg(x * y * z), -avg(y * y), -delta(y * y / 2.0)),
        (avg(x * y * z), -c * avg(z * z), -delta(z * z / 2.0)),
    ]
    return [abs(sum(terms)) / max(abs(v) for v in terms) for terms in identities]


def _lorenz_standard():
    traj = run_trajectory(lookup_scenario("lorenz-standard"))
    return traj.t, traj.states


def _gauged_lorenz():
    traj = integrate_sl(SystemParams(*LORENZ), Gauge(0.9, 2.0 / 3.0), (0.1, 1e3), State3(0.1, 0.1, 0.1))
    return traj.s, traj.states


@pytest.mark.parametrize("run", [_lorenz_standard, _gauged_lorenz], ids=["lorenz-standard", "gauged-in-s"])
def test_five_balance_identities_close(run):
    time, states = run()
    assert max(balance_residuals(time, states, *LORENZ)) <= BOUND
    # The bound has power: the same rows fail it with c off by 1%.
    a, b, c = LORENZ
    assert max(balance_residuals(time, states, a, b, 1.01 * c)) > 10.0 * BOUND


def test_settled_average_tends_to_the_equilibrium_at_order_one_over_t():
    # lorenz-literal settles on its pair, at z* = b - 1 = 5/3, so T (<z> - z*)
    # tends to a constant: the integral of the decaying transient.  Read
    # with trapezoid averages at the registry spacing, it is -5.1512967 at
    # T = 60, 600 and 6000, the three equal to 3e-13 relative.
    base = lookup_scenario("lorenz-literal")
    z_star = base.params.b - 1.0
    scaled = []
    for stretch in (1, 10):
        run = run_trajectory(
            derive(base, base.name, t1=60.0 * stretch, sample_count=(base.sample_count - 1) * stretch + 1)
        )
        t, z = run.t, run.states[:, 2]
        T = t[-1] - t[0]
        mean = float(np.sum(np.diff(t) * (z[1:] + z[:-1])) / (2.0 * T))
        scaled.append(T * (mean - z_star))
    assert scaled[0] == pytest.approx(-5.151297, rel=1e-6)
    assert scaled[1] == pytest.approx(scaled[0], rel=1e-6)
