"""Exact relations of the quadratic flow, checked on whole solves.

Each holds whatever integrator solves the orbit, so these tests gate a new
driver as well as a refactor of this one:

- the field is odd in (x, y): f(-x, -y, z) = (-f_x, -f_y, f_z), so mirrored
  starts give mirrored orbits;
- the z-axis is invariant: from (0, 0, z0) the field is (0, 0, -c z), so
  x = y = 0 and z = z0 exp(-c sigma) for all time;
- a gauged run is the identity-clock run of the same coefficients in
  sigma = s - s(t0).
"""

import math

import numpy as np
import pytest

from slchaos import integrate
from slchaos.dynamics import LORENZ_STANDARD_PARAMS, SystemParams
from slchaos.integrate import integrate_sl
from slchaos.scenarios import derive, run_trajectory, scenario_registry
from slchaos.timegauge import Gauge, scale_time, unscale_time


@pytest.mark.parametrize("name", sorted(scenario_registry()))
def test_mirrored_start_gives_the_mirrored_orbit(name):
    # The driver's arithmetic is sign-symmetric in a fixed order, so the
    # mirror holds bit for bit, step counts included.
    sc = scenario_registry()[name]
    run = run_trajectory(sc)
    mirrored = run_trajectory(derive(sc, name, x0=-sc.x0.x, y0=-sc.x0.y))
    assert mirrored.meta == run.meta
    assert mirrored.states.tobytes() == (run.states * (-1.0, -1.0, 1.0)).tobytes()
    assert mirrored.t.tobytes() == run.t.tobytes() and mirrored.s.tobytes() == run.s.tobytes()


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
@pytest.mark.parametrize("c", [8.0 / 3.0, 27.0, 0.1])
def test_z_axis_decays_in_closed_form(c, tol):
    # A global-error oracle for the whole path: steps, dense output and
    # sampling.  Measured: at most 0.45 * tol (c = 27).
    run = integrate_sl(SystemParams(10.0, 28.0, c), None, (0.0, 5.0), (0.0, 0.0, 5.0), tol, 500)
    assert np.all(run.states[:, :2] == 0.0)
    exact = [5.0 * math.exp(-c * sigma) for sigma in run.s.tolist()]
    assert np.max(np.abs(run.states[:, 2] - exact)) <= tol


def test_gauged_run_is_the_identity_clock_run_in_sigma():
    # The gauged (10, 28, 8/3) orbit over 60 units of sigma, against the
    # identity-clock solve sampled at the same sigma: the same rows bit for
    # bit, and lorenz-standard's step counts over its 60 units of t.
    params, gauge, x0 = LORENZ_STANDARD_PARAMS, Gauge(0.9, 2.0 / 3.0), (0.1, 0.1, 0.1)
    span = (0.1, unscale_time(gauge, scale_time(gauge, 0.1) + 60.0))
    gauged = integrate_sl(params, gauge, span, x0)
    sigma = gauged.s - gauged.s[0]
    (identity,) = integrate._adaptive_solve(params, 0.0, x0, gauged.meta.tol, [(sigma, sigma, sigma)])
    assert identity.states.tobytes() == gauged.states.tobytes()
    assert identity.meta == gauged.meta
    assert (gauged.meta.steps_taken, gauged.meta.steps_rejected) == (1591, 0)
    assert run_trajectory(scenario_registry()["lorenz-standard"]).meta == gauged.meta
