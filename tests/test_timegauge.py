import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from slchaos.dynamics import SystemKind, SystemParams, make_field
from slchaos.timegauge import (
    Gauge,
    make_gauged_field,
    scale_grid,
    scale_time,
    unscale_time,
)

G = Gauge(0.9, 2.0 / 3.0)


def test_lambda_examples():
    assert Gauge(0.9, 2.0 / 3.0).lam == pytest.approx(0.3, rel=1e-15)
    assert Gauge(1.8, 0.5).lam == pytest.approx(0.9, rel=1e-15)


@pytest.mark.parametrize("mu,D", [(0.0, 0.5), (-1.0, 0.5), (math.inf, 0.5), (0.9, 0.0), (0.9, 1.0), (0.9, -0.2), (0.9, 1.5), (0.9, math.nan)])
def test_gauge_boundaries_rejected(mu, D):
    with pytest.raises(ValueError, match=r"gauge (mu must be positive|D must lie strictly)"):
        Gauge(mu, D)


def test_gauge_lam_is_derived():
    g = Gauge(1.8, 0.5)
    assert g.lam == 1.8 * (1.0 - 0.5)
    # frozen: no way to desynchronize lam from (mu, D)
    with pytest.raises(AttributeError):
        g.lam = 5.0  # type: ignore[misc]


def scalar_scale_time(gauge, t):
    """The reference: one time at a time, by `math`'s log and exp in the
    order the package applies them."""
    return 0.0 if t == 0.0 else gauge.mu * math.exp((1.0 - gauge.D) * math.log(t))


@given(D=st.floats(0.05, 0.95), mu=st.floats(0.1, 10.0), t=st.floats(0.0, 1e300))
def test_scale_time_of_a_float_is_the_scalar_formula(D, mu, t):
    g = Gauge(mu, D)
    got = scale_time(g, t)
    assert type(got) is float
    assert got.hex() == scalar_scale_time(g, t).hex()
    assert scale_time(g, 0.0) == 0.0


def test_scale_time_values():
    assert scale_time(G, 0.0) == 0.0
    assert scale_time(G, 1.0) == 0.9
    # 0.9 * 0.1**(1/3), frozen from the arithmetic
    assert scale_time(G, 0.1) == pytest.approx(0.41774299502515, rel=1e-12)
    assert scale_time(G, 1e6) == pytest.approx(90.0, rel=1e-12)


def test_scale_time_rejects_negative():
    with pytest.raises(ValueError):
        scale_time(G, -0.5)
    with pytest.raises(ValueError):
        scale_time(G, math.inf)


def test_scale_time_maps_arrays_bit_for_bit():
    ts = np.concatenate(([0.0], np.geomspace(0.1, 1e6, 2000)))
    gauges = (G, Gauge(1.8, 0.5), Gauge(3.0, 0.95))
    # One grid under several gauges at once maps each as it maps alone.
    for gauge, shared in zip(gauges, scale_grid(gauges, ts), strict=True):
        mapped = scale_time(gauge, ts)
        assert isinstance(mapped, np.ndarray) and mapped.shape == ts.shape
        assert mapped.tobytes() == np.array([scalar_scale_time(gauge, v) for v in ts]).tobytes()
        assert shared.tobytes() == mapped.tobytes()
        assert mapped[0] == 0.0


@pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf])
def test_scale_time_rejects_bad_array_entries(bad):
    with pytest.raises(ValueError, match="finite t >= 0"):
        scale_grid([G, Gauge(1.8, 0.5)], np.array([0.0, 1.0, bad, 2.0]))
    with pytest.raises(ValueError, match="finite t >= 0"):
        scale_time(G, np.array([0.0, 1.0, bad, 2.0]))


def test_unscale_time_inverts():
    assert unscale_time(G, 0.0) == 0.0
    assert unscale_time(G, 0.9) == pytest.approx(1.0, rel=1e-12)
    assert unscale_time(G, 90.0) == pytest.approx(1e6, rel=1e-12)
    with pytest.raises(ValueError):
        unscale_time(G, -1.0)


@given(t=st.floats(1e-3, 1e9))
def test_scale_round_trip(t):
    assert unscale_time(G, scale_time(G, t)) == pytest.approx(t, rel=1e-12)


@given(D=st.floats(0.05, 0.95), mu=st.floats(0.1, 10.0), t=st.floats(1e-2, 1e6))
def test_scale_monotone_in_t(D, mu, t):
    g = Gauge(mu, D)
    assert scale_time(g, t * 1.5) > scale_time(g, t)


def test_gauged_closure_matches_msl_rhs():
    # the closure equals the composition lam * t**(-D) * f(state)
    p = SystemParams(2.0, 0.3, 27.0)
    rhs = make_gauged_field(p, G)
    got = rhs(5.0, (0.4, 0.6, -1.0))
    w = G.lam * 5.0 ** (-G.D)
    want = tuple(w * v for v in make_field(SystemKind.SL, p)(0.0, (0.4, 0.6, -1.0)))
    assert got == pytest.approx(want, rel=1e-15)
    with pytest.raises(ValueError):
        rhs(0.0, (1.0, 1.0, 1.0))


def test_gauged_field_composition():
    # weight at t=1 is lam; f(0, 1, 0) = (a, -1, 0)
    p = SystemParams(2.0, 0.3, 27.0)
    fx, fy, fz = make_gauged_field(p, G)(1.0, (0.0, 1.0, 0.0))
    assert fx == pytest.approx(2.0 * G.lam, rel=1e-15)
    assert fy == pytest.approx(-G.lam, rel=1e-15)
    assert fz == 0.0


def test_gauged_field_singular_at_zero():
    rhs = make_gauged_field(SystemParams(2.0, 0.3, 27.0), G)
    with pytest.raises(ValueError):
        rhs(0.0, (1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        rhs(-2.0, (1.0, 1.0, 1.0))


def test_gauged_field_origin_is_gauge_invariant():
    rhs = make_gauged_field(SystemParams(2.0, 0.3, 27.0), G)
    assert rhs(17.3, (0.0, 0.0, 0.0)) == (0.0, 0.0, 0.0)


def test_gauged_field_linear_in_lambda():
    # doubling mu doubles lam and hence the whole right-hand side
    p = SystemParams(2.0, 0.3, 27.0)
    g2 = Gauge(1.8, 2.0 / 3.0)
    f1 = make_gauged_field(p, G)(3.7, (1.0, -2.0, 0.5))
    f2 = make_gauged_field(p, g2)(3.7, (1.0, -2.0, 0.5))
    assert f2 == pytest.approx(tuple(2 * v for v in f1), rel=1e-14)
