import math

import numpy as np
import pytest
import sympy
from hypothesis import given, strategies as st

from slchaos.dynamics import (
    LORENZ_LITERAL_PARAMS,
    LORENZ_STANDARD_PARAMS,
    State3,
    SystemKind,
    SystemParams,
    effective_params,
    equilibria,
    field_norm,
    jacobian,
    make_field,
)
from slchaos.timegauge import Gauge, make_gauged_field

ATTRACTOR_II = SystemParams(2.0, 0.3, 27.0)
SL_FIELD = make_field(SystemKind.SL, ATTRACTOR_II)


def test_sl_field_zero_at_origin():
    assert SL_FIELD(0.0, (0.0, 0.0, 0.0)) == (0.0, 0.0, 0.0)


def test_sl_field_hand_values():
    # f(1, 0, 2) for (a, b, c) = (2, 0.3, 27): (2*(0-1), 1*(0.3-2)-0, 0-54)
    fx, fy, fz = SL_FIELD(0.0, (1.0, 0.0, 2.0))
    assert fx == pytest.approx(-2.0, abs=0)
    assert fy == pytest.approx(-1.7, rel=1e-15)
    assert fz == pytest.approx(-54.0, abs=0)


def test_sl_field_matches_symbolic_substitution():
    """Independent route: the same expressions built in sympy and evaluated
    exactly, compared against the float implementations: the `make_field`
    closure for all three kinds (Lorenz coefficients written out as exact
    rationals), and the `make_gauged_field` closure against
    lam * t**(-D) * f with lam = mu * (1 - D)."""
    xs, ys, zs, a_s, b_s, c_s = sympy.symbols("x y z a b c")
    ts, mu_s, D_s = sympy.symbols("t mu D", positive=True)
    expr = (
        a_s * (ys - xs),
        xs * (b_s - zs) - ys,
        xs * ys - c_s * zs,
    )
    gauged = tuple(mu_s * (1 - D_s) * ts ** (-D_s) * e for e in expr)
    pinned = {
        SystemKind.LORENZ_STANDARD: (10, 28, sympy.Rational(8, 3)),
        SystemKind.LORENZ_LITERAL: (10, sympy.Rational(8, 3), 28),
    }

    def check(got, exprs, subs):
        for g, sym in zip(got, exprs):
            want = float(sym.evalf(subs=subs))
            assert g == pytest.approx(want, rel=1e-12, abs=1e-12)

    rng = np.random.default_rng(7)
    for _ in range(5):
        a, b, c = rng.uniform(-5, 5, 3)
        x, y, z = rng.uniform(-10, 10, 3)
        params = SystemParams(a, b, c)
        subs = {a_s: a, b_s: b, c_s: c, xs: x, ys: y, zs: z}
        check(make_field(SystemKind.SL, params)(0.0, (x, y, z)), expr, subs)
        for kind, (pa, pb, pc) in pinned.items():
            lorenz = {a_s: pa, b_s: pb, c_s: pc, xs: x, ys: y, zs: z}
            check(make_field(kind)(0.0, (x, y, z)), expr, lorenz)
        mu, D, t = rng.uniform(0.1, 5.0), rng.uniform(0.05, 0.95), rng.uniform(0.01, 100.0)
        rhs = make_gauged_field(params, Gauge(mu, D))
        check(rhs(t, (x, y, z)), gauged, {**subs, mu_s: mu, D_s: D, ts: t})


def test_lorenz_fields_are_pinned_sl_params():
    state = (1.0, 2.0, 3.0)
    std = make_field(SystemKind.LORENZ_STANDARD)(0.0, state)
    assert std == make_field(SystemKind.SL, LORENZ_STANDARD_PARAMS)(0.0, state)
    lit = make_field(SystemKind.LORENZ_LITERAL)(0.0, state)
    assert lit == make_field(SystemKind.SL, LORENZ_LITERAL_PARAMS)(0.0, state)
    # the two variants genuinely differ
    assert std != lit


def test_lorenz_standard_hand_value():
    # (10*(2-1), 1*(28-3)-2, 1*2 - (8/3)*3) = (10, 23, -6)
    f = make_field(SystemKind.LORENZ_STANDARD)(0.0, (1.0, 2.0, 3.0))
    assert f == pytest.approx((10.0, 23.0, -6.0), rel=1e-15)


def test_effective_params():
    assert effective_params(SystemKind.LORENZ_STANDARD) == LORENZ_STANDARD_PARAMS
    assert effective_params(SystemKind.LORENZ_LITERAL) == LORENZ_LITERAL_PARAMS
    assert effective_params(SystemKind.SL, ATTRACTOR_II) is ATTRACTOR_II
    with pytest.raises(ValueError):
        effective_params(SystemKind.SL)


def test_make_field_matches_eval():
    x, y, z = state = (0.3, -1.2, 5.0)
    a, b, c = ATTRACTOR_II.a, ATTRACTOR_II.b, ATTRACTOR_II.c
    assert SL_FIELD(0.0, state) == (a * (y - x), x * (b - z) - y, x * y - c * z)
    # time argument is ignored
    assert SL_FIELD(123.0, state) == SL_FIELD(-4.0, state)


@given(
    x=st.floats(-100, 100),
    y=st.floats(-100, 100),
    z=st.floats(-100, 100),
)
def test_field_odd_symmetry(x, y, z):
    """f(-x, -y, z) = (-fx, -fy, fz): the system is equivariant under the
    half-turn about the z axis."""
    f1 = SL_FIELD(0.0, (x, y, z))
    f2 = SL_FIELD(0.0, (-x, -y, z))
    assert f2[0] == -f1[0]
    assert f2[1] == -f1[1]
    assert f2[2] == f1[2]


def test_jacobian_at_origin_attractor_ii():
    j = jacobian(SystemKind.SL, ATTRACTOR_II, (0.0, 0.0, 0.0))
    expect = np.array([[-2.0, 2.0, 0.0], [0.3, -1.0, 0.0], [0.0, 0.0, -27.0]])
    assert np.array_equal(j, expect)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(11)
    h = 1e-6
    for kind, params in (
        (SystemKind.SL, SystemParams(*rng.uniform(-3, 3, 3))),
        (SystemKind.LORENZ_STANDARD, None),
        (SystemKind.LORENZ_LITERAL, None),
    ):
        rhs = make_field(kind, params)
        state = rng.uniform(-5, 5, 3)
        j = jacobian(kind, params, state)
        fd = np.zeros((3, 3))
        for col in range(3):
            ep = state.copy()
            em = state.copy()
            ep[col] += h
            em[col] -= h
            fp = np.array(rhs(0.0, ep))
            fm = np.array(rhs(0.0, em))
            fd[:, col] = (fp - fm) / (2 * h)
        assert np.allclose(j, fd, atol=1e-6)


class TestEquilibria:
    def test_attractor_ii_origin_only(self):
        eqs = equilibria(ATTRACTOR_II)
        assert len(eqs) == 1
        assert tuple(eqs[0].point) == (0.0, 0.0, 0.0)
        assert eqs[0].residual_norm <= 1e-12
        assert eqs[0].multiplicity_note == ""

    def test_lorenz_standard_three_points(self):
        eqs = equilibria(LORENZ_STANDARD_PARAMS)
        assert len(eqs) == 3
        r = math.sqrt(72.0)
        assert tuple(eqs[0].point) == (0.0, 0.0, 0.0)
        assert tuple(eqs[1].point) == pytest.approx((r, r, 27.0), abs=1e-10)
        assert tuple(eqs[2].point) == pytest.approx((-r, -r, 27.0), abs=1e-10)
        for eq in eqs:
            assert eq.residual_norm <= 1e-12
            assert field_norm(LORENZ_STANDARD_PARAMS, eq.point) <= 1e-12

    def test_order_is_origin_positive_negative(self):
        eqs = equilibria(SystemParams(1.0, 5.0, 2.0))
        assert eqs[0].point.x == 0.0
        assert eqs[1].point.x > 0.0
        assert eqs[2].point.x < 0.0

    def test_degenerate_b_equal_one(self):
        eqs = equilibria(SystemParams(2.0, 1.0, 27.0))
        assert len(eqs) == 1
        assert "merges" in eqs[0].multiplicity_note

    def test_no_pair_when_disc_negative(self):
        # c > 0, b < 1: c*(b-1) < 0, pair is imaginary
        assert len(equilibria(SystemParams(2.0, 0.5, 27.0))) == 1
        # c < 0, b > 1 also kills the pair
        assert len(equilibria(SystemParams(2.0, 3.0, -27.0))) == 1

    def test_rejects_c_zero(self):
        with pytest.raises(ValueError, match="c must be nonzero"):
            equilibria(SystemParams(2.0, 0.3, 0.0))

    def test_rejects_a_zero(self):
        with pytest.raises(ValueError, match="a must be nonzero"):
            equilibria(SystemParams(0.0, 0.3, 27.0))

    def test_symmetric_pair_is_field_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.uniform(0.5, 5)
            b = rng.uniform(1.1, 40)
            c = rng.uniform(0.5, 50)
            for eq in equilibria(SystemParams(a, b, c)):
                assert eq.residual_norm <= 1e-12
        # Far from the origin the rounding of x*y - c*z exceeds 1e-12 in
        # absolute terms (296 of the a = 10 points with c in {8/3, 10, 27,
        # 50} did), but stays at rounding level relative to the largest term
        # of the field, so every pair is listed.
        worst = 0.0
        for b in np.geomspace(1.5, 1000.0, 1000):
            for c in (0.5, 1.0, 2.0, 8.0 / 3.0, 5.0, 10.0, 15.0, 20.0, 27.0, 35.0, 50.0, 100.0):
                eqs = equilibria(SystemParams(10.0, float(b), c))
                assert len(eqs) == 3
                for eq in eqs[1:]:
                    x, _, z = eq.point
                    scale = max(1.0, abs(x) * max(b, abs(z)), x * x, abs(c * z))
                    worst = max(worst, eq.residual_norm / scale)
        assert worst <= 1e-15


def test_state3_rejects_non_finite():
    with pytest.raises(ValueError):
        State3(math.nan, 0.0, 0.0)
    with pytest.raises(ValueError):
        State3(0.0, math.inf, 0.0)


def test_params_reject_non_finite():
    with pytest.raises(ValueError):
        SystemParams(1.0, math.nan, 2.0)


def test_state3_coerces_to_float():
    s = State3(np.float64(1.5), 2, 3.0)
    assert isinstance(s.x, float) and isinstance(s.y, float)
    assert tuple(s) == (1.5, 2.0, 3.0)
    assert list(s) == [1.5, 2.0, 3.0]
