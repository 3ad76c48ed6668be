"""Analytic certificates for the quadratic field (a(y - x), x(b - z) - y, xy - cz).

Two closed-form facts that no finite run can show, checked exactly or
against the closed-form spectra:

- V = x**2/a + y**2 + z**2 gives 1/2 dV/ds = -x**2 + (1 + b)xy - y**2 - cz**2,
  negative definite for a, c > 0 exactly when -3 < b < 1.  Then V falls
  along every orbit and the origin attracts them all.  All four paper
  scenarios have b = 3/10.
- The symmetric pair loses stability on the Hopf line
  b_H = a(a + c + 3)/(a - c - 1), for a > c + 1.
"""

import math

import numpy as np
import sympy

from slchaos.analysis import MARGINAL_REAL_PART, conjecture_report
from slchaos.dynamics import SystemKind, SystemParams, make_field
from slchaos.scenarios import builtin_scenarios

x, y, z, a, b, c = sympy.symbols("x y z a b c", real=True)
FIELD = (a * (y - x), x * (b - z) - y, x * y - c * z)
V = x**2 / a + y**2 + z**2
FORM = -(x**2) + (1 + b) * x * y - y**2 - c * z**2


def test_lyapunov_function_identity():
    half_dv = sum(sympy.diff(V, v) * f for v, f in zip((x, y, z), FIELD)) / 2
    assert sympy.simplify(half_dv - FORM) == 0
    # The package's field gives the same number at a sample point.
    params, state = SystemParams(2.0, 0.3, 27.0), (0.7, -1.3, 0.4)
    f = make_field(SystemKind.SL, params)(0.0, state)
    subs = dict(zip((x, y, z, a, b, c), (*state, params.a, params.b, params.c)))
    half_dv_package = state[0] * f[0] / params.a + state[1] * f[1] + state[2] * f[2]
    assert math.isclose(half_dv_package, float(FORM.subs(subs)), rel_tol=1e-14)


def test_form_is_negative_definite_exactly_for_b_between_minus_3_and_1():
    # Sylvester's criterion on the Hessian of -FORM: the third minor is 2c
    # times the second, so with c > 0 the condition is 4 - (1 + b)**2 > 0.
    hessian = sympy.hessian(-FORM, (x, y, z))
    minors = [hessian[:k, :k].det() for k in (1, 2, 3)]
    assert minors[0] == 2
    assert sympy.factor(minors[2] - 2 * c * minors[1]) == 0
    region = sympy.solveset(minors[1] > 0, b, sympy.S.Reals)
    assert region == sympy.Interval.open(-3, 1)
    for sc in builtin_scenarios():
        if sc.kind is SystemKind.SL:
            assert sc.params.a > 0 and sc.params.c > 0 and -3 < sc.params.b < 1


def test_pair_changes_class_across_the_hopf_line():
    av, cv = 10.0, 8.0 / 3.0
    b_hopf = av * (av + cv + 3.0) / (av - cv - 1.0)
    assert math.isclose(b_hopf, 24.736842105263158, rel_tol=1e-15)
    # On the line the pair's spectrum is -(a + c + 1) and +-i omega, with
    # omega**2 = c (a + b_H), and its class is marginal.
    on = conjecture_report(SystemParams(av, b_hopf, cv))
    omega = math.sqrt(cv * (av + b_hopf))
    closed = np.array([1j * omega, -1j * omega, -(av + cv + 1.0)])
    for spec, cls in zip(on.spectra[1:], on.classes[1:]):
        assert np.max(np.abs(np.array(spec.eigenvalues) - closed)) <= 1e-12 * (av + cv + 1.0)
        assert cls == "marginal"
    # A relative step of 1e-6 either side moves the leading real part to
    # -+7.48e-7, far outside the marginal band, and flips the class.
    for factor, cls, sign in ((1.0 - 1e-6, "stable focus-node", -1.0), (1.0 + 1e-6, "saddle", 1.0)):
        rep = conjecture_report(SystemParams(av, b_hopf * factor, cv))
        for spec, pair_class in zip(rep.spectra[1:], rep.classes[1:]):
            assert pair_class == cls
            lead = spec.real_parts[0]
            assert sign * lead > 100.0 * MARGINAL_REAL_PART
            assert math.isclose(abs(lead), 7.48e-7, rel_tol=1e-2)
