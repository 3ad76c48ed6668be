import dataclasses
import math

import numpy as np
import pytest

from slchaos.analysis import (
    LYAPUNOV_OFFSET,
    PROBE_SAMPLES,
    RK4_DT,
    TRANSIENT_FRACTION,
    LyapunovEstimate,
    NewtonError,
    Spectrum3,
    char_poly_residual,
    classify_spectrum,
    conjecture_report,
    divergence_probe,
    eigenbasis_3x3,
    eigenvalues_3x3,
    lyapunov_from_field,
    max_lyapunov,
    newton_fixed_point,
    separation_slope,
    stable_tails,
)
from slchaos.dynamics import (
    LORENZ_LITERAL_PARAMS,
    LORENZ_STANDARD_PARAMS,
    SystemKind,
    SystemParams,
    effective_params,
    jacobian,
    make_field,
)
from slchaos.integrate import rk4_step
from slchaos.scenarios import LYAPUNOV_HORIZON, LYAPUNOV_INTERVALS, lookup_scenario

ATTRACTOR_II = SystemParams(2.0, 0.3, 27.0)


class TestEigenvalues:
    def test_diagonal(self):
        spec = eigenvalues_3x3(np.diag([3.0, -1.0, 2.0]))
        for got, want in zip(spec.eigenvalues, (3.0, 2.0, -1.0)):
            assert got == pytest.approx(want + 0j, abs=1e-12)

    def test_identity_triple_root(self):
        spec = eigenvalues_3x3(np.eye(3))
        for lam in spec.eigenvalues:
            assert lam == pytest.approx(1.0 + 0j, abs=1e-12)

    def test_attractor_ii_origin(self):
        """The block structure gives -c exactly plus the quadratic pair
        (-3 +/- sqrt(3.4))/2."""
        spec = eigenvalues_3x3(jacobian(SystemKind.SL, ATTRACTOR_II, (0.0, 0.0, 0.0)))
        lams = spec.eigenvalues
        root = math.sqrt(3.4)
        assert abs(lams[0] - (-3.0 + root) / 2.0) <= 1e-6
        assert abs(lams[1] - (-3.0 - root) / 2.0) <= 1e-6
        assert abs(lams[2] - (-27.0)) <= 1e-12
        assert all(lam.imag == 0.0 for lam in lams)

    def test_complex_pair_ordering(self):
        # companion-style matrix with spectrum {2, 1 +/- 2i}
        m = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [10.0, -9.0, 4.0]])
        spec = eigenvalues_3x3(m)
        assert spec.eigenvalues[0] == pytest.approx(2.0 + 0j, abs=1e-9)
        # conjugates sorted +imag first
        assert spec.eigenvalues[1] == pytest.approx(1.0 + 2.0j, abs=1e-9)
        assert spec.eigenvalues[2] == pytest.approx(1.0 - 2.0j, abs=1e-9)

    def test_double_root(self):
        spec = eigenvalues_3x3(np.diag([2.0, 2.0, -5.0]))
        assert spec.eigenvalues[0] == pytest.approx(2.0 + 0j, abs=1e-10)
        assert spec.eigenvalues[1] == pytest.approx(2.0 + 0j, abs=1e-10)
        assert spec.eigenvalues[2] == pytest.approx(-5.0 + 0j, abs=1e-10)

    def test_residual_invariant_random(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            m = rng.uniform(-30.0, 30.0, (3, 3))
            spec = eigenvalues_3x3(m)
            scale = max(1.0, np.max(np.abs(m)) ** 3)
            assert char_poly_residual(m, spec) <= 1e-9 * scale

    def test_against_lapack(self):
        """Independent oracle: numpy's iterative eigensolver must agree with
        the closed form on generic matrices."""
        rng = np.random.default_rng(1234)
        for _ in range(300):
            m = rng.uniform(-30.0, 30.0, (3, 3))
            ours = sorted(eigenvalues_3x3(m).eigenvalues, key=lambda v: (v.real, v.imag))
            ref = sorted(np.linalg.eigvals(m), key=lambda v: (v.real, v.imag))
            scale = max(1.0, float(np.max(np.abs(m))))
            for a, b in zip(ours, ref):
                assert abs(a - complex(b)) <= 1e-8 * scale

    def test_eigenbasis_diagonalises(self):
        """The closed-form eigenvectors satisfy A V = V Lambda and the
        adjugate inverse V^-1 V = I, on random matrices and on the stable
        equilibria the settled tail uses; numpy's eigensolver is the
        oracle for the eigenvalue-to-vector pairing."""
        rng = np.random.default_rng(99)
        mats = [rng.uniform(-30.0, 30.0, (3, 3)) for _ in range(100)]
        mats += [
            jacobian(SystemKind.SL, p, pt)
            for p, pt in (
                (ATTRACTOR_II, (0.0, 0.0, 0.0)),
                (SystemParams(2.0, 5.0, 27.0), (math.sqrt(108.0), math.sqrt(108.0), 4.0)),
                (LORENZ_LITERAL_PARAMS, (math.sqrt(28.0 * 5.0 / 3.0),) * 2 + (5.0 / 3.0,)),
            )
        ]
        for m in mats:
            spec = eigenvalues_3x3(m)
            cols, rows = eigenbasis_3x3(m, spec)
            v = np.array(cols).T
            scale = max(1.0, float(np.max(np.abs(m))))
            assert np.max(np.abs(m @ v - v @ np.diag(spec.eigenvalues))) <= 1e-8 * scale
            assert np.max(np.abs(np.array(rows) @ v - np.eye(3))) <= 1e-8
            assert np.allclose(np.linalg.norm(v, axis=0), 1.0, rtol=0.0, atol=1e-14)
            for lam, col in zip(spec.eigenvalues, cols):
                ref_vals, ref_vecs = np.linalg.eig(m)
                ref = ref_vecs[:, np.argmin(np.abs(ref_vals - lam))]
                # Unit vectors spanning the same line: |<ref, col>| = 1.
                assert abs(abs(np.vdot(ref, np.array(col))) - 1.0) <= 1e-7

    def test_eigenbasis_of_a_defective_matrix_is_none(self):
        # A Jordan block has one eigenvector for its double eigenvalue.
        m = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, -1.0]])
        assert eigenbasis_3x3(m, eigenvalues_3x3(m)) is None

    def test_shape_and_finiteness_checks(self):
        with pytest.raises(ValueError):
            eigenvalues_3x3(np.zeros((2, 2)))
        bad = np.zeros((3, 3))
        bad[1, 1] = math.nan
        with pytest.raises(ValueError):
            eigenvalues_3x3(bad)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_cubic_is_an_arithmetic_error(self):
        # At a = 1e102 the origin's spectrum is about (-1e102, -0.7, -27),
        # but the cube of the depressed cubic's A overflows (at 1e103 so does
        # p**3): an error, never a warning and a finite but wrong root.
        for a in (1e102, 1e103):
            m = jacobian(SystemKind.SL, SystemParams(a, 0.3, 27.0), (0.0, 0.0, 0.0))
            with pytest.raises(ArithmeticError, match="characteristic polynomial overflows"):
                eigenvalues_3x3(m)


class TestClassification:
    def test_attractor_ii_origin_stable_node(self):
        assert conjecture_report(ATTRACTOR_II).classes == ("stable node",)

    def test_lorenz_standard_origin_saddle(self):
        # quadratic lambda^2 + 11 lambda - 270 has the positive root
        # (-11 + sqrt(1201))/2 = 11.8277...
        spec = eigenvalues_3x3(jacobian(SystemKind.LORENZ_STANDARD, None, (0.0, 0.0, 0.0)))
        top = (-11.0 + math.sqrt(1201.0)) / 2.0
        assert spec.eigenvalues[0].real == pytest.approx(top, rel=1e-12)
        assert classify_spectrum(spec) == "saddle"

    def test_zero_matrix_marginal(self):
        assert classify_spectrum(eigenvalues_3x3(np.zeros((3, 3)))) == "marginal"

    def test_stable_focus_node(self):
        # b = -2 pushes the origin pair complex: lambda^2 + 2 lambda + 3
        spec = eigenvalues_3x3(jacobian(SystemKind.SL, SystemParams(1.0, -2.0, 27.0), (0.0, 0.0, 0.0)))
        assert classify_spectrum(spec) == "stable focus-node"

    def test_unstable(self):
        assert classify_spectrum(eigenvalues_3x3(np.diag([1.0, 2.0, 3.0]))) == "unstable"

    def test_origin_never_unstable_for_moderate_params(self):
        # both quadratic roots have negative real parts whenever
        # a(1-b) > 0 and a+1 > 0, so the grid must produce only
        # stable/saddle/marginal labels
        for a in np.linspace(0.5, 5.0, 6):
            for b in np.linspace(0.0, 0.99, 6):
                for c in (1.0, 10.0, 50.0):
                    label = conjecture_report(SystemParams(a, b, c)).classes[0]
                    assert label not in ("unstable", "saddle")


class TestNewton:
    def test_zero_iterations_at_origin(self):
        eq = newton_fixed_point(SystemKind.SL, ATTRACTOR_II, (0.0, 0.0, 0.0))
        assert tuple(eq.point) == (0.0, 0.0, 0.0)
        assert eq.residual_norm == 0.0

    def test_refines_to_lorenz_wing_center(self):
        r = math.sqrt(72.0)
        eq = newton_fixed_point(SystemKind.LORENZ_STANDARD, None, (8.0, 9.0, 26.0))
        assert tuple(eq.point) == pytest.approx((r, r, 27.0), rel=1e-9)
        assert eq.residual_norm <= 1e-12

    def test_singular_jacobian_reported(self):
        # a = 0 zeroes the whole first Jacobian row
        with pytest.raises(NewtonError, match="singular"):
            newton_fixed_point(SystemKind.SL, SystemParams(0.0, 0.3, 27.0), (1.0, 1.0, 1.0))

    def test_exhausted_budget_reports_last_iterate(self):
        with pytest.raises(NewtonError, match="no convergence") as info:
            newton_fixed_point(
                SystemKind.LORENZ_STANDARD, None, (3.0, 7.0, 11.0), tol=0.0, max_iter=2
            )
        err = info.value
        assert len(err.last_point) == 3
        assert err.residual > 0.0


class TestLyapunov:
    def test_linear_field_oracle(self):
        rhs = lambda t, s: (-s[0], -2.0 * s[1], -3.0 * s[2])
        est = lyapunov_from_field(rhs, (1.0, 1.0, 1.0), 200.0, 0.5)
        assert abs(est.lambda_max - (-1.0)) <= 0.01

    def test_lorenz_standard_converged_value(self):
        est = max_lyapunov(SystemKind.LORENZ_STANDARD, None, (0.1, 0.1, 0.1), 1000.0, 0.5)
        assert est.lambda_max == pytest.approx(0.906, abs=0.1)
        assert est.time_variable == "t"

    def test_stable_equilibrium_contracts(self):
        est = max_lyapunov(SystemKind.SL, ATTRACTOR_II, (0.0, 0.0, 0.0), 500.0, 1.0)
        assert est.lambda_max < 0.0
        assert est.time_variable == "s"
        # contraction rate is the leading origin eigenvalue
        assert est.lambda_max == pytest.approx((-3.0 + math.sqrt(3.4)) / 2.0, abs=1e-3)
        # the start is on the stable origin, so the estimate is its exact
        # eigenvalue and nothing is integrated
        assert est.estimator == "equilibrium"
        assert est.settled_at == 0.0
        assert est.sample_stddev == 0.0
        assert est.horizon == 500.0
        assert abs(est.lambda_max - (-3.0 + math.sqrt(3.4)) / 2.0) <= 1e-12

    def test_defective_stable_origin_keeps_the_twin(self):
        # b = -(a-1)**2/(4a) gives the stable origin a double eigenvalue
        # -1.5 with one eigenvector, so it has no linear flow and no
        # convergence radius: the orbit never counts as settled, and the
        # twin's finite-time estimate approaches -1.5 from above.
        params = SystemParams(2.0, -0.125, 27.0)
        assert conjecture_report(params).classes[0] == "stable node"
        est = max_lyapunov(SystemKind.SL, params, (0.1, 0.1, 0.1), 1000.0, 2.0)
        assert est.estimator == "twin"
        assert est.settled_at is None
        assert abs(est.lambda_max - (-1.5)) <= 5e-3

    def test_saddle_at_the_origin_does_not_settle(self):
        # The field vanishes at the start, but lorenz-standard's origin is a
        # saddle: the twin runs in full and sees its unstable direction.
        est = max_lyapunov(SystemKind.LORENZ_STANDARD, None, (0.0, 0.0, 0.0), 50.0, 0.1)
        assert est.lambda_max > 0.0
        assert est.estimator == "twin"
        assert est.settled_at is None

    def test_no_closed_form_equilibria_means_no_exit(self):
        # With a = 0 the zeros of the field form a curve, which `equilibria`
        # refuses to list, so the orbit cannot be matched to one.
        est = max_lyapunov(SystemKind.SL, SystemParams(0.0, 0.3, 27.0), (0.1, 0.1, 0.1), 100.0, 1.0)
        assert est.estimator == "twin"
        assert math.isfinite(est.lambda_max)

    def test_equilibria_rounding_failure_keeps_the_twin(self, monkeypatch):
        # When the closed-form pair misses its residual bound, `equilibria`
        # raises ArithmeticError; the estimate must still come out, as the
        # plain twin run.  The orbit would otherwise settle on the stable
        # origin and take the exit.
        def miss(params):
            raise ArithmeticError("closed-form equilibrium residual exceeds its bound")

        monkeypatch.setattr("slchaos.analysis.equilibria", miss)
        x0 = (0.1, 0.1, 0.1)
        est = max_lyapunov(SystemKind.SL, ATTRACTOR_II, x0, 100.0, 1.0)
        assert est.estimator == "twin"
        assert math.isfinite(est.lambda_max)
        field = make_field(SystemKind.SL, ATTRACTOR_II)
        assert est == lyapunov_from_field(field, x0, 100.0, 1.0, time_variable="s")

    def test_horizon_floor(self):
        with pytest.raises(ValueError):
            max_lyapunov(SystemKind.LORENZ_STANDARD, None, (0.1, 0.1, 0.1), 10.0, 0.5)
        with pytest.raises(ValueError):
            LyapunovEstimate(0.1, 10.0, 0.5, 0.0)

    def test_estimate_validation(self):
        with pytest.raises(ValueError):
            LyapunovEstimate(0.1, 1000.0, 0.5, 0.0, "q")
        with pytest.raises(ValueError):
            LyapunovEstimate(0.1, 1000.0, -0.5, 0.0)
        with pytest.raises(ValueError, match="estimator"):
            LyapunovEstimate(0.1, 1000.0, 0.5, 0.0, "t", "qr")


def _interleaved_rk4(rhs, a, b, t0, interval):
    """The stepper the estimators used to share: both states side by side,
    a then b at each step."""
    n_sub = max(1, math.ceil(interval / RK4_DT))
    dt = interval / n_sub
    for j in range(n_sub):
        tj = t0 + j * dt
        a = rk4_step(rhs, tj, a, dt)
        b = rk4_step(rhs, tj, b, dt)
    return a, b


def _interleaved_lyapunov(rhs, x0, horizon, renorm_interval, *, time_variable="t", tails=()):
    """The estimator as it was before the reference ran first: reference and
    twin interleaved, checked against the tails at every boundary."""
    budget = LyapunovEstimate(math.nan, float(horizon), float(renorm_interval), 0.0, time_variable)
    n_intervals = int(round(horizon / renorm_interval))
    ref = tuple(float(v) for v in x0)
    twin = (ref[0] + LYAPUNOV_OFFSET, ref[1], ref[2])
    rates = []
    for i in range(n_intervals):
        for tail in tails:
            px, py, pz = tail.point
            dx, dy, dz = ref[0] - px, ref[1] - py, ref[2] - pz
            if dx * dx + dy * dy + dz * dz <= tail.radius2:
                return dataclasses.replace(
                    budget, lambda_max=-tail.alpha, estimator="equilibrium", settled_at=i * renorm_interval
                )
        ref, twin = _interleaved_rk4(rhs, ref, twin, i * renorm_interval, renorm_interval)
        dx, dy, dz = twin[0] - ref[0], twin[1] - ref[1], twin[2] - ref[2]
        d = math.hypot(dx, dy, dz)
        if d == 0.0:
            twin = (ref[0] + LYAPUNOV_OFFSET, ref[1], ref[2])
            continue
        rates.append(math.log(d / LYAPUNOV_OFFSET) / renorm_interval)
        f = LYAPUNOV_OFFSET / d
        twin = (ref[0] + dx * f, ref[1] + dy * f, ref[2] + dz * f)
    kept = rates[int(len(rates) * TRANSIENT_FRACTION) :]
    return dataclasses.replace(budget, lambda_max=float(np.mean(kept)), sample_stddev=float(np.std(kept)))


def _scenario_case(name, horizon=None, renorm=None):
    """A registry scenario's estimator inputs, at its report budget unless
    `horizon` and `renorm` are given."""
    sc = lookup_scenario(name)
    if horizon is None:
        horizon = LYAPUNOV_HORIZON if sc.gauge is not None else sc.span[1] - sc.span[0]
        renorm = horizon / LYAPUNOV_INTERVALS
    return sc.kind, sc.params, tuple(sc.x0), horizon, renorm


class TestReferenceFirst:
    """The reference-first estimator gives today's interleaved estimate bit
    for bit: every RK4 step is the same call on the same inputs."""

    @pytest.mark.parametrize(
        "case, estimator",
        [
            # settled, at the report budgets
            (_scenario_case("sl-a2"), "equilibrium"),
            (_scenario_case("lorenz-literal"), "equilibrium"),
            # no tails at all
            (_scenario_case("lorenz-standard"), "twin"),
            # a stable origin without an eigenbasis: no tail, the full twin
            ((SystemKind.SL, SystemParams(2.0, -0.125, 27.0), (0.1, 0.1, 0.1), 200.0, 2.0), "twin"),
            # gauged with the Lorenz coefficients: chaotic
            ((SystemKind.SL, SystemParams(10.0, 28.0, 8.0 / 3.0), (0.1, 0.1, 0.1), 50.0, 0.5), "twin"),
            # tails, but not settled by the horizon: the twin runs from the
            # stored reference states
            (_scenario_case("sl-a2", 4.0, 0.04), "twin"),
        ],
        ids=["sl-a2", "lorenz-literal", "lorenz-standard", "defective-origin", "gauged-lorenz", "sl-a2-short"],
    )
    def test_estimate_matches_the_interleaved_loop(self, case, estimator):
        kind, params, x0, horizon, renorm = case
        rhs = make_field(kind, params)
        tails = stable_tails(effective_params(kind, params))
        time_variable = "t" if kind is not SystemKind.SL else "s"
        est = lyapunov_from_field(rhs, x0, horizon, renorm, time_variable=time_variable, tails=tails)
        old = _interleaved_lyapunov(rhs, x0, horizon, renorm, time_variable=time_variable, tails=tails)
        assert est.estimator == estimator
        assert dataclasses.astuple(est) == dataclasses.astuple(old)
        assert est == max_lyapunov(kind, params, x0, horizon, renorm)

    def test_short_sl_a2_run_has_tails_but_no_settle(self):
        kind, params, x0, horizon, renorm = _scenario_case("sl-a2", 4.0, 0.04)
        assert stable_tails(params)
        est = max_lyapunov(kind, params, x0, horizon, renorm)
        assert est.estimator == "twin"
        assert est.lambda_max == pytest.approx(-0.79447, abs=1e-5)

    def test_probe_matches_the_interleaved_probe(self):
        x0, delta0, horizon = (0.1, 0.1, 0.1), 1e-8, 40.0
        series = divergence_probe(SystemKind.LORENZ_STANDARD, None, x0, delta0, horizon)
        rhs = make_field(SystemKind.LORENZ_STANDARD, None)
        interval = horizon / PROBE_SAMPLES
        a, b = x0, (x0[0] + delta0, x0[1], x0[2])
        seps = [delta0]
        for i in range(PROBE_SAMPLES):
            a, b = _interleaved_rk4(rhs, a, b, i * interval, interval)
            seps.append(math.hypot(b[0] - a[0], b[1] - a[1], b[2] - a[2]))
        assert series.separation.tolist() == seps


class TestDivergenceProbe:
    def test_rejects_zero_offset(self):
        with pytest.raises(ValueError):
            divergence_probe(SystemKind.LORENZ_STANDARD, None, (0.1, 0.1, 0.1), 0.0, 10.0)

    def test_decay_at_stable_equilibrium(self):
        series = divergence_probe(SystemKind.SL, ATTRACTOR_II, (0.0, 0.0, 0.0), 1e-6, 50.0)
        assert series.time_variable == "s"
        assert series.separation[0] == 1e-6
        tail = series.separation[len(series.separation) // 10 :]
        assert np.all(np.diff(tail) < 0.0)
        assert separation_slope(series) < 0.0

    def test_lorenz_growth_window_slope(self):
        series = divergence_probe(SystemKind.LORENZ_STANDARD, None, (0.1, 0.1, 0.1), 1e-8, 40.0)
        slope = separation_slope(series)
        assert 0.7 <= slope <= 1.1

    def test_slope_sign_matches_lyapunov_for_sl(self):
        est = max_lyapunov(SystemKind.SL, ATTRACTOR_II, (0.1, 0.1, 0.1), 500.0, 1.0)
        series = divergence_probe(SystemKind.SL, ATTRACTOR_II, (0.1, 0.1, 0.1), 1e-8, 500.0)
        assert math.copysign(1.0, est.lambda_max) == math.copysign(1.0, separation_slope(series))


class TestConjecture:
    def test_attractor_ii_origin_witness(self):
        rep = conjecture_report(ATTRACTOR_II)
        assert rep.verdict == "satisfied"
        assert len(rep.equilibria_found) == 1
        assert rep.note == "origin only"
        assert rep.classes == ("stable node",)

    def test_a235_satisfied(self):
        rep = conjecture_report(SystemParams(47.0 / 20.0, 0.3, 27.0))
        assert rep.verdict == "satisfied"
        assert rep.equilibria_found
        assert len(rep.spectra) == len(rep.classes) == len(rep.equilibria_found)
        assert rep.classes == ("stable node",)

    def test_lorenz_params_three_witnesses(self):
        rep = conjecture_report(LORENZ_STANDARD_PARAMS)
        assert rep.verdict == "satisfied"
        assert len(rep.equilibria_found) == 3
        assert "pair" in rep.note
        assert rep.classes == ("saddle", "saddle", "saddle")

    def test_lorenz_literal_attracting_pair(self):
        rep = conjecture_report(LORENZ_LITERAL_PARAMS)
        assert rep.classes == ("saddle", "stable node", "stable node")
        # each spectrum is the one of the Jacobian at its own equilibrium
        for eq, spec in zip(rep.equilibria_found, rep.spectra):
            jac = jacobian(SystemKind.LORENZ_LITERAL, None, eq.point)
            assert spec == eigenvalues_3x3(jac)

    def test_stable_tails_are_built_once_per_coefficient_set(self, monkeypatch):
        # Two solves, a report and the `fixed-points` blocks of the same
        # coefficients share one build: one Jacobian per equilibrium, one
        # eigenbasis per stable equilibrium, and one immutable result.
        from slchaos import analysis
        from slchaos.scenarios import equilibria_doc, run_trajectory, scenario_report

        calls = {"jacobian": [], "eigenbasis_3x3": []}
        for fn, log in calls.items():
            spied = getattr(analysis, fn)
            monkeypatch.setattr(analysis, fn, lambda *args, log=log, spied=spied: log.append(args) or spied(*args))
        for name, found, stable in (("sl-a2", 1, 1), ("lorenz-literal", 3, 2)):
            sc = lookup_scenario(name)
            for log in calls.values():
                log.clear()
            run = run_trajectory(sc)
            assert run_trajectory(sc) == run
            scenario_report(sc, run)
            equilibria_doc(sc.kind, sc.params)
            assert (len(calls["jacobian"]), len(calls["eigenbasis_3x3"])) == (found, stable)
        tails = stable_tails(LORENZ_LITERAL_PARAMS)
        assert isinstance(tails, tuple) and stable_tails(LORENZ_LITERAL_PARAMS) is tails
        assert conjecture_report(LORENZ_LITERAL_PARAMS).tails is tails

    @pytest.mark.parametrize("params", [SystemParams(0.0, 0.3, 27.0), SystemParams(2.0, 0.3, 0.0)])
    def test_coefficients_without_a_table_get_no_tails(self, params):
        # a = 0 or c = 0: the zeros are no finite list, so there is no
        # table, and a solve runs without tails rather than failing.
        from slchaos.integrate import integrate_sl

        with pytest.raises(ValueError):
            conjecture_report(params)
        assert stable_tails(params) == ()
        run = integrate_sl(params, None, (0.0, 1.0), (0.1, 0.1, 0.1), samples=20)
        assert len(run) == 20 and run.meta.steps_rejected == 0
