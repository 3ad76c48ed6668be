import math

import numpy as np
import pytest

from slchaos import integrate
from slchaos.analysis import stable_tails
from slchaos.dynamics import (
    LORENZ_LITERAL_PARAMS,
    LORENZ_STANDARD_PARAMS,
    SystemKind,
    SystemParams,
    effective_params,
    make_field,
)
from slchaos.integrate import (
    IntegrationError,
    SLMode,
    Trajectory,
    integrate_fixed,
    integrate_sl,
    integrate_sl_gauges,
    rk4_step,
)
from slchaos.scenarios import run_trajectory, scenario_registry
from slchaos.timegauge import Gauge, scale_time

ATTRACTOR_II = SystemParams(2.0, 0.3, 27.0)
GAUGE = Gauge(0.9, 2.0 / 3.0)
# From (1, 0, 0) these coefficients keep y = z = 0 exactly, so x' = -x.
DECAY = SystemParams(1.0, 0.0, 1.0)


def decay(t, state):
    return (-state[0], 0.0, 0.0)


def test_rk4_step_decay_factor():
    # one step of x' = -x at h = 0.1: 1 - h + h^2/2 - h^3/6 + h^4/24
    out = rk4_step(decay, 0.0, (1.0, 0.0, 0.0), 0.1)
    assert out[0] == pytest.approx(0.9048375, rel=1e-15)
    assert out[1] == 0.0 and out[2] == 0.0


def test_rk4_step_constant_field():
    rhs = lambda t, s: (0.5, 0.0, 0.0)
    out = rk4_step(rhs, 0.0, (0.0, 1.0, 2.0), 2.0)
    assert out == (1.0, 1.0, 2.0)


def test_rk4_step_zero_field_is_identity():
    rhs = lambda t, s: (0.0, 0.0, 0.0)
    assert rk4_step(rhs, 0.0, (3.0, -1.0, 2.5), 0.7) == (3.0, -1.0, 2.5)


def test_rk4_step_raises_on_non_finite():
    rhs = lambda t, s: (math.nan, 0.0, 0.0)
    with pytest.raises(IntegrationError):
        rk4_step(rhs, 0.0, (1.0, 0.0, 0.0), 0.1)


class TestFixed:
    def test_exponential_final_value(self):
        tr = integrate_fixed(decay, 0.0, 1.0, (1.0, 0.0, 0.0), 1000)
        assert abs(tr.states[-1, 0] - math.exp(-1.0)) <= 1e-10

    def test_samples_every_step(self):
        tr = integrate_fixed(decay, 0.0, 1.0, (1.0, 0.0, 0.0), 10)
        assert len(tr) == 11
        assert tr.t[0] == 0.0 and tr.t[-1] == 1.0
        assert np.array_equal(tr.t, tr.s)
        assert tr.meta.method == "rk4"
        assert tr.meta.steps_taken == 10 and tr.meta.steps_rejected == 0

    def test_convergence_order_near_four(self):
        errs = []
        for h in (0.1, 0.05, 0.025):
            n = round(1.0 / h)
            tr = integrate_fixed(decay, 0.0, 1.0, (1.0, 0.0, 0.0), n)
            errs.append(abs(tr.states[-1, 0] - math.exp(-1.0)))
        for e0, e1 in zip(errs, errs[1:]):
            order = math.log2(e0 / e1)
            assert 3.7 <= order <= 4.3

    def test_blowup_carries_partial(self):
        def bad(t, state):
            if t >= 0.5:
                return (math.nan, 0.0, 0.0)
            return (1.0, 0.0, 0.0)

        with pytest.raises(IntegrationError) as info:
            integrate_fixed(bad, 0.0, 1.0, (0.0, 0.0, 0.0), 10)
        err = info.value
        assert err.step_index is not None
        assert err.partial is not None
        assert len(err.partial) == err.step_index + 1

    def test_validation(self):
        with pytest.raises(ValueError):
            integrate_fixed(decay, 1.0, 0.0, (1.0, 0.0, 0.0), 10)
        with pytest.raises(ValueError):
            integrate_fixed(decay, 0.0, 1.0, (1.0, 0.0, 0.0), 0)


class TestAdaptive:
    def test_exponential_accuracy(self):
        tr = integrate_sl(DECAY, None, (0.0, 1.0), (1.0, 0.0, 0.0))
        assert abs(tr.states[-1, 0] - math.exp(-1.0)) <= 1e-8

    def test_linear_grid_exact(self):
        tr = integrate_sl(DECAY, None, (0.0, 2.0), (1.0, 0.0, 0.0), samples=21)
        assert np.array_equal(tr.t, np.linspace(0.0, 2.0, 21))
        # every sample matches the exact solution to tolerance-level accuracy
        assert np.allclose(tr.states[:, 0], np.exp(-tr.t), atol=1e-8)

    def test_lorenz_run_stays_bounded(self):
        tr = integrate_sl(LORENZ_STANDARD_PARAMS, None, (0.0, 60.0), (0.1, 0.1, 0.1), samples=500)
        assert np.max(np.abs(tr.states[:, 2])) < 60.0
        assert tr.meta.steps_taken > 1000

    def test_determinism_bitwise(self):
        a = integrate_sl(LORENZ_STANDARD_PARAMS, None, (0.0, 20.0), (0.1, 0.1, 0.1), samples=200)
        b = integrate_sl(LORENZ_STANDARD_PARAMS, None, (0.0, 20.0), (0.1, 0.1, 0.1), samples=200)
        assert a == b
        assert a.meta == b.meta

    def test_samples_match_dop853_oracle(self):
        # Off-step samples come from the pair's continuous extension, so
        # they must be about as accurate as the step endpoints.
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
        rhs = make_field(SystemKind.LORENZ_STANDARD)
        x0 = (0.1, 0.1, 0.1)
        tr = integrate_sl(LORENZ_STANDARD_PARAMS, None, (0.0, 2.0), x0)
        ref = solve_ivp(
            lambda t, y: rhs(t, tuple(y)), (0.0, 2.0), x0,
            method="DOP853", t_eval=tr.t, rtol=1e-13, atol=1e-13,
        )
        assert np.max(np.abs(tr.states - ref.y.T)) <= 1e-7

    def test_steps_do_not_depend_on_sample_plan(self):
        a, b = (
            integrate_sl(LORENZ_STANDARD_PARAMS, None, (0.0, 60.0), (0.1, 0.1, 0.1), samples=n)
            for n in (2000, 2001)
        )
        assert (a.meta.steps_taken, a.meta.steps_rejected) == (b.meta.steps_taken, b.meta.steps_rejected)
        assert np.array_equal(a.states[-1], b.states[-1])

    def test_long_run_from_an_equilibrium(self):
        # The field vanishes at x0, so the first step is the 1e-6 fallback
        # and every step grows fivefold with zero error; none may fall under
        # the underflow floor 1e-14*max(1, |t|) on the way to t = 1e9.
        tr = integrate_sl(LORENZ_STANDARD_PARAMS, None, (0.0, 1e9), (0.0, 0.0, 0.0), samples=20)
        assert np.all(tr.states == 0.0)

    def test_max_steps_exhaustion(self, monkeypatch):
        monkeypatch.setattr(integrate, "_MAX_STEPS", 20)
        with pytest.raises(IntegrationError, match="budget"):
            integrate_sl(LORENZ_STANDARD_PARAMS, None, (0.0, 60.0), (0.1, 0.1, 0.1))

    def test_step_underflow_on_pathological_field(self):
        # effectively white-noise derivative: the error estimate cannot
        # shrink with h, so the controller drives h below the floor
        rhs = lambda t, s: (1e20 * math.sin(1e20 * t), 0.0, 0.0)
        grid = np.linspace(0.0, 1.0, 2000)
        (run,) = integrate._adaptive_solve(rhs, 0.0, (0.0, 0.0, 0.0), 1e-9, [grid])
        with pytest.raises(IntegrationError, match="underflow"):
            raise run

    @pytest.mark.parametrize(
        "x0", [(1e100, -1e100, 1e100), (1e150, 1e150, 1e150)], ids=["nan-estimate", "huge-guess"]
    )
    def test_huge_start_is_an_integration_error(self, x0):
        # The first start gives a NaN error estimate, which must reject the
        # step; the second overflows the squares of the first-step guess.
        with pytest.raises(IntegrationError, match="underflow"):
            integrate_sl(LORENZ_STANDARD_PARAMS, None, (0.0, 1.0), x0, samples=11)

    def test_rejection_accounting(self):
        # a step across the jump in the field must be rejected, not absorbed
        rhs = lambda t, s: (1.0 if t < 1.0 else -1.0, 0.0, 0.0)
        grid = np.linspace(0.0, 5.0, 50)
        (tr,) = integrate._adaptive_solve(rhs, 0.0, (0.1, 0.1, 0.1), 1e-9, [grid])
        assert tr.meta.steps_rejected >= 1


class TestPrefix:
    """A DP54 solve to any end is a bit-equal prefix of a solve to a later
    end: the last step is never clipped, so no step depends on the end."""

    @pytest.mark.parametrize(
        "kind, params, end, long_end",
        [(SystemKind.SL, ATTRACTOR_II, 10.0, 100.0), (SystemKind.LORENZ_STANDARD, None, 5.0, 20.0)],
    )
    def test_solve_is_a_prefix_of_a_longer_solve(self, kind, params, end, long_end):
        # Integer grids, so the short grid is exactly the head of the long one.
        params = effective_params(kind, params)
        x0 = (0.1, 0.1, 0.1)
        n = int(end) + 1
        short = integrate_sl(params, None, (0.0, end), x0, samples=n)
        long = integrate_sl(params, None, (0.0, long_end), x0, samples=int(long_end) + 1)
        assert np.array_equal(long.t[:n], short.t)
        assert np.array_equal(long.states[:n], short.states)
        assert long.meta.steps_taken > short.meta.steps_taken
        # The step counts at `end` inside the longer solve are the short solve's.
        inside, whole = integrate._adaptive_solve(
            make_field(kind, params), 0.0, x0, 1e-9, [short.t, long.t], stable_tails(params)
        )
        assert inside == short and inside.meta == short.meta
        assert whole == long and whole.meta == long.meta


class TestSettledTail:
    """Once an accepted step ends close to a stable equilibrium the solve
    stops stepping and writes every later sample from the linear flow
    there.  scipy's DOP853 at 1e-13 is the test-only reference."""

    @staticmethod
    def reference(params, x0, at, start=0.0, method="DOP853"):
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
        rhs = make_field(SystemKind.SL, params)
        ref = solve_ivp(
            lambda t, y: rhs(t, tuple(y)), (start, at[-1]), x0,
            method=method, t_eval=at, rtol=1e-13, atol=1e-13,
        )
        return ref.y.T

    def test_solves_to_any_end_share_their_samples(self):
        # Integer grids, so each shorter grid is the head of the longer ones;
        # sigma = 10 ends before the switch, 100 and 1e4 after it.
        runs = [
            integrate_sl(ATTRACTOR_II, None, (0.0, end), (0.1, 0.1, 0.1), samples=int(end) + 1)
            for end in (10.0, 100.0, 1e4)
        ]
        for short, long in zip(runs, runs[1:]):
            n = len(short)
            assert np.array_equal(long.t[:n], short.t)
            assert np.array_equal(long.states[:n], short.states)
        assert runs[0].meta.steps_taken < runs[1].meta.steps_taken
        assert runs[1].meta == runs[2].meta
        assert runs[2].meta.steps_taken < 400

    def test_stiff_gauge_member_matches_the_reference(self):
        # D = 0.1 stretches sl-a2's orbit over sigma in [0, 2.3e5], which
        # DP54 alone crosses in about 1.85M steps at its stability limit.
        x0 = (0.1, 0.1, 0.1)
        tr = integrate_sl(ATTRACTOR_II, Gauge(0.9, 0.1), (0.1, 1e6), x0)
        assert tr.meta.steps_taken < 1000
        sigma = tr.s - tr.s[0]
        assert sigma[-1] > 2e5
        # DOP853 up to sigma = 200, where the orbit is below 1e-40; Radau,
        # which is not held by a stability limit, beyond.
        head = sigma <= 200.0
        ref_head = self.reference(ATTRACTOR_II, x0, np.append(sigma[head], 200.0))
        assert np.max(np.abs(tr.states[head] - ref_head[:-1])) <= tr.meta.abs_tol
        ref_tail = self.reference(ATTRACTOR_II, ref_head[-1], sigma[~head], 200.0, "Radau")
        assert np.max(np.abs(tr.states[~head] - ref_tail)) <= tr.meta.abs_tol

    @pytest.mark.parametrize(
        "kind, params, parent_steps",
        [
            (SystemKind.SL, SystemParams(2.0, 5.0, 27.0), 888),  # stable focus-node pair
            (SystemKind.LORENZ_LITERAL, LORENZ_LITERAL_PARAMS, 944),  # stable node pair
        ],
    )
    def test_settled_pairs_match_the_reference(self, kind, params, parent_steps):
        # The DP54-only solve took `parent_steps` steps to t = 60.
        x0 = (0.1, 0.1, 0.1)
        tr = integrate_sl(effective_params(kind, params), None, (0.0, 60.0), x0)
        assert tr.meta.steps_taken < 0.7 * parent_steps
        err = np.abs(tr.states - self.reference(params, x0, tr.t))
        # The orbit has settled by t = 20: every later sample is on the tail.
        assert np.max(err[tr.t >= 20.0]) <= 0.1 * tr.meta.abs_tol
        assert np.max(err) <= 10.0 * tr.meta.abs_tol

    @pytest.mark.parametrize(
        "params", [ATTRACTOR_II, SystemParams(2.0, 5.0, 27.0), LORENZ_LITERAL_PARAMS]
    )
    def test_linear_flow_is_within_its_error_bound(self, params):
        # From a state on the switch radius, the flow must stay within the
        # 1e-2 * tol the radius is chosen for (stable node at the
        # origin, stable focus-node pair, stable node pair).  The reference
        # solves the full field written in the deviation d = x - x*, which
        # resolves d far below the rounding of x itself.
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
        atol = 1e-9
        a, b, c = params.a, params.b, params.c
        rng = np.random.default_rng(7)
        for tail in stable_tails(params):
            px, py, pz = tail.point

            def deviation(t, d):
                dx, dy, dz = d
                return (
                    a * (dy - dx),
                    (b - pz) * dx - dy - px * dz - dx * dz,
                    py * dx + px * dy - c * dz + dx * dy,
                )

            u = rng.normal(size=3)
            d0 = math.sqrt(tail.switch_radius2(atol)) * u / np.linalg.norm(u)
            flow = tail.flow(0.0, tuple(np.asarray(tail.point) + d0))
            taus = np.linspace(0.0, 2.0, 41)
            ref = solve_ivp(
                deviation, (0.0, 2.0), d0, method="DOP853", t_eval=taus, rtol=1e-13, atol=1e-22
            ).y.T
            err = max(np.max(np.abs(np.subtract(flow(tau), tail.point) - row)) for tau, row in zip(taus, ref))
            assert err <= 1e-2 * atol

    def test_runs_that_do_not_settle_keep_their_steps(self):
        # lorenz-standard has no stable equilibrium; the origin at b = 1 is
        # marginal.  Both keep the step counts of the DP54-only solve.
        lorenz = run_trajectory(scenario_registry()["lorenz-standard"])
        assert (lorenz.meta.steps_taken, lorenz.meta.steps_rejected) == (12413, 0)
        marginal = integrate_sl(SystemParams(2.0, 1.0, 27.0), GAUGE, (0.1, 1e6), (0.1, 0.1, 0.1))
        assert (marginal.meta.steps_taken, marginal.meta.steps_rejected) == (809, 1)

    def test_coalescing_eigenvalues_get_no_tail(self):
        # b = -(a-1)**2/(4a) merges the origin's two slow eigenvalues into a
        # double root with one eigenvector: the run keeps stepping.
        params = SystemParams(2.0, -0.125, 27.0)
        assert stable_tails(params) == []
        run = integrate_sl(params, None, (0.0, 50.0), (0.1, 0.1, 0.1), samples=50)
        (without,) = integrate._adaptive_solve(
            make_field(SystemKind.SL, params), 0.0, (0.1, 0.1, 0.1), 1e-9, [np.linspace(0.0, 50.0, 50)]
        )
        assert run == without and run.meta == without.meta


class TestTrajectory:
    def test_requires_matching_shapes(self):
        from slchaos.integrate import IntegrationMeta

        meta = IntegrationMeta(0, 0, "test")
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0]), np.array([0.0]), np.zeros((2, 3)), meta)

    def test_requires_monotone_time(self):
        from slchaos.integrate import IntegrationMeta

        meta = IntegrationMeta(0, 0, "test")
        with pytest.raises(ValueError, match="strictly increasing"):
            Trajectory(np.array([0.0, 0.0]), np.array([0.0, 1.0]), np.zeros((2, 3)), meta)

    def test_rejects_empty(self):
        from slchaos.integrate import IntegrationMeta

        meta = IntegrationMeta(0, 0, "test")
        with pytest.raises(ValueError):
            Trajectory(np.array([]), np.array([]), np.zeros((0, 3)), meta)

    def test_equality_ignores_meta(self):
        from slchaos.integrate import IntegrationMeta

        t = np.array([0.0, 1.0])
        st = np.zeros((2, 3))
        a = Trajectory(t, t.copy(), st, IntegrationMeta(5, 1, "rk45", 1e-9, 1e-9))
        b = Trajectory(t, t.copy(), st, IntegrationMeta(0, 0, "imported"))
        assert a == b

    def test_samples_view(self):
        from slchaos.integrate import IntegrationMeta

        tr = Trajectory(
            np.array([0.5, 1.0]),
            np.array([0.6, 1.2]),
            np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
            IntegrationMeta(0, 0, "test"),
        )
        assert (tr.t[0], tr.s[0], tuple(tr.states[0])) == (0.5, 0.6, (1.0, 2.0, 3.0))
        assert (tr.t[1], tr.s[1], tuple(tr.states[1])) == (1.0, 1.2, (4.0, 5.0, 6.0))
        assert tuple(tr.states[-1]) == (4.0, 5.0, 6.0)


class TestIdentityClock:
    """Without a gauge, `integrate_sl` runs on the identity clock s = t: the
    route every Lorenz run takes."""

    @pytest.mark.parametrize("name", ["lorenz-standard", "lorenz-literal"])
    def test_lorenz_scenarios_are_identity_runs(self, name):
        sc = scenario_registry()[name]
        tr = integrate_sl(effective_params(sc.kind), None, sc.span, sc.x0, sc.tol, sc.sample_count)
        ref = run_trajectory(sc)
        assert tr == ref and tr.meta == ref.meta
        assert tr.meta.mode is None and tr.meta.method == "rk45"
        assert np.array_equal(tr.t, tr.s)

    def test_mode_is_ignored(self):
        sc = scenario_registry()["lorenz-literal"]
        direct = integrate_sl(
            effective_params(sc.kind), None, sc.span, sc.x0, sc.tol, sc.sample_count,
            mode=SLMode.DIRECT_T,
        )
        ref = run_trajectory(sc)
        assert direct == ref and direct.meta == ref.meta and direct.meta.mode is None

    def test_span_may_start_anywhere(self):
        tr = integrate_sl(LORENZ_STANDARD_PARAMS, None, (-1.0, 1.0), (0.1, 0.1, 0.1), samples=21)
        assert np.array_equal(tr.t, np.linspace(-1.0, 1.0, 21)) and np.array_equal(tr.t, tr.s)
        assert tr.meta.mode is None


class TestIntegrateSL:
    def test_span_validation(self):
        for t0 in (0.0, -1.0):
            with pytest.raises(ValueError, match="0 < t0"):
                integrate_sl(ATTRACTOR_II, GAUGE, (t0, 10.0), (0.1, 0.1, 0.1))
        with pytest.raises(ValueError):
            integrate_sl(ATTRACTOR_II, GAUGE, (5.0, 1.0), (0.1, 0.1, 0.1))

    def test_origin_is_invariant_both_modes(self):
        for mode in (SLMode.DIRECT_T, SLMode.SCALED_S):
            tr = integrate_sl(ATTRACTOR_II, GAUGE, (0.1, 100.0), (0.0, 0.0, 0.0), samples=20, mode=mode)
            assert np.all(tr.states == 0.0)

    def test_scaled_s_columns(self):
        tr = integrate_sl(ATTRACTOR_II, GAUGE, (0.1, 1000.0), (0.1, 0.1, 0.1), samples=30)
        assert tr.meta.mode == "scaled-s"
        assert np.array_equal(tr.t, np.geomspace(0.1, 1000.0, 30))
        expect_s = np.array([scale_time(GAUGE, tv) for tv in tr.t])
        assert np.array_equal(tr.s, expect_s)

    def test_direct_t_columns(self):
        tr = integrate_sl(ATTRACTOR_II, GAUGE, (0.1, 1000.0), (0.1, 0.1, 0.1), samples=30, mode=SLMode.DIRECT_T)
        assert tr.meta.mode == "direct-t"
        assert np.array_equal(tr.t, np.geomspace(0.1, 1000.0, 30))
        for tv, sv in zip(tr.t, tr.s):
            assert sv == scale_time(GAUGE, tv)

    def test_modes_agree(self):
        a = integrate_sl(ATTRACTOR_II, GAUGE, (0.1, 100.0), (0.1, 0.1, 0.1), samples=50, mode=SLMode.DIRECT_T)
        b = integrate_sl(ATTRACTOR_II, GAUGE, (0.1, 100.0), (0.1, 0.1, 0.1), samples=50, mode=SLMode.SCALED_S)
        dev = np.max(np.abs(a.states - b.states))
        assert dev <= 1e-6

    @pytest.mark.parametrize("mode", [SLMode.SCALED_S, SLMode.DIRECT_T])
    def test_partial_carries_both_time_columns(self, mode, monkeypatch):
        monkeypatch.setattr(integrate, "_MAX_STEPS", 50)
        with pytest.raises(IntegrationError) as info:
            integrate_sl(ATTRACTOR_II, GAUGE, (0.1, 1e6), (0.1, 0.1, 0.1), mode=mode)
        partial = info.value.partial
        assert partial.meta.mode == mode.value
        assert partial.t[0] == 0.1
        assert np.array_equal(partial.s, [scale_time(GAUGE, tv) for tv in partial.t])

    def test_gauges_share_one_solve_and_its_failure(self, monkeypatch):
        # With a budget that D = 0.9's short sigma-range fits in (134 steps)
        # and D = 0.5's does not (321 steps to its settled tail), each gauge's
        # entry is what its own run gives: a run, or the same error with the
        # same partial.
        monkeypatch.setattr(integrate, "_MAX_STEPS", 200)
        gauges = (Gauge(0.9, 0.5), Gauge(0.9, 0.9))
        span, x0 = (0.1, 1e6), (0.1, 0.1, 0.1)
        failed, done = integrate_sl_gauges(ATTRACTOR_II, gauges, span, x0, samples=300)
        alone_done = integrate_sl(ATTRACTOR_II, gauges[1], span, x0, samples=300)
        assert done == alone_done and done.meta == alone_done.meta
        with pytest.raises(IntegrationError, match="budget") as info:
            integrate_sl(ATTRACTOR_II, gauges[0], span, x0, samples=300)
        alone = info.value
        assert isinstance(failed, IntegrationError)
        assert (str(failed), failed.step_index) == (str(alone), alone.step_index)
        assert failed.partial == alone.partial and failed.partial.meta == alone.partial.meta
        assert 0 < len(failed.partial) < 300


def test_config_validation():
    for tol in (0.0, -1e-9, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            integrate_sl(DECAY, None, (0.0, 1.0), (1.0, 0.0, 0.0), tol=tol)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            integrate_sl_gauges(DECAY, (None,), (0.0, 1.0), (1.0, 0.0, 0.0), tol=tol)
    # DP54 is the only integrator of a run: there is no method to choose.
    with pytest.raises(TypeError, match="method"):
        integrate_sl(DECAY, None, (0.0, 1.0), (1.0, 0.0, 0.0), method="rk4")  # type: ignore[call-arg]


def test_plan_validation():
    with pytest.raises(ValueError, match="sample_count must be >= 2"):
        integrate_sl(DECAY, None, (0.0, 1.0), (1.0, 0.0, 0.0), samples=1)
    with pytest.raises(ValueError, match="sample_count must be >= 2"):
        integrate_sl_gauges(DECAY, (None,), (0.0, 1.0), (1.0, 0.0, 0.0), samples=1)
    with pytest.raises(ValueError, match="mode must be an SLMode"):
        integrate_sl(ATTRACTOR_II, GAUGE, (0.1, 1.0), (0.1, 0.1, 0.1), mode="direct-t")  # type: ignore[arg-type]
