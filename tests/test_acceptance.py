"""Acceptance suite: the eight gate criteria, one test per criterion.

Run `pytest -v tests/test_acceptance.py` to get one PASSED/FAILED line per
criterion; each test also prints its measured numbers (visible with -s or
in failure reports).
"""

import math
import time

import numpy as np
import pytest

from slchaos.analysis import (
    NewtonError,
    char_poly_residual,
    conjecture_report,
    divergence_probe,
    eigenvalues_3x3,
    max_lyapunov,
    newton_fixed_point,
    separation_slope,
)
from slchaos.cli import cli_main
from slchaos.dynamics import (
    LORENZ_STANDARD_PARAMS,
    State3,
    SystemKind,
    SystemParams,
    effective_params,
    equilibria,
    jacobian,
)
from slchaos.integrate import integrate_direct_t, integrate_fixed, integrate_sl
from slchaos.scenarios import builtin_scenarios, lookup_scenario, run_trajectory, scenario_report
from slchaos.timegauge import Gauge
from slchaos.trajio import read_trajectory_csv, write_trajectory_csv

ATTRACTOR_II = SystemParams(2.0, 0.3, 27.0)
GAUGE = Gauge(0.9, 2.0 / 3.0)
X0 = State3(0.1, 0.1, 0.1)


def test_criterion_1_gauge_reduction_equivalence():
    """Direct gauged integration and the scaled-time route agree to 1e-5
    at 100 geometric samples over t in [0.1, 1e4], within 5 seconds."""
    span = (0.1, 1e4)
    start = time.monotonic()
    direct = integrate_direct_t(ATTRACTOR_II, GAUGE, span, X0, tol=1e-9, samples=100)
    scaled = integrate_sl(ATTRACTOR_II, GAUGE, span, X0, tol=1e-9, samples=100)
    elapsed = time.monotonic() - start
    deviation = float(
        np.max(np.abs(direct.states - scaled.states) / np.maximum(1.0, np.abs(scaled.states)))
    )
    print(f"[criterion 1] deviation {deviation:.3e} (<= 1e-5), runtime {elapsed:.3f} s (<= 5)")
    assert deviation <= 1e-5
    assert elapsed <= 5.0


def test_criterion_2_rk4_convergence_order():
    """Fixed RK4 on dx/ds = -x over [0, 1]: empirical order in [3.7, 4.3]
    across steps {0.1, 0.05, 0.025}; value at 1000 steps within 1e-10 of
    exp(-1)."""
    rhs = lambda t, state: (-state[0], 0.0, 0.0)
    x0 = (1.0, 0.0, 0.0)
    errors = []
    for h in (0.1, 0.05, 0.025):
        traj = integrate_fixed(rhs, 0.0, 1.0, x0, round(1.0 / h))
        errors.append(abs(float(traj.states[-1, 0]) - math.exp(-1.0)))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    fine = abs(float(integrate_fixed(rhs, 0.0, 1.0, x0, 1000).states[-1, 0]) - math.exp(-1.0))
    print(f"[criterion 2] orders {orders[0]:.3f}, {orders[1]:.3f} (in [3.7, 4.3]); "
          f"error at 1000 steps {fine:.3e} (<= 1e-10)")
    for order in orders:
        assert 3.7 <= order <= 4.3
    assert fine <= 1e-10


def test_criterion_3_equilibria_and_newton_routes():
    """Closed-form equilibria match the known sets, and Newton from 100
    random seeds in [-20, 20]^3 lands only on those points or fails
    loudly."""
    only = equilibria(ATTRACTOR_II)
    assert len(only) == 1
    assert tuple(only[0].point) == (0.0, 0.0, 0.0)
    assert only[0].residual_norm <= 1e-12

    triple = equilibria(LORENZ_STANDARD_PARAMS)
    root = math.sqrt(72.0)
    assert len(triple) == 3
    assert tuple(triple[0].point) == (0.0, 0.0, 0.0)
    assert tuple(triple[1].point) == pytest.approx((root, root, 27.0), abs=1e-10)
    assert tuple(triple[2].point) == pytest.approx((-root, -root, 27.0), abs=1e-10)
    for eq in triple:
        assert eq.residual_norm <= 1e-12

    known = [(0.0, 0.0, 0.0), (root, root, 27.0), (-root, -root, 27.0)]
    rng = np.random.default_rng(0)
    converged = 0
    failures = 0
    for _ in range(100):
        seed = rng.uniform(-20.0, 20.0, 3)
        try:
            eq = newton_fixed_point(SystemKind.LORENZ_STANDARD, None, seed)
        except NewtonError:
            failures += 1
            continue
        converged += 1
        hit = any(
            max(abs(eq.point.x - kx), abs(eq.point.y - ky), abs(eq.point.z - kz)) <= 1e-6
            for kx, ky, kz in known
        )
        assert hit, f"Newton from {seed} converged to stray point {tuple(eq.point)}"
    print(f"[criterion 3] residuals <= 1e-12; Newton: {converged} converged to known "
          f"points, {failures} reported failure (100 seeds)")
    assert converged + failures == 100
    assert converged > 0


def test_criterion_4_origin_spectrum_and_residual_invariant():
    """Origin spectrum for (2, 3/10, 27) matches the closed-form values;
    the characteristic-polynomial residual stays below 1e-9 * scale over
    1e4 random matrices."""
    spec = eigenvalues_3x3(jacobian(SystemKind.SL, ATTRACTOR_II, (0.0, 0.0, 0.0)))
    root = math.sqrt(3.4)
    err_fast = abs(spec.eigenvalues[0] - (-3.0 + root) / 2.0)
    err_slow = abs(spec.eigenvalues[1] - (-3.0 - root) / 2.0)
    err_c = abs(spec.eigenvalues[2] - (-27.0))
    assert err_fast <= 1e-6
    assert err_slow <= 1e-6
    assert err_c <= 1e-12

    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10_000):
        m = rng.uniform(-30.0, 30.0, (3, 3))
        scale = max(1.0, float(np.max(np.abs(m))) ** 3)
        ratio = char_poly_residual(m, eigenvalues_3x3(m)) / scale
        worst = max(worst, ratio)
        assert ratio <= 1e-9
    print(f"[criterion 4] spectrum errors {err_fast:.2e}/{err_slow:.2e}/{err_c:.2e}; "
          f"worst residual ratio {worst:.2e} (<= 1e-9) over 10000 matrices")


def test_criterion_5_lorenz_baseline_behavior():
    """lorenz-standard stays bounded over [0, 60], visits both x-lobes at
    least 5 times, and its largest exponent is positive and stable to
    +/- 0.05 under halving the renormalization interval."""
    traj = run_trajectory(lookup_scenario("lorenz-standard"))
    bound = float(np.max(np.abs(traj.states)))
    assert bound < 100.0

    x = traj.states[:, 0]
    signs = np.sign(x[np.abs(x) > 1.0])
    runs = int(np.sum(signs[1:] != signs[:-1])) + 1
    pos_runs = (runs + (1 if signs[0] > 0 else 0)) // 2
    neg_runs = runs - pos_runs
    assert min(pos_runs, neg_runs) >= 5

    est_half = max_lyapunov(SystemKind.LORENZ_STANDARD, None, X0, 1000.0, 0.5)
    est_quarter = max_lyapunov(SystemKind.LORENZ_STANDARD, None, X0, 1000.0, 0.25)
    drift = abs(est_half.lambda_max - est_quarter.lambda_max)
    print(f"[criterion 5] bound {bound:.2f} (< 100); lobe visits {pos_runs}/{neg_runs} "
          f"(>= 5); lambda_max {est_half.lambda_max:.4f} (> 0), drift {drift:.2e} (<= 0.05)")
    assert est_half.lambda_max > 0.0
    assert drift <= 0.05


def test_criterion_6_sl_full_span_characterization():
    """sl-a2 and sl-a2.35 integrate over the full six-decade span without
    failure, stay finite and below 1e3, and the reported exponent sign
    agrees with the divergence-probe slope sign on the same horizon.  No
    claim is made about the sign itself."""
    for name in ("sl-a2", "sl-a2.35"):
        sc = lookup_scenario(name)
        traj = run_trajectory(sc)
        assert np.all(np.isfinite(traj.states))
        peak = float(np.max(np.abs(traj.states)))
        assert peak <= 1e3

        report = scenario_report(sc, traj)
        assert report["lyapunov"]["time_variable"] == "s"
        lam = report["lyapunov"]["lambda_max"]
        horizon = report["lyapunov"]["horizon"]
        series = divergence_probe(SystemKind.SL, sc.params, sc.x0, 1e-8, horizon)
        slope = separation_slope(series)
        print(f"[criterion 6] {name}: peak {peak:.3f} (<= 1e3), lambda_max {lam:.4f}, "
              f"probe slope {slope:.4f}, signs agree")
        assert math.copysign(1.0, lam) == math.copysign(1.0, slope)


def test_criterion_7_conjecture_satisfied_for_all_scenarios():
    """Every built-in parameter set admits at least one fixed point and
    the report says so."""
    for sc in builtin_scenarios():
        rep = conjecture_report(effective_params(sc.kind, sc.params))
        assert rep.verdict == "satisfied", f"{sc.name}: verdict {rep.verdict!r}"
        assert len(rep.equilibria_found) >= 1, f"{sc.name}: empty witness list"
    print("[criterion 7] all 6 built-in parameter sets: verdict satisfied, witnesses non-empty")


def test_criterion_8_determinism_and_formats(tmp_path):
    """Repeated simulate runs are byte-identical, CSV round-trips exactly,
    and the registry carries the documented coefficients."""
    for sub in ("one", "two"):
        code = cli_main(["simulate", "--scenario", "sl-a2", "--out", str(tmp_path / sub)])
        assert code == 0
    names = sorted(p.name for p in (tmp_path / "one").iterdir())
    assert len(names) == 6
    for name in names:
        a = (tmp_path / "one" / name).read_bytes()
        b = (tmp_path / "two" / name).read_bytes()
        assert a == b, f"{name} differs between runs"

    csv_path = tmp_path / "one" / "sl-a2.csv"
    copy_path = tmp_path / "copy.csv"
    write_trajectory_csv(read_trajectory_csv(csv_path), copy_path)
    assert copy_path.read_bytes() == csv_path.read_bytes()

    reg = builtin_scenarios()
    assert [sc.name for sc in reg] == [
        "sl-a2.35",
        "sl-a2",
        "sl-a1.5",
        "sl-a1.35",
        "lorenz-standard",
        "lorenz-literal",
    ]
    assert reg[0].params.a == 47.0 / 20.0
    for sc in reg[:4]:
        assert sc.params.b == 3.0 / 10.0
        assert sc.params.c == 27.0
        assert sc.gauge is not None
        assert sc.gauge.D == 2.0 / 3.0
        assert sc.gauge.mu == 0.9
        assert tuple(sc.x0) == (0.1, 0.1, 0.1)
        assert sc.span == (0.1, 1e6)
    for sc in reg[4:]:
        assert sc.span == (0.0, 60.0)
        assert tuple(sc.x0) == (0.1, 0.1, 0.1)
    print("[criterion 8] byte-identical artifact sets, exact CSV round trip, registry matches")
