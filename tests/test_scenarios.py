import dataclasses
import json
import math
import re

import numpy as np
import pytest

from slchaos import integrate, scenarios
from slchaos.cli import cli_main
from slchaos.dynamics import State3, SystemKind, SystemParams, effective_params
from slchaos.scenarios import (
    Scenario,
    ScenarioNotFound,
    SweepSpec,
    builtin_scenarios,
    derive,
    lookup_scenario,
    run_compare,
    run_scenario,
    run_sweep,
    run_trajectory,
    scenario_registry,
    scenario_report,
)
from slchaos.timegauge import Gauge
from slchaos.trajio import read_trajectory_csv, write_trajectory_csv

REGISTRY_ORDER = ["sl-a2.35", "sl-a2", "sl-a1.5", "sl-a1.35", "lorenz-standard", "lorenz-literal"]


class TestRegistry:
    def test_names_in_order(self):
        assert [sc.name for sc in builtin_scenarios()] == REGISTRY_ORDER
        assert list(scenario_registry()) == REGISTRY_ORDER

    def test_parameter_study_members(self):
        members = builtin_scenarios()[:4]
        for sc, a in zip(members, (47.0 / 20.0, 2.0, 1.5, 1.35)):
            assert sc.kind is SystemKind.SL
            assert sc.params.a == a
            assert sc.params.b == 0.3
            assert sc.params.c == 27.0
            assert sc.gauge is not None
            assert sc.gauge.mu == 0.9
            assert sc.gauge.D == 2.0 / 3.0
            assert tuple(sc.x0) == (0.1, 0.1, 0.1)
            assert sc.span == (0.1, 1e6)
            assert (sc.tol, sc.sample_count) == (1e-9, 2000)

    def test_lorenz_members(self):
        std, lit = builtin_scenarios()[4:]
        assert std.kind is SystemKind.LORENZ_STANDARD
        assert (std.params.a, std.params.b, std.params.c) == (10.0, 28.0, 8.0 / 3.0)
        assert lit.kind is SystemKind.LORENZ_LITERAL
        assert (lit.params.a, lit.params.b, lit.params.c) == (10.0, 8.0 / 3.0, 28.0)
        for sc in (std, lit):
            assert sc.gauge is None
            assert sc.span == (0.0, 60.0)
            assert (sc.tol, sc.sample_count) == (1e-9, 2000)

    def test_unknown_name(self):
        with pytest.raises(ScenarioNotFound, match="unknown scenario"):
            lookup_scenario("sl-a9")


class TestScenarioValidation:
    def _sl_kwargs(self):
        return dict(
            name="x",
            kind=SystemKind.SL,
            params=SystemParams(2.0, 0.3, 27.0),
            gauge=Gauge(0.9, 2.0 / 3.0),
            x0=State3(0.1, 0.1, 0.1),
            span=(0.1, 10.0),
        )

    def test_sl_needs_gauge(self):
        kw = self._sl_kwargs()
        kw["gauge"] = None
        with pytest.raises(ValueError, match="gauge"):
            Scenario(**kw)

    def test_sl_span_must_start_positive(self):
        kw = self._sl_kwargs()
        kw["span"] = (0.0, 10.0)
        with pytest.raises(ValueError, match="t0 > 0"):
            Scenario(**kw)

    def test_lorenz_takes_no_gauge(self):
        kw = self._sl_kwargs()
        kw["kind"] = SystemKind.LORENZ_STANDARD
        kw["span"] = (0.0, 10.0)
        with pytest.raises(ValueError, match="no gauge"):
            Scenario(**kw)

    @pytest.mark.parametrize(
        "kind, fixed",
        [
            (SystemKind.LORENZ_STANDARD, "(10.0, 28.0, 2.6666666666666665)"),
            (SystemKind.LORENZ_LITERAL, "(10.0, 2.6666666666666665, 28.0)"),
        ],
        ids=["lorenz-standard", "lorenz-literal"],
    )
    def test_lorenz_coefficients_are_fixed(self, kind, fixed):
        # A Lorenz run is solved and reported with its fixed coefficients, so
        # a Scenario that carries any others would describe a run it is not.
        x0 = State3(0.1, 0.1, 0.1)
        with pytest.raises(ValueError, match=re.escape(f"fixed coefficients (a, b, c) = {fixed}")):
            Scenario("odd", kind, SystemParams(1.0, 2.0, 3.0), None, x0, (0.0, 5.0))
        p = effective_params(kind)
        sc = Scenario("ok", kind, p, None, x0, (0.0, 5.0))
        assert scenario_report(sc, run_trajectory(sc))["params"] == {"a": p.a, "b": p.b, "c": p.c}

    def test_c_must_be_positive(self):
        kw = self._sl_kwargs()
        kw["params"] = SystemParams(2.0, 0.3, -1.0)
        with pytest.raises(ValueError, match="c must be positive"):
            Scenario(**kw)

    def test_span_ordering(self):
        kw = self._sl_kwargs()
        kw["span"] = (10.0, 0.1)
        with pytest.raises(ValueError, match="span"):
            Scenario(**kw)

    def test_name_required(self):
        kw = self._sl_kwargs()
        kw["name"] = ""
        with pytest.raises(ValueError, match="name"):
            Scenario(**kw)

    @pytest.mark.parametrize("name", ["../escaped", "a/b", "a<b&c", ".hidden", "-x", "a b", "sl-a2\n"])
    def test_name_must_be_a_plain_file_stem(self, name):
        # A name is a file stem and SVG title text: one with a path or
        # markup in it would write outside the output directory or break
        # the SVG, so no Scenario can carry it.
        with pytest.raises(ValueError, match="plain file stem"):
            dataclasses.replace(lookup_scenario("lorenz-literal"), name=name)

    def test_sample_count_must_be_an_integer(self):
        kw = self._sl_kwargs()
        for n in (2.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="sample_count must be an integer"):
                Scenario(**kw, sample_count=n)
        assert Scenario(**kw, sample_count=np.int64(50)).sample_count == 50
        assert Scenario(**kw, sample_count=50.0).sample_count == 50


class TestRunScenario:
    def test_writes_six_artifacts(self, tmp_path):
        paths = run_scenario("sl-a2", tmp_path)
        expected = sorted(
            [
                "sl-a2.csv",
                "sl-a2-analysis.json",
                "sl-a2-traj3d.svg",
                "sl-a2-xy.svg",
                "sl-a2-xz.svg",
                "sl-a2-yz.svg",
            ]
        )
        assert sorted(p.name for p in paths) == expected
        assert sorted(p.name for p in tmp_path.iterdir()) == expected

    @pytest.mark.parametrize("name", ["sl-a2", "lorenz-literal"])
    def test_one_fixed_point_table_per_run(self, name, tmp_path, monkeypatch):
        # The solve's settled tail, the estimator's equilibrium exit and the
        # report's equilibria block all read the table; it is built once.
        from slchaos import analysis

        builds = []

        def counted(params):
            builds.append(params)
            return equilibria(params)

        equilibria = analysis.equilibria
        monkeypatch.setattr(analysis, "equilibria", counted)
        run_scenario(name, tmp_path)
        assert len(builds) == 1
        report = json.loads((tmp_path / f"{name}-analysis.json").read_text())
        assert report["lyapunov"]["estimator"] == "equilibrium"

    def test_report_document(self, tmp_path):
        run_scenario("sl-a2", tmp_path)
        report = json.loads((tmp_path / "sl-a2-analysis.json").read_text())
        assert report["scenario"] == "sl-a2"
        assert report["system"] == "sl"
        assert report["params"] == {"a": 2.0, "b": 0.3, "c": 27.0}
        assert report["gauge"]["mu"] == 0.9
        assert report["gauge"]["lambda"] == pytest.approx(0.3)
        assert report["x0"] == [0.1, 0.1, 0.1]
        assert report["span"] == [0.1, 1e6]
        assert len(report["equilibria"]) == 1
        origin = report["equilibria"][0]
        assert origin["point"] == [0.0, 0.0, 0.0]
        assert origin["class"] == "stable node"
        assert len(origin["spectrum"]) == 3
        assert report["lyapunov"]["time_variable"] == "s"
        assert report["lyapunov"]["lambda_max"] < 0.0
        assert report["conjecture"] == {
            "verdict": "satisfied",
            "equilibrium_count": 1,
            "note": "origin only",
        }
        assert report["meta"]["method"] == "taylor"
        assert report["meta"]["tol"] == lookup_scenario("sl-a2").tol
        assert report["meta"]["steps_taken"] > 0
        # the clock is named once, by the gauge block
        assert "mode" not in report["meta"]

    def test_lorenz_report(self):
        sc = lookup_scenario("lorenz-standard")
        traj = run_trajectory(sc)
        report = scenario_report(sc, traj)
        assert report["gauge"] is None
        assert set(report["meta"]) == {"steps_taken", "steps_rejected", "method", "tol"}
        assert report["lyapunov"]["time_variable"] == "t"
        assert report["lyapunov"]["lambda_max"] > 0.0
        assert [e["class"] for e in report["equilibria"]] == ["saddle", "saddle", "saddle"]
        assert report["conjecture"]["equilibrium_count"] == 3

    def test_lorenz_standard_report_keeps_its_twin_estimate(self):
        # A chaotic orbit settles on no equilibrium, so the report runs the
        # whole twin estimate, and its number must not move.
        sc = lookup_scenario("lorenz-standard")
        lyap = scenario_report(sc, run_trajectory(sc))["lyapunov"]
        assert lyap["lambda_max"] == float.fromhex("0x1.70182ce0651d6p-1")
        assert lyap["estimator"] == "twin"
        assert lyap["settled_at"] is None

    def test_lorenz_literal_report_is_its_attracting_pair_exponent(self):
        # The orbit settles on the pair (+-r, +-r, b - 1), where the Jacobian
        # is written out here so the oracle shares no code with the package.
        sc = lookup_scenario("lorenz-literal")
        report = scenario_report(sc, run_trajectory(sc))
        lyap = report["lyapunov"]
        a, b, c = 10.0, 8.0 / 3.0, 28.0
        r = math.sqrt(c * (b - 1.0))
        jac = np.array([[-a, a, 0.0], [1.0, -1.0, -r], [r, r, -c]])
        exact = float(max(np.linalg.eigvals(jac).real))
        assert exact == pytest.approx(-5.3092006798, abs=1e-10)
        assert lyap["estimator"] == "equilibrium"
        assert abs(lyap["lambda_max"] - exact) <= 1e-12
        assert lyap["sample_stddev"] == 0.0
        assert 0.0 < lyap["settled_at"] < lyap["horizon"] == 60.0
        # and it is the leading real part of a stable entry of the report's
        # own equilibrium table
        stable = [e for e in report["equilibria"] if e["class"].startswith("stable")]
        assert lyap["lambda_max"] in [e["spectrum"][0][0] for e in stable]

    @pytest.mark.parametrize(
        "name, settled_at",
        [("sl-a2.35", 6.0), ("sl-a2", 6.0), ("sl-a1.5", 6.0), ("sl-a1.35", 6.0), ("lorenz-literal", 5.04)],
    )
    def test_report_settles_on_entering_a_convergence_radius(self, name, settled_at, monkeypatch):
        # `settled_at` is the first renormalization boundary at which the
        # reference state lies within a stable tail's convergence radius; at
        # the boundary before, it lies outside every one.
        from slchaos import analysis
        from slchaos.analysis import lyapunov_from_field, stable_tails
        from slchaos.dynamics import make_field

        sc = lookup_scenario(name)
        lyap = scenario_report(sc, run_trajectory(sc))["lyapunov"]
        assert lyap["estimator"] == "equilibrium"
        assert lyap["settled_at"] == settled_at
        tails = stable_tails(sc.params)
        assert lyap["lambda_max"] in [-tail.alpha for tail in tails]

        def inside(state):
            return any(
                sum((u - v) ** 2 for u, v in zip(state, tail.point)) <= tail.radius2 for tail in tails
            )

        # The reference state at each boundary: the start, then the end of
        # each interval it is carried across.  The reference runs first, so
        # every state carried before the settle is a reference state.
        seen = [tuple(sc.x0)]
        carry = analysis._carry

        def record(*args):
            seen.append(carry(*args))
            return seen[-1]

        monkeypatch.setattr(analysis, "_carry", record)
        rhs, renorm = make_field(sc.kind, sc.params), lyap["renorm_interval"]
        est = lyapunov_from_field(rhs, tuple(sc.x0), lyap["horizon"], renorm, tails=tails)
        assert est.settled_at == settled_at == (len(seen) - 1) * renorm
        assert inside(seen[-1]) and not inside(seen[-2])

    def test_settled_report_carries_only_its_reference(self, monkeypatch):
        # sl-a2 settles at s = 6: 3 intervals of 200 RK4 steps of the
        # reference alone, and the twin never takes a step.
        from slchaos import analysis

        sc = lookup_scenario("sl-a2")
        traj = run_trajectory(sc)
        calls = []
        step = analysis.rk4_step

        def counted(*args):
            calls.append(None)
            return step(*args)

        monkeypatch.setattr(analysis, "rk4_step", counted)
        assert scenario_report(sc, traj)["lyapunov"]["settled_at"] == 6.0
        assert len(calls) == 600

    def test_chaotic_gauged_report_does_not_depend_on_the_span(self):
        # With the Lorenz coefficients the gauged orbit is chaotic and settles
        # nowhere, so the report runs the whole twin.  Its budget is in s and
        # not the run's span, so a D = 0.9 run (2.9 s-units long) reports the
        # same positive exponent as the default gauge (89.6 s-units), close
        # to Sprott's 0.9056 for the Lorenz system.
        base = derive(lookup_scenario("sl-a2"), "lorenz-gauged", a=10.0, b=28.0, c=8.0 / 3.0)
        lams = []
        for sc in (base, derive(base, "lorenz-gauged-D0.9", D=0.9)):
            lyap = scenario_report(sc, run_trajectory(sc))["lyapunov"]
            assert lyap["estimator"] == "twin"
            lams.append(lyap["lambda_max"])
        assert lams[0] == lams[1]
        assert abs(lams[0] - 0.9056) < 0.02

    def test_runs_are_byte_identical(self, tmp_path):
        first = run_scenario("sl-a1.5", tmp_path / "one")
        second = run_scenario("sl-a1.5", tmp_path / "two")
        for a, b in zip(first, second):
            assert a.name == b.name
            assert a.read_bytes() == b.read_bytes()

    def test_csv_round_trips_run_output(self, tmp_path):
        traj = run_trajectory(lookup_scenario("sl-a2"))
        path = tmp_path / "t.csv"
        write_trajectory_csv(traj, path)
        assert read_trajectory_csv(path) == traj


class TestDerive:
    def test_replaces_only_the_given_settings(self):
        base = lookup_scenario("sl-a2")
        sc = derive(base, "x", b=0.5, D=0.5, y0=0.2, t1=10.0, tol=1e-6, sample_count=50)
        assert sc.name == "x"
        assert sc.params == SystemParams(2.0, 0.5, 27.0)
        assert sc.gauge == Gauge(0.9, 0.5)
        assert sc.x0 == State3(0.1, 0.2, 0.1)
        assert sc.span == (0.1, 10.0)
        assert (sc.tol, sc.sample_count) == (1e-6, 50)
        assert derive(base, base.name) == base

    def test_unknown_setting_is_rejected(self):
        with pytest.raises(ValueError, match="unknown run setting 'rho'"):
            derive(lookup_scenario("sl-a2"), "x", rho=1.0)
        with pytest.raises(ValueError, match="unknown run setting 'method'"):
            derive(lookup_scenario("sl-a2"), "x", method="rk4")
        with pytest.raises(ValueError, match="unknown run setting 'mode'"):
            derive(lookup_scenario("sl-a2"), "x", mode="direct-t")


def _shared_solve_sizes(monkeypatch) -> list[int]:
    """The number of gauges in each shared solve `run_sweep` makes."""
    sizes: list[int] = []
    real = scenarios.integrate_sl_gauges

    def counted(params, gauges, *args):
        sizes.append(len(gauges))
        return real(params, gauges, *args)

    monkeypatch.setattr(scenarios, "integrate_sl_gauges", counted)
    return sizes


def _sweep_matching_standalone_runs(base, parameter, values, root) -> dict:
    """Run the sweep, and check that each member's six files are
    byte-identical to a standalone run of its derived scenario."""
    summary = run_sweep(SweepSpec(base, parameter, values), root / "sweep")
    for row in summary["results"]:
        if "error" in row:
            continue
        member = derive(base, row["scenario"], **{parameter: row["value"]})
        paths = run_scenario(member, root / row["directory"])
        assert len(paths) == 6
        for path in paths:
            assert (root / "sweep" / row["directory"] / path.name).read_bytes() == path.read_bytes()
    return summary


class TestSweep:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="sweep parameter"):
            SweepSpec("sl-a2", "q", (1.0,))
        with pytest.raises(ValueError, match="at least one"):
            SweepSpec("sl-a2", "a", ())
        with pytest.raises(ValueError, match="finite"):
            SweepSpec("sl-a2", "a", (float("nan"),))

    def test_rows_follow_input_order(self, tmp_path):
        summary = run_sweep(SweepSpec("sl-a2", "D", (0.5, 0.9)), tmp_path)
        rows = summary["results"]
        assert [r["value"] for r in rows] == [0.5, 0.9]
        assert rows[0]["directory"] == "D-0.5"
        assert rows[0]["scenario"] == "sl-a2-D0.5"
        assert rows[0]["gauge"]["D"] == 0.5
        for row in rows:
            assert "error" not in row
            assert len(row["final_state"]) == 3
            assert row["origin_class"] == "stable node"
        assert (tmp_path / "D-0.5" / "sl-a2-D0.5.csv").exists()
        assert json.loads((tmp_path / "summary.json").read_text()) == summary

    def test_members_match_standalone_runs(self, tmp_path):
        # Each member's six files are byte-identical to a standalone run of
        # the derived scenario, which a sweep that shares work between
        # members must keep.
        base = lookup_scenario("sl-a2")
        summary = run_sweep(SweepSpec(base, "D", (0.5, 0.9)), tmp_path / "sweep")
        for row in summary["results"]:
            member = derive(base, row["scenario"], D=row["value"])
            paths = run_scenario(member, tmp_path / row["directory"])
            assert len(paths) == 6
            for path in paths:
                swept = tmp_path / "sweep" / row["directory"] / path.name
                assert swept.read_bytes() == path.read_bytes()

    def test_gauge_sweep_reports_one_exact_exponent(self, tmp_path, capsys):
        # The exponent in s depends on (a, b, c, x0) only, so every member of
        # a D sweep reports what `lyapunov` reports for the base, and each
        # orbit settles on the stable origin, whose leading eigenvalue is
        # exact, however short the member's own span in s.
        run_sweep(SweepSpec("sl-a2", "D", (0.5, 0.6, 0.7, 0.8, 0.9)), tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        lams = [row["lambda_max"] for row in summary["results"]]
        assert cli_main(["lyapunov", "--system", "sl", "--a", "2"]) == 0
        standalone = json.loads(capsys.readouterr().out)["lambda_max"]
        assert lams == [standalone] * 5
        a, b = 2.0, 0.3
        origin = (-(a + 1.0) + math.sqrt((a - 1.0) ** 2 + 4.0 * a * b)) / 2.0
        for lam in lams:
            assert abs(lam - origin) <= 1e-12

    def test_mu_sweep_members_match_standalone_runs(self, tmp_path, monkeypatch):
        sizes = _shared_solve_sizes(monkeypatch)
        _sweep_matching_standalone_runs(lookup_scenario("sl-a2"), "mu", (0.5, 1.3), tmp_path)
        assert sizes == [2]

    def test_invalid_gauge_keeps_its_row_while_the_rest_share_one_solve(self, tmp_path, monkeypatch):
        sizes = _shared_solve_sizes(monkeypatch)
        summary = _sweep_matching_standalone_runs(
            lookup_scenario("sl-a2"), "D", (0.5, 1.5, 0.9), tmp_path
        )
        rows = summary["results"]
        assert [r["value"] for r in rows] == [0.5, 1.5, 0.9]
        assert rows[1]["error"].startswith("ValueError")
        assert "strictly in (0, 1)" in rows[1]["error"]
        assert [r["scenario"] for r in (rows[0], rows[2])] == ["sl-a2-D0.5", "sl-a2-D0.9"]
        assert sizes == [2]

    def test_gauge_sweep_with_overrides_shares_one_solve(self, tmp_path, monkeypatch):
        # The members inherit the base's tol, sample count and span, and one
        # solve still serves them all.
        sizes = _shared_solve_sizes(monkeypatch)
        base = derive(lookup_scenario("sl-a2"), "sl-a2", tol=1e-8, sample_count=300, t1=1000.0)
        _sweep_matching_standalone_runs(base, "D", (0.5, 0.9), tmp_path)
        assert sizes == [2]

    @pytest.mark.parametrize(
        "parameter, values, budget, sizes_read",
        [("D", (0.5, 0.9), 60, [2]), ("a", (1.35, 2.0), 120, [1, 1])],
    )
    def test_member_whose_solve_fails_keeps_its_row(
        self, tmp_path, monkeypatch, parameter, values, budget, sizes_read
    ):
        # Under the patched step budget the first member's solve fails (D =
        # 0.5 needs 116 steps, a = 1.35 needs 129) and the second's does not
        # (D = 0.9 needs 21, a = 2 needs 116).  The failure is the first
        # member's row alone: its directory holds nothing, and the second
        # member still matches its standalone run under the same budget.
        monkeypatch.setattr(integrate, "_MAX_STEPS", budget)
        sizes = _shared_solve_sizes(monkeypatch)
        summary = _sweep_matching_standalone_runs(lookup_scenario("sl-a2"), parameter, values, tmp_path)
        failed, kept = summary["results"]
        assert failed["error"].startswith(f"IntegrationError: step budget of {budget} exhausted at t = ")
        assert list((tmp_path / "sweep" / failed["directory"]).iterdir()) == []
        assert "error" not in kept
        assert sizes == sizes_read

    def test_bad_value_becomes_error_row(self, tmp_path):
        summary = run_sweep(SweepSpec("sl-a2", "c", (-1.0, 27.0)), tmp_path)
        rows = summary["results"]
        assert rows[0]["directory"] == "c--1"
        assert rows[0]["error"].startswith("ValueError")
        assert "c must be positive" in rows[0]["error"]
        # the failure does not abort the remaining members
        assert "error" not in rows[1]
        assert rows[1]["scenario"] == "sl-a2-c27"

    def test_coefficient_sweep_needs_sl_base(self, tmp_path):
        summary = run_sweep(SweepSpec("lorenz-standard", "a", (10.0,)), tmp_path)
        assert "fixed coefficients" in summary["results"][0]["error"]

    def test_gauge_sweep_needs_gauge(self, tmp_path):
        summary = run_sweep(SweepSpec("lorenz-standard", "mu", (0.9,)), tmp_path)
        assert "no gauge" in summary["results"][0]["error"]


class TestCompare:
    def test_writes_seven_views(self, tmp_path):
        paths = run_compare(["sl-a2", "sl-a1.5"], tmp_path)
        expected = sorted(
            [
                "compare-traj3d.svg",
                "compare-xy.svg",
                "compare-xz.svg",
                "compare-yz.svg",
                "compare-series-x.svg",
                "compare-series-y.svg",
                "compare-series-z.svg",
            ]
        )
        assert sorted(p.name for p in paths) == expected
        text = (tmp_path / "compare-xy.svg").read_text()
        assert text.index(">sl-a2</text>") < text.index(">sl-a1.5</text>")
        assert text.index("#008000") < text.index("#d00000")
        series = (tmp_path / "compare-series-x.svg").read_text()
        assert ">s</text>" in series

    def test_ordinary_time_axis_is_logged(self, tmp_path):
        run_compare(["sl-a2", "sl-a1.35"], tmp_path, time_axis="t")
        series = (tmp_path / "compare-series-x.svg").read_text()
        assert ">log10(t)</text>" in series

    def test_mixed_systems_join_axis_labels(self, tmp_path):
        run_compare(["lorenz-standard", "sl-a2"], tmp_path)
        series = (tmp_path / "compare-series-z.svg").read_text()
        assert ">t / s</text>" in series

    def test_needs_two_scenarios(self, tmp_path):
        with pytest.raises(ValueError, match="at least two"):
            run_compare(["sl-a2"], tmp_path)

    def test_caps_overlay_count(self, tmp_path):
        with pytest.raises(ValueError, match="at most"):
            run_compare(REGISTRY_ORDER + ["sl-a2"], tmp_path)

    def test_axis_choice_validated(self, tmp_path):
        with pytest.raises(ValueError, match="time_axis"):
            run_compare(["sl-a2", "sl-a1.5"], tmp_path, time_axis="q")
