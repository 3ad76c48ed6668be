import json
import math
import os
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import slchaos
from slchaos import cli
from slchaos.cli import cli_main


def run_cli(capsys, *args):
    code = cli_main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestList:
    def test_prints_all_scenarios(self, capsys):
        code, out, err = run_cli(capsys, "list")
        assert code == 0
        assert err == ""
        lines = out.strip().splitlines()
        assert len(lines) == 6
        assert lines[0].startswith("sl-a2.35: system=sl a=2.35 b=0.3 c=27 ")
        assert "D=" in lines[0] and "lambda=" in lines[0]
        assert lines[4].startswith("lorenz-standard: system=lorenz-standard a=10 b=28 ")
        assert "D=" not in lines[4]
        assert "span=[0.1,1000000]" in lines[1]
        assert "span=[0,60]" in lines[5]


class TestUsageErrors:
    def test_no_command(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1
        assert "usage error" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(capsys, "list", "--frobnicate")
        assert code == 1
        assert "usage error" in err

    def test_unknown_scenario(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "simulate", "--scenario", "sl-a9", "--out", str(tmp_path))
        assert code == 1
        assert "unknown scenario" in err

    def test_sl_system_needs_a(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "simulate", "--system", "sl", "--out", str(tmp_path))
        assert code == 1
        assert "--a" in err

    def test_simulate_needs_scenario_or_system(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "simulate", "--out", str(tmp_path))
        assert code == 1
        assert "--scenario or --system" in err
        # fixed-points has no --scenario, so it asks for --system alone
        code, _, err = run_cli(capsys, "fixed-points")
        assert code == 1
        assert err == "usage error: give --system\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--scenario", "sl-a2", "--a", "3"],
            ["simulate", "--system", "lorenz-standard", "--a", "5"],
            ["lyapunov", "--scenario", "sl-a2", "--D", "0.5"],
            ["fixed-points", "--system", "sl", "--a", "2", "--D", "7", "--t0", "-3"],
            ["fixed-points", "--system", "sl", "--a", "2", "--x0", "5", "--t1", "9"],
            ["fixed-points", "--system", "sl", "--a", "2", "--mu", "3"],
            ["lyapunov", "--system", "sl", "--a", "2", "--D", "0.5"],
            ["lyapunov", "--system", "lorenz-standard", "--t1", "5", "--horizon", "50"],
        ],
    )
    def test_system_flags_are_never_dropped(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert "usage error" in err
        assert out == ""

    def test_help_exits_clean(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0
        assert run_cli(capsys, "simulate", "--help")[0] == 0


class TestSimulate:
    def test_registry_scenario(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "simulate", "--scenario", "sl-a2", "--samples", "200", "--out", str(tmp_path)
        )
        assert code == 0
        assert out.count("wrote ") == 6
        assert (tmp_path / "sl-a2.csv").exists()
        assert (tmp_path / "sl-a2-analysis.json").exists()
        assert len(list(tmp_path.glob("*.svg"))) == 4

    def test_custom_sl_system(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys,
            "simulate",
            "--system",
            "sl",
            "--a",
            "2",
            "--t1",
            "1000",
            "--samples",
            "150",
            "--out",
            str(tmp_path),
        )
        assert code == 0
        assert (tmp_path / "custom-sl-a2.csv").exists()

    def test_custom_lorenz_system(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys,
            "simulate",
            "--system",
            "lorenz-literal",
            "--t1",
            "10",
            "--samples",
            "100",
            "--out",
            str(tmp_path),
        )
        assert code == 0
        report = json.loads((tmp_path / "custom-lorenz-literal-analysis.json").read_text())
        assert report["params"] == {"a": 10.0, "b": 8.0 / 3.0, "c": 28.0}

    @pytest.mark.parametrize(
        "start", [("1e100", "-1e100", "1e100"), ("1e150", "1e150", "1e150")],
        ids=["nan-estimate", "huge-guess"],
    )
    def test_huge_start_is_runtime_failure(self, capsys, tmp_path, start):
        x0, y0, z0 = start
        out_dir = tmp_path / "run"
        code, _, err = run_cli(
            capsys, "simulate", "--system", "lorenz-standard",
            f"--x0={x0}", f"--y0={y0}", f"--z0={z0}", "--out", str(out_dir),
        )
        assert code == 2
        assert "run failed: step size underflow" in err
        assert list(out_dir.iterdir()) == []


    def test_report_without_a_finite_estimate_is_a_run_failure(self, capsys, tmp_path):
        # Over a span of 1e-300 the report's growth samples are rounding
        # noise over intervals of 2e-303; their spread overflows.
        out_dir = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "simulate", "--system", "lorenz-standard", "--t1", "1e-300", "--out", str(out_dir)
            )
        assert code == 2
        assert out == ""
        assert err.startswith("run failed: no finite growth rate at renormalization interval")
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize(
        "span, steps", [(["--t1", "100001"], "1.00005e+07"), (["--t1", "1e300", "--samples", "3"], "1e+302")],
        ids=["t1-100001", "t1-1e300"],
    )
    def test_report_budget_is_refused_before_the_solve(self, capsys, tmp_path, monkeypatch, span, steps):
        # A Lorenz report's horizon is its span, so these reports would take
        # more RK4 steps than a solve may; the run refuses before its solve.
        from slchaos import integrate

        monkeypatch.setattr(integrate, "_kernel", lambda p: pytest.fail("a Taylor solve started"))
        out_dir = tmp_path / "run"
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "simulate", "--system", "lorenz-standard", *span, "--out", str(out_dir))
        assert time.perf_counter() - start < 5.0
        assert (code, out) == (1, "")
        assert err == f"usage error: {steps} RK4 steps per orbit exceed the step budget of 10000000\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["--system", "sl", "--a", "2", "--mu", "1e300", "--t1", "1e308", "--samples", "5"],
                "span [0.1, 1e+308] overflows the scaled time of gauge mu = 1e+300, D = 0.6666666666666666",
            ),
            (
                ["--system", "lorenz-standard", "--t0=-1e308", "--t1", "1e308", "--samples", "3"],
                "span [-1e+308, 1e+308] is too long: t1 - t0 overflows",
            ),
        ],
        ids=["scaled-time", "span-length"],
    )
    def test_overflowing_sample_instants_are_a_usage_error(self, tmp_path, argv, message):
        # Refused before any step, with no numpy warning on the way.
        src = str(Path(slchaos.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        out_dir = tmp_path / "run"
        cmd = [sys.executable, "-W", "error::RuntimeWarning", "-m", "slchaos.cli", "simulate", *argv]
        proc = subprocess.run([*cmd, "--out", str(out_dir)], capture_output=True, text=True, timeout=60, env=env)
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"usage error: {message}\n")
        assert not out_dir.exists()


class TestFixedPoints:
    def test_sl_origin_only(self, capsys):
        code, out, _ = run_cli(capsys, "fixed-points", "--system", "sl", "--a", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["params"] == {"a": 2.0, "b": 0.3, "c": 27.0}
        assert len(doc["equilibria"]) == 1
        assert doc["equilibria"][0]["point"] == [0.0, 0.0, 0.0]
        assert doc["equilibria"][0]["class"] == "stable node"
        assert doc["conjecture"]["verdict"] == "satisfied"

    def test_lorenz_standard_triple(self, capsys):
        code, out, _ = run_cli(capsys, "fixed-points", "--system", "lorenz-standard")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["equilibria"]) == 3
        assert {e["class"] for e in doc["equilibria"]} == {"saddle"}

    def test_degenerate_c_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "fixed-points", "--system", "sl", "--a", "2", "--c", "0")
        assert code == 1
        assert "usage error" in err


class TestLyapunov:
    def test_scenario_estimate(self, capsys):
        code, out, _ = run_cli(
            capsys, "lyapunov", "--scenario", "lorenz-standard", "--horizon", "50", "--renorm", "0.5"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["system"] == "lorenz-standard"
        assert doc["lambda_max"] > 0.0
        assert doc["horizon"] == 50.0
        assert doc["renorm_interval"] == 0.5
        assert doc["time_variable"] == "t"

    @pytest.mark.parametrize("horizon", ["inf", "nan", "0", "-1"])
    def test_horizon_must_be_positive_and_finite(self, capsys, monkeypatch, horizon):
        from slchaos import analysis

        carried = []
        monkeypatch.setattr(analysis, "_carry", lambda *args: carried.append(args))
        code, out, err = run_cli(
            capsys, "lyapunov", "--scenario", "lorenz-standard", "--horizon", horizon, "--renorm", "1"
        )
        assert code == 1
        assert out == ""
        assert "usage error: horizon must be positive and finite" in err
        assert carried == []

    @pytest.mark.parametrize("renorm", ["inf", "nan"])
    def test_renorm_must_be_positive_and_finite(self, capsys, monkeypatch, renorm):
        from slchaos import analysis

        monkeypatch.setattr(analysis, "_carry", lambda *args: pytest.fail("the estimator took a step"))
        code, out, err = run_cli(capsys, "lyapunov", "--system", "sl", "--a", "2", "--renorm", renorm)
        assert (code, out) == (1, "")
        assert err == f"usage error: renorm_interval must be positive and finite, got {renorm}\n"

    @pytest.mark.parametrize(
        "budget, steps",
        [(["--renorm", "1e-300"], "1e+303"), (["--horizon", "1e300", "--renorm", "1e298"], "1e+302"),
         (["--horizon", "1e7"], "1e+09")],
        ids=["renorm-1e-300", "horizon-1e300", "horizon-1e7"],
    )
    def test_steps_above_the_solve_budget_are_a_usage_error(self, capsys, monkeypatch, budget, steps):
        from slchaos import analysis

        carried = []
        monkeypatch.setattr(analysis, "_carry", lambda *args: carried.append(args))
        code, out, err = run_cli(capsys, "lyapunov", "--scenario", "lorenz-standard", *budget)
        assert code == 1
        assert out == ""
        assert f"usage error: {steps} RK4 steps per orbit exceed the step budget of 10000000" in err
        assert carried == []

    def test_estimate_without_a_finite_spread_is_a_run_failure(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "lyapunov", "--system", "lorenz-standard", "--horizon", "1e-300")
        assert code == 2
        assert out == ""
        assert err == "run failed: no finite growth rate at renormalization interval 2.0000000000000002e-303\n"

    def test_overflowing_start_is_a_run_failure(self, capsys):
        code, _, err = run_cli(capsys, "lyapunov", "--system", "sl", "--a", "2", "--x0", "1e200")
        assert code == 2
        assert "run failed: non-finite state while stepping from t = 0.0" in err

    def test_custom_sl_estimate(self, capsys):
        code, out, _ = run_cli(capsys, "lyapunov", "--system", "sl", "--a", "2", "--horizon", "200")
        assert code == 0
        doc = json.loads(out)
        assert doc["time_variable"] == "s"
        assert doc["lambda_max"] < 0.0
        assert doc["renorm_interval"] == pytest.approx(0.4)


class TestSweep:
    def test_gauge_sweep(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--scenario",
            "sl-a2",
            "--param",
            "D",
            "--values",
            "0.5,0.9",
            "--samples",
            "200",
            "--out",
            str(tmp_path),
        )
        assert code == 0
        assert "D=0.5: ok" in out
        assert "D=0.9: ok" in out
        assert json.loads((tmp_path / "summary.json").read_text())["base"] == "sl-a2"
        # --samples reaches every member: a header plus 200 rows
        member_csv = tmp_path / "D-0.5" / "sl-a2-D0.5.csv"
        assert len(member_csv.read_text().splitlines()) == 201

    def test_malformed_values(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep", "--scenario", "sl-a2", "--param", "a", "--values", "1,x",
            "--out", str(tmp_path),
        )
        assert code == 1
        assert "comma-separated" in err

    def test_failed_member_sets_exit_code(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "sweep", "--scenario", "sl-a2", "--param", "c", "--values", "-1",
            "--out", str(tmp_path),
        )
        assert code == 2
        assert "c=-1: ValueError" in out

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_member_whose_scaled_time_overflows_gets_an_error_row(self, capsys, tmp_path):
        # At mu = 1e307, s = mu * t**(1/3) overflows at sl-a2's t1 = 1e6;
        # that member is refused alone and the other still runs.
        code, out, _ = run_cli(
            capsys, "sweep", "--scenario", "sl-a2", "--param", "mu", "--values", "0.9,1e307",
            "--samples", "50", "--out", str(tmp_path),
        )
        assert code == 2
        assert out.splitlines()[:2] == [
            "mu=0.9: ok",
            "mu=1e+307: ValueError: span [0.1, 1000000.0] overflows the scaled time of gauge "
            "mu = 1e+307, D = 0.6666666666666666",
        ]
        assert (tmp_path / "mu-0.9" / "sl-a2-mu0.9.csv").exists() and not (tmp_path / "mu-1e+307").exists()


class TestCompare:
    def test_two_scenarios(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "compare", "sl-a2", "sl-a1.5", "--out", str(tmp_path)
        )
        assert code == 0
        assert out.count("wrote ") == 7
        assert len(list(tmp_path.glob("compare-*.svg"))) == 7

    def test_overrides_reach_every_scenario(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "compare", "sl-a2", "lorenz-literal", "--samples", "50", "--out", str(tmp_path)
        )
        assert code == 0
        series = (tmp_path / "compare-series-x.svg").read_text()
        polylines = [line for line in series.splitlines() if line.startswith("<polyline")]
        assert [line.count(",") for line in polylines] == [50, 50]

    def test_one_scenario_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "compare", "sl-a2", "--out", str(tmp_path))
        assert code == 1
        assert "at least two" in err


class TestPlot:
    @pytest.fixture()
    def csv_path(self, capsys, tmp_path):
        run_cli(
            capsys, "simulate", "--scenario", "lorenz-standard", "--samples", "100",
            "--out", str(tmp_path / "sim"),
        )
        return tmp_path / "sim" / "lorenz-standard.csv"

    def test_plane_view(self, capsys, tmp_path, csv_path):
        code, out, _ = run_cli(
            capsys, "plot", "--csv", str(csv_path), "--view", "xz", "--out", str(tmp_path)
        )
        assert code == 0
        target = tmp_path / "lorenz-standard-xz.svg"
        assert target.exists()
        assert str(target) in out

    def test_series_view(self, capsys, tmp_path, csv_path):
        code, _, _ = run_cli(
            capsys, "plot", "--csv", str(csv_path), "--view", "x", "--out", str(tmp_path)
        )
        assert code == 0
        assert (tmp_path / "lorenz-standard-x.svg").exists()

    def test_overflowing_extent_is_usage_error(self, capsys, tmp_path):
        csv = tmp_path / "wide.csv"
        csv.write_text("t,s,x,y,z\n0,0,-1e308,0,0\n1,1,1e308,1,0\n")
        code, _, err = run_cli(
            capsys, "plot", "--csv", str(csv), "--view", "xy", "--out", str(tmp_path / "out")
        )
        assert code == 1
        assert "x extent" in err
        assert list((tmp_path / "out").iterdir()) == []

    def test_missing_csv_is_runtime_failure(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "plot", "--csv", str(tmp_path / "nope.csv"), "--out", str(tmp_path)
        )
        assert code == 2
        assert "i/o error" in err


class TestParserReuse:
    """`cli_main` builds its parser once per process and reuses it."""

    @pytest.fixture()
    def builds(self, monkeypatch):
        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        cli._parser.cache_clear()
        yield built
        cli._parser.cache_clear()

    def test_one_parser_serves_every_command(self, capsys, tmp_path, builds):
        csv = tmp_path / "two.csv"
        csv.write_text("t,s,x,y,z\n0,0,0,0,0\n1,1,1,2,3\n")
        calls = [
            (["plot", "--csv", str(csv), "--view", "xy", "--out", str(tmp_path)], 0),
            (["lyapunov", "--scenario", "lorenz-literal", "--horizon", "5"], 0),
            (["fixed-points", "--system", "lorenz-standard"], 0),
            (["list", "--frobnicate"], 1),
            (["plot", "--csv", str(csv), "--view", "x", "--out", str(tmp_path)], 0),
        ]
        assert [run_cli(capsys, *argv)[0] for argv, _ in calls] == [code for _, code in calls]
        assert builds == [1]
        # A new parser on each call of build_parser itself.
        assert cli.build_parser() is not cli.build_parser()

    def test_no_state_crosses_calls(self, capsys, tmp_path, builds):
        code, _, err = run_cli(capsys, "plot", "--view", "xy", "--out", str(tmp_path))
        assert code == 1 and "--csv" in err
        code, _, err = run_cli(capsys, "simulate", "--scenario", "sl-a2", "--bogus", "--out", str(tmp_path))
        assert code == 1 and "unrecognized arguments: --bogus" in err
        code, out, _ = run_cli(capsys, "fixed-points", "--system", "sl", "--a", "2")
        assert code == 0 and json.loads(out)["params"] == {"a": 2.0, "b": 0.3, "c": 27.0}
        # A flag given once is not remembered by the next call.
        argv = ["lyapunov", "--scenario", "lorenz-literal", "--horizon", "50"]
        renorms = []
        for extra in (["--renorm", "0.5"], []):
            code, out, _ = run_cli(capsys, *argv, *extra)
            assert code == 0
            renorms.append(json.loads(out)["renorm_interval"])
        assert renorms == [0.5, 50.0 / 500]
        code, out, _ = run_cli(capsys, "fixed-points", "--system", "lorenz-standard")
        assert code == 0 and json.loads(out)["system"] == "lorenz-standard"
        assert builds == [1]


@pytest.mark.parametrize(
    "argv",
    [
        "simulate --system sl --a 2 --b 1000 --c 27 --t1 10 --samples 50",
        "fixed-points --system sl --a 2 --b 1000 --c 27",
    ],
)
def test_pair_far_from_the_origin_is_valid(capsys, tmp_path, monkeypatch, argv):
    # The pair of (2, 1000, 27) sits at |x| = 164, where the rounding of its
    # residual exceeds 1e-12 in absolute terms but not relative to the field.
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, *argv.split())
    assert code == 0, err


@pytest.mark.parametrize(
    "flag",
    [
        "--tol 0", "--tol -1", "--tol nan", "--tol 1e-16", "--tol 0.5", "--tol 1e300", "--samples 1",
        "--method rk4", "--mode direct-t",
    ],
)
@pytest.mark.parametrize(
    "command",
    [
        "simulate --scenario sl-a2",
        "sweep --scenario sl-a2 --param D --values 0.5,0.7",
        "compare sl-a2 lorenz-literal",
    ],
)
def test_bad_run_setting_is_usage_error(capsys, tmp_path, command, flag):
    # Checked when the run is described, so nothing is written.
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, *command.split(), *flag.split(), "--out", str(out))
    assert code == 1
    assert "usage error" in err
    if flag.startswith(("--method", "--mode")):
        # Retired route choices: every run is one Taylor solve on its clock.
        assert "unrecognized arguments" in err
    assert not out.exists() or list(out.iterdir()) == []


def test_tol_ceiling(capsys, tmp_path):
    # Above 1e-1 a solve misses its tolerance, and tol 1e300 would allow
    # one step of h = 2.9e149 off lorenz-standard's attractor: a usage
    # error that writes nothing.  The ceiling itself is a valid setting.
    out = tmp_path / "out"
    argv = ["simulate", "--system", "lorenz-standard", "--samples", "5", "--out", str(out)]
    code, stdout, err = run_cli(capsys, *argv, "--tol", "1e300")
    assert (code, stdout) == (1, "")
    assert err == "usage error: tol must be in [1e-15, 1e-1], got 1e+300\n"
    assert not out.exists()
    code, _, err = run_cli(capsys, *argv, "--tol", "0.1", "--t1", "1")
    assert code == 0, err
    report = json.loads((out / "custom-lorenz-standard-analysis.json").read_text())
    assert report["meta"]["tol"] == 0.1


def test_large_a_origin_is_a_stable_node(capsys):
    # The origin's spectrum is about (-0.7, -27, -a): a stable node however
    # large a is, with no overflow at 1e102.
    code, out, err = run_cli(capsys, "fixed-points", "--system", "sl", "--a", "1e10")
    assert (code, err) == (0, "")
    assert [eq["class"] for eq in json.loads(out)["equilibria"]] == ["stable node"]
    code, out, err = run_cli(capsys, "fixed-points", "--system", "sl", "--a", "1e102")
    assert (code, err) == (0, "")
    (origin,) = json.loads(out)["equilibria"]
    assert origin["spectrum"] == [[-0.7, 0.0], [-27.0, 0.0], [-1e102, 0.0]]


@pytest.mark.parametrize("fake", ["raise", "nan"])
def test_no_finite_spectrum_is_runtime_failure(capsys, monkeypatch, fake):
    def eig(m):
        if fake == "raise":
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return np.array([math.nan, -1.0, -2.0]), np.eye(3)

    monkeypatch.setattr(np.linalg, "eig", eig)
    code, out, err = run_cli(capsys, "fixed-points", "--system", "sl", "--a", "2")
    assert (code, out) == (2, "")
    assert err.startswith("run failed: ") and err.endswith("no finite spectrum\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["fixed-points", "lyapunov"])
def test_coefficients_near_the_largest_double(capsys, command):
    # Squares of the tail's radius terms pass 1e308; they must come out inf,
    # not as an OverflowError's "Numerical result out of range".
    code, out, err = run_cli(capsys, command, "--system", "sl", "--a", "1e308", "--b=-1e308", "--c", "1e308")
    assert code in (0, 2), err
    assert "OverflowError" not in err and "out of range" not in err


def test_module_entry_point():
    # `python -m slchaos.cli` runs the CLI, for checkouts where the console
    # script is not installed.
    src = str(Path(slchaos.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    cmd = [sys.executable, "-m", "slchaos.cli"]
    proc = subprocess.run([*cmd, "list"], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0
    assert len(proc.stdout.strip().splitlines()) == 6
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 1
    assert "usage error" in proc.stderr


def test_console_script_entry_point():
    exe = shutil.which("slchaos")
    assert exe is not None, "console script not on PATH; install the package first"
    proc = subprocess.run([exe, "list"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert len(proc.stdout.strip().splitlines()) == 6
