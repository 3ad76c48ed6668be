import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import slchaos
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
    "flag", ["--tol 0", "--tol -1", "--tol nan", "--samples 1", "--method rk4", "--mode direct-t"]
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


def test_overflowing_spectrum_is_runtime_failure(capsys):
    # The origin's characteristic cubic overflows at a = 1e102 and beyond:
    # one "run failed" line, with no numpy warning before it.
    for a in ("1e102", "1e103"):
        code, out, err = run_cli(capsys, "fixed-points", "--system", "sl", "--a", a)
        assert code == 2
        assert err == "run failed: the characteristic polynomial overflows: no finite spectrum\n"
        assert out == ""


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
