"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest slbench -q

Each end-to-end test launches the benchmark on a short run, so the file
takes about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import oracles  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, seconds: float, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "slbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def _check_metrics(result: dict, declared: list[dict]) -> dict[str, float]:
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_short_run_at_seed_0_emits_every_end_to_end_metric(workload):
    result = _result(_run(ROOT, workload, 1, 0))
    values = _check_metrics(result, BENCH["end_to_end"])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert values["error_rate"] == 1 / (result["attempted"] + 2)
    assert all(v > 0 for v in values.values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    result = _result(_run(ROOT, workload, 2, 1))
    values = _check_metrics(result, BENCH["per_layer"])
    assert result["failed"] == 0
    # The root span of each operation is covered by its children.
    assert values["trace.span_coverage"] > 0.95
    busy = sum(v for k, v in values.items() if result["metrics"][k]["unit"] == "s/op")
    share = values["analysis.lyapunov_s"] / busy
    if workload == "sweep-gauge":
        assert share > 0.5
    if workload == "compare-overlay":
        assert values["analysis.lyapunov_s"] == 0.0
        assert values["trajio.bytes_written"] == 0.0
    assert 5.9 < values["dynamics.rhs_evals_per_step"] < 6.1  # DP54 with first-same-as-last


def test_missing_trace_target_is_reported_absent(capsys):
    hooks = {
        "trajio.write": ("span", ("slchaos.scenarios.write_trajectory_csv",)),
        "svgplot.export": ("span", ("slchaos.scenarios.no_such_function",)),
    }
    tracer = Tracer()
    tracer.install(hooks)
    try:
        tracer.op(lambda: None)
    finally:
        tracer.uninstall()
    values, absent = tracer.metrics(1)
    assert "warning" in capsys.readouterr().err
    assert tracer.missing == ["slchaos.scenarios.no_such_function"]
    assert {"svgplot.busy_s", "svgplot.points", "svgplot.bytes_written"} <= set(absent)
    assert "trajio.write_s" in values


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "slbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "simulate-suite", 1, 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_closed_form_exponent_matches_numpy_at_the_origin():
    case = workloads.build("simulate-suite", 0).cases[1]  # sl-a2
    a, b, c = oracles.coefficients(case)
    eig = oracles.np.linalg.eigvals(oracles._jacobian(a, b, c, 0.0, 0.0, 0.0)).real.max()
    assert oracles.reference_lambda(case) == pytest.approx(eig, abs=1e-12)
    assert oracles.reference_lambda(case) == pytest.approx(-0.5780, abs=1e-4)


def test_seed_fixes_the_inputs():
    first = workloads.build("simulate-suite", 7)
    again = workloads.build("simulate-suite", 7)
    assert [(c.name, c.x0) for c in first.cases] == [(c.name, c.x0) for c in again.cases]
    seed0 = {c.name: c.x0 for c in workloads.build("simulate-suite", 0).cases}
    assert all(x0 == (0.1, 0.1, 0.1) for x0 in seed0.values())
    moved = {c.name for c in first.cases if c.x0 != seed0[c.name]}
    assert moved == set(seed0) - set(workloads.UNJITTERED)
