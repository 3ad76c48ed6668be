"""slchaos benchmark: one command that runs a workload, checks its outputs
and prints every metric.

    python3 slbench/run.py --workload simulate-suite --seed 0 --seconds 20 --trace 0

Run from the repository root; the package is imported from `src/`.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  Everything above it is
the human-readable report: machine, workload, seed, sample counts, every
metric with its unit, and the accuracy of each checked orbit.

Steps: measure set-up (fresh interpreters importing `slchaos.cli`),
compute the oracle references for the seed, run the workload in a child
process (worker.py), then compare what it wrote with the references.  See
README.md for the workloads and what each metric should respond to.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".slbench"

SETUP_LAUNCHES = 7
WORKER_TIMEOUT_S = 150.0
TAIL_MIN_BEYOND = 10
# Gross-error guards for `correct`.  Far above the known defects (sample
# error 6.6e-7 on lorenz-standard, lambda error 0.35 on the D = 0.9 sweep
# member), so they catch a broken build, not a known inaccuracy.
SAMPLE_ERR_GUARD = 1e-3
LAMBDA_ERR_GUARD = 2.0

# One thread: keep numpy's BLAS from starting a pool in any child.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Times the work inside a fresh interpreter, from before `import slchaos.cli`
# until the parser and the scenario registry are built, and calibrates just
# before and just after it.
SETUP_PROBE = """
import json, time
import calibrate
before = calibrate.slowness()
t0 = time.perf_counter()
import slchaos.cli as cli
t1 = time.perf_counter()
cli.build_parser()
from slchaos.scenarios import scenario_registry
scenario_registry()
t2 = time.perf_counter()
slowness = (before * calibrate.slowness()) ** 0.5
print(json.dumps({"import_s": t1 - t0, "ready_s": t2 - t0, "slowness": slowness}))
"""


def child_env() -> dict[str, str]:
    env = dict(os.environ, **THREAD_ENV)
    paths = [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def measure_setup() -> dict[str, float]:
    """Medians over fresh interpreters of the time to import slchaos.cli
    and build the parser and the scenario registry, in reference seconds
    (setup_s) and as measured, and of the import alone (cli.import_s)."""
    runs = []
    for _ in range(SETUP_LAUNCHES):
        out = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=child_env(), capture_output=True,
                             text=True, timeout=60, check=True)
        runs.append(json.loads(out.stdout))
    return {
        "setup_s": statistics.median(r["ready_s"] / r["slowness"] for r in runs),
        "raw_s": statistics.median(r["ready_s"] for r in runs),
        "import_s": statistics.median(r["import_s"] for r in runs),
    }


def tail(latencies: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least TAIL_MIN_BEYOND samples
    beyond it (the median when there are too few), and its value."""
    n = len(latencies)
    p = max(50, math.floor(100 * (n - TAIL_MIN_BEYOND) / n))
    return p, statistics.quantiles(latencies, n=100, method="inclusive")[p - 1]


def machine() -> dict[str, str]:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "cpu": cpu,
        "nproc": str(os.cpu_count()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_worker(args: argparse.Namespace, root: Path, spans: Path) -> dict:
    result = root / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--root", str(root / "ops"),
           "--result", str(result), "--spans", str(spans)]
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(result.read_text())


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "slchaos" / "__init__.py").is_file():
        print(f"error: no slchaos package under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import oracles
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    setup = measure_setup()
    wl = workloads.build(args.workload, args.seed)
    t0 = time.perf_counter()
    refs = [oracles.prepare(case) for case in wl.cases]
    ref_s = time.perf_counter() - t0

    WORK.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    spans = WORK / f"spans-{args.workload}-seed{args.seed}.json"
    try:
        res = run_worker(args, root, spans)
        accuracy = [oracles.measure(ref, root / "ops") for ref in refs]
    finally:
        shutil.rmtree(root, ignore_errors=True)

    lat = res["latencies"]
    if not lat:
        print(f"error: no operation passed its checks; first failures: {res['messages'][:3]}",
              file=sys.stderr)
        return 1
    lyap_err = max(a.lam_err for a in accuracy)
    sample_err = max(a.sample_err for a in accuracy)
    attempted, failed = res["attempted"], res["failed"]
    correct = failed == 0 and sample_err <= SAMPLE_ERR_GUARD and lyap_err <= LAMBDA_ERR_GUARD
    tail_p, tail_v = tail(lat) if len(lat) >= 2 else (50, lat[0])

    end_to_end = {
        "setup_s": (setup["setup_s"], "s"),
        "throughput_ops_s": (len(lat) / res["busy_s"], "1/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_tail_s": (tail_v, "s"),
        "lyap_abs_err": (lyap_err, "1/time"),
        "sample_abs_err": (sample_err, "state"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        # Rule-of-succession estimate of the failure probability; never 0,
        # so ratios against a parent stay defined.  Raw counts are in
        # `attempted` and `failed`.
        "error_rate": ((failed + 1) / (attempted + 2), "ratio"),
    }
    per_layer = {"cli.import_s": (setup["import_s"], "s"), **res.get("layers", {})}

    print(f"slchaos benchmark  workload={args.workload}  seed={args.seed}  seconds={args.seconds:g}  "
          f"trace={args.trace}")
    print("machine: " + "  ".join(f"{k}={v}" for k, v in machine().items()))
    print(f"operations: attempted={attempted} failed={failed} (first pass {res['first_pass']}, "
          f"timed {len(lat)} passed)  latency tail = p{tail_p} over {len(lat)} samples, "
          f"{sum(1 for v in lat if v > tail_v)} beyond")
    print(f"times in reference seconds (calibrate.py); as measured: setup {setup['raw_s']:.6g} s, "
          f"latency p50 {statistics.median(res['raw_latencies']):.6g} s, "
          f"median slowness {statistics.median(r / v for r, v in zip(res['raw_latencies'], lat)):.4g}")
    print(f"references: {len(refs)} orbits in {ref_s:.2f} s")
    for a in accuracy:
        print(f"  {a.name:24s} lambda_max {a.lam:+.6f} ref {a.lam_ref:+.6f} err {a.lam_err:.3e}  "
              f"sample err {a.sample_err:.3e} over {a.rows} rows")
    for msg in res["messages"]:
        print(f"  failed: {msg}")
    print("end-to-end" + (" (untraced half of the run)" if args.trace else "") + ":")
    for name, (value, unit) in end_to_end.items():
        print(f"  {name:30s} {value:.6g} {unit}")
    if args.trace:
        traced = res["traced_latencies"]
        print(f"per-layer, over {res['traced_ops']} traced operations "
              f"(traced latency_p50_s {statistics.median(traced) if traced else float('nan'):.6g} s):")
        for name, (value, unit) in per_layer.items():
            print(f"  {name:30s} {value:.6g} {unit}")
        for name in res["absent"]:
            print(f"warning: metric {name} absent: a trace target it needs is missing or changed",
                  file=sys.stderr)
    metrics = per_layer if args.trace else end_to_end

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
