"""The process that runs one workload; started by run.py.

It imports slchaos and numpy only (no scipy), so its peak resident memory
is the workload's.  One thread, closed loop: each operation starts after the
previous one and its checks have finished.  The checks run outside the
timed interval.

Sequence: the workload's untimed probe (if any), one untimed first pass over
every distinct operation (warm-up, sha256 manifest, content checks), then
the timed loop, which cycles through the operations in the seed's order
until the operations' own time, in reference seconds, reaches the budget.
With --trace 1 the budget is split: an untraced half, then a traced half,
so the tracing overhead is measured within one run.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import calibrate
import workloads
from tracer import Tracer

# Stop after this multiple of the budget in wall time even when checks are
# slow, so a run always ends well inside its time limit.
WALL_LIMIT_FACTOR = 3.0


def _loop(wl: workloads.Workload, gate: workloads.Gate, root: Path, budget: float,
          start: int, tracer: Tracer | None) -> dict:
    """Timed closed loop until the operations' time, in reference seconds
    (see calibrate.py, calibrated just before and just after each
    operation), reaches `budget`.  Returns the latencies of the
    operations that passed the gate, in reference and in raw seconds, the
    reference time of all operations, and the index of the next one."""
    ref: list[float] = []
    raw: list[float] = []
    busy = 0.0
    i = start
    wall_end = time.perf_counter() + WALL_LIMIT_FACTOR * budget
    before = calibrate.slowness()
    while busy < budget and time.perf_counter() < wall_end:
        op = wl.ops[i % len(wl.ops)]
        i += 1
        d = root / op.key
        workloads.reset(d)
        exc = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                op.run(d)
            else:
                tracer.op(lambda: op.run(d))
        except Exception as e:  # counted by the gate
            exc = e
        elapsed = time.perf_counter() - t0
        after = calibrate.slowness()
        scaled = elapsed / math.sqrt(before * after)
        before = after
        busy += scaled
        if gate.check(op, d, exc):
            ref.append(scaled)
            raw.append(elapsed)
    return {"latencies": ref, "raw_latencies": raw, "busy_s": busy, "next": i}


def peak_rss_mb() -> float:
    """High-water resident set of this process.  VmHWM starts afresh at
    exec; getrusage's ru_maxrss would carry over the parent's peak."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--root", type=Path, required=True, help="artifact directory")
    ap.add_argument("--result", type=Path, required=True, help="result JSON to write")
    ap.add_argument("--spans", type=Path, default=None, help="span dump for --trace 1")
    args = ap.parse_args(argv)

    wl = workloads.build(args.workload, args.seed)
    gate = workloads.Gate()
    if wl.probe is not None:
        wl.probe(args.root)
    for op in wl.ops:
        d = args.root / op.key
        workloads.reset(d)
        exc = None
        try:
            op.run(d)
        except Exception as e:  # counted by the gate
            exc = e
        gate.check(op, d, exc)

    result: dict = {"first_pass": len(wl.ops)}
    if args.trace:
        result.update(_loop(wl, gate, args.root, args.seconds / 2, 0, None))
        tracer = Tracer()
        tracer.install()
        try:
            traced = _loop(wl, gate, args.root, args.seconds / 2, result["next"], tracer)["latencies"]
        finally:
            tracer.uninstall()
        layers, absent = tracer.metrics(max(len(tracer.coverage), 1))
        if result["latencies"] and traced:
            ratio = statistics.median(traced) / statistics.median(result["latencies"])
            layers["trace.overhead_ratio"] = (ratio, "ratio")
        else:
            absent.append("trace.overhead_ratio")
        result.update(traced_latencies=traced, layers=layers, absent=absent, traced_ops=len(tracer.coverage))
        if args.spans is not None:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            args.spans.write_text(json.dumps(tracer.span_records()))
    else:
        result.update(_loop(wl, gate, args.root, args.seconds, 0, None))
    result.update(
        attempted=gate.attempted,
        failed=gate.failed,
        messages=gate.messages,
        peak_rss_mb=peak_rss_mb(),
    )
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
