"""Time the sampling layer and the report in process: median and quartiles per case.

The cases, each run once per round, round-robin, after one warm-up round:

- `solve-<name>`: one `scenarios.run_trajectory` per registry scenario
  (its span, start, tolerance and 2,000 samples);
- `report-<name>`: one `scenarios.scenario_report` per registry scenario,
  on its trajectory solved once up front, so the case times the Lyapunov
  estimator and the report's assembly; the `conjecture_report` memo stays
  warm, as it does in a benchmark loop;
- `solve-five-gauges`: the shared solve of `sweep-gauge`'s D sweep of
  sl-a2 (`integrate_sl_gauges`, D = 0.5, 0.6, 0.7, 0.8, 0.9);
- `solve-stiff`: sl with (a, b, c) = (1e3, 0.3, 27) on sl-a2's gauge, span,
  start and tolerance, where the fast eigenvalue -a - 0.3 holds an explicit
  step at its stability limit: the regime where the Taylor driver is
  slower than the DP54 driver it replaced;
- `flow-real` and `flow-complex`: `StableTail.flow` at 2,000 times from a
  state on the switch radius of sl-a2's stable node (real modes) and of
  one point of the stable focus-node pair of (a, b, c) = (2, 5, 27)
  (complex modes), with the times passed as a list;
- `scale-time`: `timegauge.scale_time` of sl-a2's gauge on its 2,000-sample
  geometric grid.

Effects of a few percent on one solve or report are below `slbench`'s
run-to-run spread; run the tool alternately on two trees to see them:

    python tools/layer_times.py --src OLD/src
    python tools/layer_times.py

Each line is `<case>  median <ms>  q1 <ms>  q3 <ms>  (n = ROUNDS)`.
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
import time
from pathlib import Path
from typing import Callable

ROUNDS = 30
SAMPLES = 2000
SWEEP_D = (0.5, 0.6, 0.7, 0.8, 0.9)


def cases() -> dict[str, Callable[[], object]]:
    import numpy as np

    from slchaos.analysis import stable_tails
    from slchaos.dynamics import SystemParams, effective_params
    from slchaos.integrate import integrate_sl, integrate_sl_gauges
    from slchaos.scenarios import run_trajectory, scenario_registry, scenario_report
    from slchaos.timegauge import Gauge, scale_time

    registry = scenario_registry()
    out: dict[str, Callable[[], object]] = {
        f"solve-{name}": (lambda sc=sc: run_trajectory(sc)) for name, sc in registry.items()
    }
    for name, sc in registry.items():
        out[f"report-{name}"] = lambda sc=sc, traj=run_trajectory(sc): scenario_report(sc, traj)
    base = registry["sl-a2"]
    params = effective_params(base.kind, base.params)
    gauges = [Gauge(base.gauge.mu, d) for d in SWEEP_D]
    out["solve-five-gauges"] = lambda: integrate_sl_gauges(
        params, gauges, base.span, base.x0, base.tol, base.sample_count
    )
    stiff = SystemParams(1e3, 0.3, 27.0)
    out["solve-stiff"] = lambda: integrate_sl(stiff, base.gauge, base.span, base.x0, base.tol, base.sample_count)
    times = np.linspace(0.0, 50.0, SAMPLES).tolist()
    for label, tail_params in (("flow-real", params), ("flow-complex", SystemParams(2.0, 5.0, 27.0))):
        tail = stable_tails(tail_params)[-1]
        r = math.sqrt(tail.switch_radius2(base.tol) / 3.0)
        state = tuple(p + r for p in tail.point)
        out[label] = lambda tail=tail, state=state: tail.flow(0.0, state, times)
    grid = np.geomspace(base.span[0], base.span[1], SAMPLES)
    out["scale-time"] = lambda: scale_time(base.gauge, grid)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src",
        type=Path,
        default=Path(__file__).resolve().parents[1] / "src",
        help="directory holding the slchaos package to time (default: this checkout's src)",
    )
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    table = cases()
    for fn in table.values():
        fn()
    spent: dict[str, list[float]] = {name: [] for name in table}
    clock = time.perf_counter
    for _ in range(ROUNDS):
        for name, fn in table.items():
            start = clock()
            fn()
            spent[name].append(1e3 * (clock() - start))
    for name, ms in spent.items():
        q1, med, q3 = statistics.quantiles(ms, n=4)
        print(f"{name:<28} median {med:9.3f}  q1 {q1:9.3f}  q3 {q3:9.3f}  (n = {len(ms)})")


if __name__ == "__main__":
    main()
