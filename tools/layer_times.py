"""Time the sampling layer, the report and the plot path in process: median and quartiles per case.

The cases, each run once per round, round-robin, after one warm-up round:

- `solve-<name>`: one `scenarios.run_trajectory` per registry scenario
  (its span, start, tolerance and 2,000 samples);
- `report-<name>`: one `scenarios.scenario_report` per registry scenario,
  on its trajectory solved once up front, so the case times the Lyapunov
  estimator and the report's assembly; the `conjecture_report` memo stays
  warm, as it does in a benchmark loop;
- `report-gauged-lorenz`: the same for sl with (a, b, c) = (10, 28, 8/3)
  on sl-a2's gauge, span and start, whose orbit settles nowhere, so the
  report runs the whole twin in scaled time;
- `probe-lorenz-standard`: `analysis.divergence_probe` with criterion 6's
  offset 1e-8 from lorenz-standard's start over 40 time units;
- `solve-compare-six`: the six registry solves that `scenarios.run_compare`
  makes for `compare` of every scenario, one after another;
- `solve-compare-six-cold`: the same with the sample clock cache
  (`integrate._clock`) emptied first, so every clock is built as in a
  one-shot process, where 4 of the 6 builds still repeat within the call;
- `solve-five-gauges`: the shared solve of `sweep-gauge`'s D sweep of
  sl-a2 (`integrate_sl_gauges`, D = 0.5, 0.6, 0.7, 0.8, 0.9);
- `solve-direct-t`: criterion 1's reference, `integrate_direct_t` on sl-a2's
  coefficients, gauge and start over t in [0.1, 1e4] at tol 1e-9 and 100
  samples (fixed-step RK4 in t; no run takes it);
- `solve-stiff`: sl with (a, b, c) = (1e3, 0.3, 27) on sl-a2's gauge, span,
  start and tolerance, where the fast eigenvalue -a - 0.3 holds an explicit
  step at its stability limit: the regime where the Taylor driver gains
  least over the DP54 driver it replaced;
- `flow-real` and `flow-complex`: `StableTail.flow` at 2,000 times from a
  state on the switch radius of sl-a2's stable node (real modes) and of
  one point of the stable focus-node pair of (a, b, c) = (2, 5, 27)
  (complex modes), with the times passed as a list;
- `scale-time`: `timegauge.scale_time` of sl-a2's gauge on its 2,000-sample
  geometric grid;
- `plot-path`: one `cli.cli_main(["plot", ...])` of the 3-D view, with its
  stdout captured, on lorenz-standard's CSV written once up front to a
  temporary directory: the CSV read, the SVG write and the parse of the
  command line that `slbench`'s `simulate-suite` makes after each run.
  `main` owns that directory and removes it at the end;
- `svg-compare-seven`: `scenarios.run_compare` of every registry scenario
  into the same directory, with its six solves replaced by runs solved once
  up front, so the case times its seven SVG views (42 polylines);
- `svg-run-four`: the four geometry SVG views that `run_scenario` writes
  for lorenz-standard, on that run, into the same directory.

Effects of a few percent on one solve or report are below `slbench`'s
run-to-run spread; run the tool alternately on two trees to see them:

    python tools/layer_times.py --src OLD/src
    python tools/layer_times.py

Each line is `<case>  median <ms>  q1 <ms>  q3 <ms>  (n = ROUNDS)`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable
from unittest import mock

ROUNDS = 30
SAMPLES = 2000
SWEEP_D = (0.5, 0.6, 0.7, 0.8, 0.9)


def cases(tmp: Path) -> dict[str, Callable[[], object]]:
    """The cases by name; `plot-path` and the `svg-*` cases write into the directory `tmp`."""
    import numpy as np

    from slchaos import integrate, scenarios
    from slchaos.analysis import divergence_probe, stable_tails
    from slchaos.cli import cli_main
    from slchaos.dynamics import SystemParams, effective_params
    from slchaos.integrate import integrate_direct_t, integrate_sl, integrate_sl_gauges
    from slchaos.scenarios import derive, run_trajectory, scenario_registry, scenario_report
    from slchaos.svgplot import COMPARE_COLORS, export_svg, geometry_views
    from slchaos.timegauge import Gauge, scale_time
    from slchaos.trajio import write_trajectory_csv

    registry = scenario_registry()
    out: dict[str, Callable[[], object]] = {
        f"solve-{name}": (lambda sc=sc: run_trajectory(sc)) for name, sc in registry.items()
    }
    for name, sc in registry.items():
        out[f"report-{name}"] = lambda sc=sc, traj=run_trajectory(sc): scenario_report(sc, traj)
    base = registry["sl-a2"]
    gauged = derive(base, "gauged-lorenz", a=10.0, b=28.0, c=8.0 / 3.0)
    out["report-gauged-lorenz"] = lambda traj=run_trajectory(gauged): scenario_report(gauged, traj)
    lorenz = registry["lorenz-standard"]
    out["probe-lorenz-standard"] = lambda: divergence_probe(lorenz.kind, lorenz.params, lorenz.x0, 1e-8, 40.0)
    params = effective_params(base.kind, base.params)
    gauges = [Gauge(base.gauge.mu, d) for d in SWEEP_D]
    out["solve-compare-six"] = lambda: [run_trajectory(sc) for sc in registry.values()]
    # A tree from before the clock cache builds every clock on every solve.
    clock = getattr(integrate, "_clock", None)

    def solve_compare_six_cold() -> list:
        if clock is not None:
            clock.cache_clear()
        return [run_trajectory(sc) for sc in registry.values()]

    out["solve-compare-six-cold"] = solve_compare_six_cold
    out["solve-five-gauges"] = lambda: integrate_sl_gauges(
        params, gauges, base.span, base.x0, base.tol, base.sample_count
    )
    out["solve-direct-t"] = lambda: integrate_direct_t(params, base.gauge, (0.1, 1e4), base.x0, tol=1e-9, samples=100)
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
    csv = write_trajectory_csv(run_trajectory(lorenz), tmp / f"{lorenz.name}.csv")

    def plot_path() -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["plot", "--csv", str(csv), "--view", "3d", "--out", str(tmp)])
        if code != 0:
            raise RuntimeError(f"plot exited with {code}")
        return code

    out["plot-path"] = plot_path
    solved = {name: run_trajectory(sc) for name, sc in registry.items()}

    def svg_compare_seven() -> list:
        # run_compare itself, with each solve replaced by the one made up front.
        with mock.patch.object(scenarios, "run_trajectory", lambda sc: solved[sc.name]):
            return scenarios.run_compare(list(registry), tmp / "compare")

    out["svg-compare-seven"] = svg_compare_seven
    views = geometry_views(solved[lorenz.name].states, "", COMPARE_COLORS[2])
    out["svg-run-four"] = lambda: [
        export_svg([curve], tmp / f"{lorenz.name}-{stem}.svg", x_label=xl, y_label=yl, title=f"{lorenz.name} {stem}")
        for stem, (curve, xl, yl) in views.items()
    ]
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
    with tempfile.TemporaryDirectory(prefix="layer-times-") as tmp:
        table = cases(Path(tmp))
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
