"""Per-layer tracing from outside the package.

The tracer replaces public names at the modules that call them with
wrappers and restores them afterwards.  Three kinds of wrapper:

- span: coarse calls.  Records (id, parent, name, start, end); a span's self
  time is its duration minus the time its children cover.
- timed: calls too frequent to keep a span each (scale_time runs once per
  sample).  Adds its duration to its layer and to the enclosing span's
  child time, and keeps no record.
- counter: hot calls (`rk4_step`, the field closures) are counted only.
  Field evaluations are charged to the layer of the span open at the time,
  so DP54 evaluations and Lyapunov evaluations are told apart.

A name that no longer exists is skipped with a warning, and every metric
fed by a hook left without any target is reported absent.  Nothing in the
untraced run depends on this module.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable

# hook name -> (kind, targets as "module.attribute").  The layer is the
# hook name's prefix.
HOOKS: dict[str, tuple[str, tuple[str, ...]]] = {
    "scenarios.run_scenario": ("span", ("slchaos.scenarios.run_scenario",)),
    "scenarios.run_sweep": ("span", ("slchaos.scenarios.run_sweep",)),
    "scenarios.run_compare": ("span", ("slchaos.scenarios.run_compare",)),
    "scenarios.run_trajectory": ("span", ("slchaos.scenarios.run_trajectory",)),
    "scenarios.scenario_report": ("span", ("slchaos.scenarios.scenario_report",)),
    "cli.cli_main": ("span", ("slchaos.cli.cli_main",)),
    "integrate.solve": (
        "span",
        (
            "slchaos.scenarios.integrate_sl",
            "slchaos.scenarios.integrate_adaptive",
            "slchaos.scenarios.integrate_fixed",
        ),
    ),
    "analysis.max_lyapunov": ("span", ("slchaos.scenarios.max_lyapunov",)),
    "analysis.spectra": (
        "timed",
        (
            "slchaos.scenarios.eigenvalues_3x3",
            "slchaos.scenarios.classify_spectrum",
            "slchaos.scenarios.conjecture_report",
        ),
    ),
    "analysis.rk4_step": ("counter", ("slchaos.analysis.rk4_step",)),
    "timegauge.map": (
        "timed",
        (
            "slchaos.scenarios.scale_time",
            "slchaos.integrate.scale_time",
            "slchaos.integrate.unscale_time",
        ),
    ),
    "dynamics.field": (
        "field",
        (
            "slchaos.scenarios.make_field",
            "slchaos.integrate.make_field",
            "slchaos.integrate.make_gauged_field",
            "slchaos.analysis.make_field",
        ),
    ),
    "trajio.write": ("span", ("slchaos.scenarios.write_trajectory_csv",)),
    "trajio.read": ("span", ("slchaos.cli.read_trajectory_csv",)),
    "svgplot.export": ("span", ("slchaos.scenarios.export_svg", "slchaos.cli.export_svg")),
}


def _file_size(path: object) -> int:
    return Path(path).stat().st_size


# Per-hook statistics read off a call's positional arguments and result.
def _solve_stats(args, result, add) -> None:
    add("integrate.steps_accepted", result.meta.steps_taken)
    add("integrate.steps_rejected", result.meta.steps_rejected)
    add("integrate.samples", len(result))


def _lyapunov_stats(args, result, add) -> None:
    add("analysis.estimates", 1)
    add("analysis.horizon_sum", result.horizon)
    add("analysis.stddev_sum", result.sample_stddev)


def _write_stats(args, result, add) -> None:
    add("trajio.rows", len(args[0]))
    add("trajio.bytes_written", _file_size(result))


def _read_stats(args, result, add) -> None:
    add("trajio.rows", len(result))


def _svg_stats(args, result, add) -> None:
    add("svgplot.points", sum(c.x.size for c in args[0]))
    add("svgplot.bytes_written", _file_size(result))


STATS: dict[str, Callable] = {
    "integrate.solve": _solve_stats,
    "analysis.max_lyapunov": _lyapunov_stats,
    "trajio.write": _write_stats,
    "trajio.read": _read_stats,
    "svgplot.export": _svg_stats,
}

# Open-span record fields.
_NAME, _LAYER, _START, _CHILD, _ID, _PARENT = range(6)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)  # by hook name
        self.counts: Counter[str] = Counter()
        # Hot counters are one-element lists, cheaper to bump than a dict
        # entry.  Field evaluations go to the cell of the innermost open
        # span's layer, which _push and _pop keep in self._rhs_cell[0].
        self.hot: defaultdict[str, list[int]] = defaultdict(lambda: [0])
        self.rhs_cells: defaultdict[str, list[int]] = defaultdict(lambda: [0])
        self._rhs_cell = [self.rhs_cells["bench"]]
        self.missing: list[str] = []
        self.broken: set[str] = set()
        self.installed: set[str] = set()
        self.coverage: list[float] = []
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self, hooks: dict[str, tuple[str, tuple[str, ...]]] = HOOKS) -> None:
        for name, (kind, targets) in hooks.items():
            for target in targets:
                module_name, attr = target.rsplit(".", 1)
                try:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                except (ImportError, AttributeError):
                    self.missing.append(target)
                    print(f"warning: trace target {target} not found; metrics fed by {name} may be absent",
                          file=sys.stderr)
                    continue
                wrapper = getattr(self, f"_wrap_{kind}")(name, original)
                self._undo.append((module, attr, original))
                setattr(module, attr, wrapper)
                self.installed.add(name)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    # -- spans ---------------------------------------------------------------

    def _push(self, name: str) -> list:
        parent = self._stack[-1][_ID] if self._stack else None
        rec = [name, _layer(name), time.perf_counter(), 0.0, len(self.spans), parent]
        self.spans.append(None)  # reserve the id; filled in on close
        self._stack.append(rec)
        self._rhs_cell[0] = self.rhs_cells[rec[_LAYER]]
        return rec

    def _pop(self, rec: list) -> float:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - rec[_START]
        self.self_s[rec[_NAME]] += duration - rec[_CHILD]
        self.spans[rec[_ID]] = (rec[_ID], rec[_PARENT], rec[_NAME], rec[_START], end)
        if self._stack:
            self._stack[-1][_CHILD] += duration
        self._rhs_cell[0] = self.rhs_cells[self._stack[-1][_LAYER] if self._stack else "bench"]
        return duration

    def op(self, fn: Callable[[], None]) -> None:
        """Run one benchmark operation under a root span and record how much
        of it its direct children cover."""
        rec = self._push("bench.op")
        try:
            fn()
        finally:
            duration = self._pop(rec)
            self.coverage.append(rec[_CHILD] / duration if duration > 0 else 1.0)

    def _stat(self, name: str, args: tuple, result: object) -> None:
        fn = STATS.get(name)
        if fn is None or name in self.broken:
            return
        try:
            fn(args, result, self._add)
        except Exception as exc:  # a changed signature must not stop the run
            self.broken.add(name)
            print(f"warning: statistics for {name} unavailable ({type(exc).__name__}: {exc})",
                  file=sys.stderr)

    def _add(self, key: str, value: float) -> None:
        self.counts[key] += value

    def _wrap_span(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._push(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._pop(rec)
            self._stat(name, args, result)
            return result

        return wrapper

    def _wrap_timed(self, name: str, fn: Callable) -> Callable:
        stack, self_s, clock = self._stack, self.self_s, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self_s[name] += duration
                if stack:
                    stack[-1][_CHILD] += duration

        return wrapper

    def _wrap_counter(self, name: str, fn: Callable) -> Callable:
        cell = self.hot[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap_field(self, name: str, factory: Callable) -> Callable:
        current = self._rhs_cell

        @functools.wraps(factory)
        def make(*args, **kwargs):
            rhs = factory(*args, **kwargs)

            def counted(t, state):
                current[0][0] += 1
                return rhs(t, state)

            return counted

        return make

    # -- results -------------------------------------------------------------

    def layer_self(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if _layer(k) == layer)

    def metrics(self, ops: int) -> tuple[dict[str, tuple[float, str]], list[str]]:
        """Per-layer metrics per operation, and the names reported absent."""
        c, per = self.counts, 1.0 / ops
        steps = c["integrate.steps_accepted"] + c["integrate.steps_rejected"]
        estimates = c["analysis.estimates"]
        integrate_s = self.layer_self("integrate")
        trajio_s = self.self_s["trajio.write"] + self.self_s["trajio.read"]
        rhs = {layer: cell[0] for layer, cell in self.rhs_cells.items()}
        rhs_total = sum(rhs.values())
        # name -> (hooks it needs, unit, value thunk)
        table: dict[str, tuple[tuple[str, ...], str, Callable[[], float]]] = {
            "scenarios.self_s": (("scenarios.run_scenario", "scenarios.run_sweep", "scenarios.run_compare",
                                  "scenarios.run_trajectory", "scenarios.scenario_report"),
                                 "s/op", lambda: self.layer_self("scenarios") * per),
            "scenarios.report_s": (("scenarios.scenario_report", "analysis.max_lyapunov", "analysis.spectra"),
                                   "s/op", lambda: self.self_s["scenarios.scenario_report"] * per),
            "cli.plot_s": (("cli.cli_main",), "s/op", lambda: self.layer_self("cli") * per),
            "integrate.busy_s": (("integrate.solve",), "s/op", lambda: integrate_s * per),
            "integrate.steps_accepted": (("integrate.solve",), "count/op",
                                         lambda: c["integrate.steps_accepted"] * per),
            "integrate.steps_rejected": (("integrate.solve",), "count/op",
                                         lambda: c["integrate.steps_rejected"] * per),
            "integrate.accept_ratio": (("integrate.solve",), "ratio",
                                       lambda: c["integrate.steps_accepted"] / steps if steps else 0.0),
            "integrate.us_per_step": (("integrate.solve",), "us",
                                      lambda: 1e6 * integrate_s / steps if steps else 0.0),
            "integrate.samples": (("integrate.solve",), "count/op", lambda: c["integrate.samples"] * per),
            "dynamics.rhs_evals": (("dynamics.field",), "count/op", lambda: rhs_total * per),
            "dynamics.rhs_evals_per_step": (("dynamics.field", "integrate.solve"), "count",
                                            lambda: rhs.get("integrate", 0) / steps if steps else 0.0),
            "timegauge.busy_s": (("timegauge.map",), "s/op", lambda: self.layer_self("timegauge") * per),
            "analysis.lyapunov_s": (("analysis.max_lyapunov",), "s/op",
                                    lambda: self.self_s["analysis.max_lyapunov"] * per),
            "analysis.rk4_steps": (("analysis.rk4_step",), "count/op",
                                   lambda: self.hot["analysis.rk4_step"][0] * per),
            "analysis.lyapunov_horizon": (("analysis.max_lyapunov",), "time",
                                          lambda: c["analysis.horizon_sum"] / estimates if estimates
                                          else 0.0),
            "analysis.lyapunov_stddev": (("analysis.max_lyapunov",), "1/time",
                                         lambda: c["analysis.stddev_sum"] / estimates if estimates
                                         else 0.0),
            "analysis.spectra_s": (("analysis.spectra",), "s/op",
                                   lambda: self.self_s["analysis.spectra"] * per),
            "trajio.write_s": (("trajio.write",), "s/op", lambda: self.self_s["trajio.write"] * per),
            "trajio.read_s": (("trajio.read",), "s/op", lambda: self.self_s["trajio.read"] * per),
            "trajio.bytes_written": (("trajio.write",), "B/op", lambda: c["trajio.bytes_written"] * per),
            "trajio.us_per_row": (("trajio.write", "trajio.read"), "us",
                                  lambda: 1e6 * trajio_s / c["trajio.rows"] if c["trajio.rows"] else 0.0),
            "svgplot.busy_s": (("svgplot.export",), "s/op", lambda: self.layer_self("svgplot") * per),
            "svgplot.points": (("svgplot.export",), "count/op", lambda: c["svgplot.points"] * per),
            "svgplot.bytes_written": (("svgplot.export",), "B/op", lambda: c["svgplot.bytes_written"] * per),
            "trace.span_coverage": ((), "ratio", lambda: statistics.median(self.coverage)),
        }
        out, absent = {}, []
        for name, (needs, unit, value) in table.items():
            if any(h not in self.installed or h in self.broken for h in needs):
                absent.append(name)
            else:
                out[name] = (float(value()), unit)
        return out, absent

    def span_records(self) -> list[dict]:
        return [
            {"id": i, "parent": p, "name": n, "start": s, "end": e}
            for i, p, n, s, e in (rec for rec in self.spans if rec is not None)
        ]
