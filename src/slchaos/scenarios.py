"""Named runnable scenarios and their exporters.

The registry holds the four SL parameter studies (a swept over 2.35, 2,
1.5, 1.35 with b = 3/10, c = 27 under the default gauge) and the two fixed
Lorenz arrangements.  Running a scenario produces one trajectory CSV, one
JSON analysis report, and four SVG views (an isometric 3-D projection plus
the x-y, x-z, y-z planes).  Sweeps rerun a base scenario across a parameter
list into per-value subdirectories with a summary; comparisons overlay up
to several scenarios in seven shared views (the four geometry views plus a
time series per component).  `derive` is the one way to change a setting
of a run: custom runs, run overrides and sweep members all go through it.

Everything written here is deterministic byte for byte; see `trajio` and
`svgplot` for the formats.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .analysis import check_lyapunov_budget, conjecture_report, max_lyapunov
from .dynamics import State3, SystemKind, SystemParams, effective_params
from .integrate import (
    IntegrationError,
    Trajectory,
    check_run,
    integrate_sl,
    integrate_sl_gauges,
)
from .svgplot import COMPARE_COLORS, Curve, export_svg, geometry_views
from .timegauge import Gauge
from .trajio import format_float, write_trajectory_csv

__all__ = [
    "Scenario",
    "SweepSpec",
    "ScenarioNotFound",
    "builtin_scenarios",
    "scenario_registry",
    "derive",
    "run_trajectory",
    "equilibria_doc",
    "scenario_report",
    "run_scenario",
    "run_sweep",
    "run_compare",
]

# Lyapunov budget of a gauged report and the `lyapunov` command's default
# horizon, in scaled time.  A Lorenz report's budget is its own span.
LYAPUNOV_HORIZON = 1000.0
# Renormalization geometry of report estimates and of `lyapunov` without
# --renorm: the horizon split into 500 intervals, comfortably above the
# 100-interval floor.
LYAPUNOV_INTERVALS = 500

SWEEPABLE = ("a", "b", "c", "D", "mu")
_START = ("x0", "y0", "z0")
_SETTINGS = (*SWEEPABLE, *_START, "t0", "t1", "tol", "sample_count")
# A name is the stem of every file a run writes and the text of its SVG
# titles, so it may hold neither a path separator nor XML markup.
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9._+-]*")


class ScenarioNotFound(KeyError):
    pass


@dataclass(frozen=True)
class Scenario:
    """A complete run description: system, coefficients, gauge (for SL),
    start state, ordinary-time span, and the two run settings of
    `integrate_sl`.  Samples are spaced by the clock, so a gauged run is
    sampled geometrically and a Lorenz run linearly."""

    name: str
    kind: SystemKind
    params: SystemParams
    gauge: Gauge | None
    x0: State3
    span: tuple[float, float]
    tol: float = 1e-9
    sample_count: int = 2000

    def __post_init__(self) -> None:
        if not _NAME.fullmatch(self.name):
            raise ValueError(f"scenario name {self.name!r} must be a plain file stem: {_NAME.pattern}")
        if self.kind is SystemKind.SL:
            if self.gauge is None:
                raise ValueError(f"scenario {self.name!r}: SL runs need a gauge")
        elif self.gauge is not None:
            raise ValueError(f"scenario {self.name!r}: Lorenz runs take no gauge")
        elif self.params != (fixed := effective_params(self.kind)):
            raise ValueError(
                f"scenario {self.name!r}: {self.kind.value} has fixed coefficients "
                f"(a, b, c) = ({fixed.a!r}, {fixed.b!r}, {fixed.c!r}), got {self.params!r}"
            )
        t0, t1, tol, n = check_run([self.gauge], self.span, self.tol, self.sample_count)
        object.__setattr__(self, "span", (t0, t1))
        object.__setattr__(self, "tol", tol)
        object.__setattr__(self, "sample_count", n)
        if self.params.c <= 0.0:
            raise ValueError(f"scenario {self.name!r}: c must be positive, got {self.params.c!r}")


@dataclass(frozen=True)
class SweepSpec:
    """Rerun `base` (a registry name or a Scenario) with `parameter` set to
    each value in turn."""

    base: str | Scenario
    parameter: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.parameter not in SWEEPABLE:
            raise ValueError(
                f"sweep parameter must be one of {SWEEPABLE}, got {self.parameter!r}"
            )
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ValueError("sweep needs at least one value")
        for v in vals:
            if not math.isfinite(v):
                raise ValueError(f"sweep values must be finite, got {v!r}")
        object.__setattr__(self, "values", vals)


_SL_B = 3.0 / 10.0
_SL_C = 27.0
_SL_SPAN = (0.1, 1e6)
_SL_X0 = State3(0.1, 0.1, 0.1)
_DEFAULT_GAUGE = Gauge(0.9, 2.0 / 3.0)
_LORENZ_SPAN = (0.0, 60.0)


@functools.cache
def _builtins() -> tuple[Scenario, ...]:
    """The six built-in scenarios, in registry order, built once per
    process.  A Scenario is frozen, so every caller can share them."""
    sl_as = (("sl-a2.35", 47.0 / 20.0), ("sl-a2", 2.0), ("sl-a1.5", 1.5), ("sl-a1.35", 1.35))
    out = [
        Scenario(
            name=name,
            kind=SystemKind.SL,
            params=SystemParams(a, _SL_B, _SL_C),
            gauge=_DEFAULT_GAUGE,
            x0=_SL_X0,
            span=_SL_SPAN,
        )
        for name, a in sl_as
    ]
    for name, kind in (
        ("lorenz-standard", SystemKind.LORENZ_STANDARD),
        ("lorenz-literal", SystemKind.LORENZ_LITERAL),
    ):
        out.append(
            Scenario(
                name=name,
                kind=kind,
                params=effective_params(kind),
                gauge=None,
                x0=_SL_X0,
                span=_LORENZ_SPAN,
            )
        )
    return tuple(out)


def builtin_scenarios() -> list[Scenario]:
    """A new list of the six built-in scenarios, in registry order."""
    return list(_builtins())


def scenario_registry() -> dict[str, Scenario]:
    """A new dict of the six built-in scenarios by name, in registry order."""
    return {sc.name: sc for sc in _builtins()}


def lookup_scenario(name: str) -> Scenario:
    reg = scenario_registry()
    if name not in reg:
        known = ", ".join(sorted(reg))
        raise ScenarioNotFound(f"unknown scenario {name!r}; known: {known}")
    return reg[name]


def derive(base: Scenario, name: str, **settings: object) -> Scenario:
    """`base` renamed to `name`, with each given setting replaced.

    This is the one map from a setting name to a Scenario field: `a`, `b`,
    `c` set a coefficient (SL runs only; the Lorenz systems have fixed
    coefficients), `D` and `mu` rebuild the gauge (gauged runs only), `x0`,
    `y0`, `z0` set the start state, `t0`, `t1` the span, and `tol` and
    `sample_count` the absolute and relative tolerance and the sample
    count.  The result is validated like any Scenario, so a bad value
    raises ValueError.
    """
    for key in settings:
        if key not in _SETTINGS:
            raise ValueError(f"unknown run setting {key!r}; known: {', '.join(_SETTINGS)}")
        if key in ("a", "b", "c") and base.kind is not SystemKind.SL:
            raise ValueError(f"cannot set {key!r}: {base.name!r} has fixed coefficients")
        if key in ("D", "mu") and base.gauge is None:
            raise ValueError(f"cannot set {key!r}: {base.name!r} has no gauge")
    get = settings.get
    gauge = base.gauge
    return dataclasses.replace(
        base,
        name=name,
        params=SystemParams(*(get(k, getattr(base.params, k)) for k in "abc")),
        gauge=None if gauge is None else Gauge(get("mu", gauge.mu), get("D", gauge.D)),
        x0=State3(*(get(k, v) for k, v in zip(_START, base.x0))),
        span=(get("t0", base.span[0]), get("t1", base.span[1])),
        tol=get("tol", base.tol),
        sample_count=get("sample_count", base.sample_count),
    )


def _resolve(scenario: Scenario | str) -> Scenario:
    return lookup_scenario(scenario) if isinstance(scenario, str) else scenario


def run_trajectory(scenario: Scenario) -> Trajectory:
    """Integrate a scenario with `integrate_sl`: a gauged run on its gauge's
    clock, and a Lorenz run, which has no gauge, on the identity clock."""
    return integrate_sl(
        scenario.params,
        scenario.gauge,
        scenario.span,
        scenario.x0,
        scenario.tol,
        scenario.sample_count,
    )


def _analysis_budget(scenario: Scenario) -> tuple[float, float]:
    """The report's Lyapunov horizon and renormalization interval.  A gauged
    run's exponent is per unit s and depends only on (a, b, c) and x0, so
    its horizon is LYAPUNOV_HORIZON whatever the span; a Lorenz run's is
    its span."""
    t0, t1 = scenario.span
    horizon = LYAPUNOV_HORIZON if scenario.gauge is not None else t1 - t0
    return horizon, horizon / LYAPUNOV_INTERVALS


def equilibria_doc(kind: SystemKind, params: SystemParams | None) -> dict:
    """The `equilibria` and `conjecture` blocks shared by the analysis report
    and the `fixed-points` command, rendered from one `conjecture_report`:
    each closed-form equilibrium with its residual, spectrum and class, then
    the fixed-point-existence verdict."""
    conj = conjecture_report(effective_params(kind, params))
    entries = [
        {
            "point": [eq.point.x, eq.point.y, eq.point.z],
            "residual": eq.residual_norm,
            "note": eq.multiplicity_note,
            "spectrum": [[v.real, v.imag] for v in spec.eigenvalues],
            "class": cls,
        }
        for eq, spec, cls in zip(conj.equilibria_found, conj.spectra, conj.classes)
    ]
    return {
        "equilibria": entries,
        "conjecture": {
            "verdict": conj.verdict,
            "equilibrium_count": len(conj.equilibria_found),
            "note": conj.note,
        },
    }


def scenario_report(scenario: Scenario, trajectory: Trajectory, orbit_of: dict | None = None) -> dict:
    """Assemble the JSON-ready analysis document for a finished run.

    The `equilibria`, `lyapunov` and `conjecture` blocks depend only on the
    system, the coefficients, the start state and whether the run is
    gauged.  `orbit_of`, the report of a run that shares all four (another
    member of the same `D` or `mu` sweep), lends them instead of their
    being computed again.
    """
    if orbit_of is None:
        eq_doc = equilibria_doc(scenario.kind, scenario.params)
        est = max_lyapunov(scenario.kind, scenario.params, scenario.x0, *_analysis_budget(scenario))
        orbit_of = {**eq_doc, "lyapunov": dataclasses.asdict(est)}
    gauge_doc = None
    if scenario.gauge is not None:
        gauge_doc = {"mu": scenario.gauge.mu, "D": scenario.gauge.D, "lambda": scenario.gauge.lam}
    return {
        "scenario": scenario.name,
        "system": scenario.kind.value,
        "params": {"a": scenario.params.a, "b": scenario.params.b, "c": scenario.params.c},
        "gauge": gauge_doc,
        "x0": [scenario.x0.x, scenario.x0.y, scenario.x0.z],
        "span": [scenario.span[0], scenario.span[1]],
        "equilibria": orbit_of["equilibria"],
        "lyapunov": orbit_of["lyapunov"],
        "conjecture": orbit_of["conjecture"],
        "meta": dataclasses.asdict(trajectory.meta),
    }


def _write_json(doc: dict, path: Path) -> Path:
    path.write_bytes((json.dumps(doc, indent=2) + "\n").encode("ascii"))
    return path


def _write_all(files: Iterator[Path]) -> list[Path]:
    """Drain `files`, a generator that writes one file per step and yields
    its path.  If any step fails, the files already written are deleted
    before the error propagates, so a run leaves all of its files or none."""
    written: list[Path] = []
    try:
        for path in files:
            written.append(path)
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    return written


def _write_run(scenario: Scenario, out_dir: Path, traj: Trajectory, report: dict) -> list[Path]:
    def files() -> Iterator[Path]:
        yield write_trajectory_csv(traj, out_dir / f"{scenario.name}.csv")
        yield _write_json(report, out_dir / f"{scenario.name}-analysis.json")
        for stem, (curve, xl, yl) in geometry_views(traj.states, "", COMPARE_COLORS[2]).items():
            yield export_svg(
                [curve],
                out_dir / f"{scenario.name}-{stem}.svg",
                x_label=xl,
                y_label=yl,
                title=f"{scenario.name} {stem}",
            )

    return _write_all(files())


def run_scenario(scenario: Scenario | str, output_dir: str | Path) -> list[Path]:
    """Run one scenario and write CSV + JSON + four SVG views into
    `output_dir`.  Returns the written paths.  Accepts a registry name or a
    Scenario instance.  The report's step budget is checked before the
    solve, so a run whose report would refuse it takes no step."""
    sc = _resolve(scenario)
    check_lyapunov_budget(*_analysis_budget(sc))
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    traj = run_trajectory(sc)
    return _write_run(sc, out, traj, scenario_report(sc, traj))


def run_sweep(spec: SweepSpec, output_dir: str | Path) -> dict:
    """Run a parameter sweep into per-value subdirectories.

    Each member lands in `<parameter>-<value>/` with the full scenario
    artifact set; `summary.json` collects per-value rows (final state,
    lambda_max, origin classification) in input order.  A member with
    invalid settings, a solve that returns an IntegrationError, or a report
    or file that fails gets an error row and no artifact; the rest still run.

    The members of a `D` or `mu` sweep differ only in the gauge, so they
    are one orbit of dx/ds = f; any other sweep has an orbit per member.
    Each orbit's runs come from one `integrate_sl_gauges` call, and each
    member's report lends its fixed-point table and Lyapunov estimate to
    the next member of the orbit.  Each member's files stay byte-identical
    to a standalone run of it.
    """
    base = _resolve(spec.base)
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows: list[dict] = []
    members: list[tuple[dict, Path, Scenario]] = []
    for value in spec.values:
        subdir = out / f"{spec.parameter}-{format_float(value)}"
        row: dict = {"value": value, "directory": subdir.name}
        rows.append(row)
        try:
            tag = f"{spec.parameter}{format_float(value)}"
            members.append((row, subdir, derive(base, f"{base.name}-{tag}", **{spec.parameter: value})))
        except Exception as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
    # A D or mu sweep is one orbit (none if no member is valid), any other
    # sweep an orbit per member.
    orbits = [members] if spec.parameter in ("D", "mu") else [[m] for m in members]
    for orbit in filter(None, orbits):
        first = orbit[0][2]
        runs = integrate_sl_gauges(
            first.params, [m.gauge for _, _, m in orbit], first.span, first.x0, first.tol, first.sample_count
        )
        orbit_of = None
        for (row, subdir, member), traj in zip(orbit, runs):
            try:
                subdir.mkdir(parents=True, exist_ok=True)
                if isinstance(traj, IntegrationError):
                    raise traj
                orbit_of = report = scenario_report(member, traj, orbit_of)
                _write_run(member, subdir, traj, report)
            except Exception as exc:
                row["error"] = f"{type(exc).__name__}: {exc}"
            else:
                row["scenario"] = member.name
                row["gauge"] = report["gauge"]
                row["final_state"] = [float(v) for v in traj.states[-1]]
                row["lambda_max"] = report["lyapunov"]["lambda_max"]
                row["origin_class"] = report["equilibria"][0]["class"]
    summary = {
        "base": base.name,
        "parameter": spec.parameter,
        "values": list(spec.values),
        "results": rows,
    }
    _write_json(summary, out / "summary.json")
    return summary


def _series_axis(scenario: Scenario, traj: Trajectory, time_axis: str) -> tuple[np.ndarray, str]:
    if scenario.kind is not SystemKind.SL:
        return traj.t, "t"
    if time_axis == "t":
        return np.log10(traj.t), "log10(t)"
    return traj.s, "s"


def run_compare(
    names: Sequence[Scenario | str], output_dir: str | Path, time_axis: str = "s"
) -> list[Path]:
    """Overlay several scenarios, given as registry names or Scenario
    instances, in seven shared views.

    Four geometry views (isometric, x-y, x-z, y-z) plus one time series per
    component.  Gauged scenarios plot their series against scaled time by
    default; `time_axis="t"` switches them to log10 of ordinary time, which
    is the only readable choice across a six-decade span.  Colors follow
    the documented overlay order (green, red, blue, then extras) and the
    legend lists scenario names in argument order.
    """
    if len(names) < 2:
        raise ValueError("comparison needs at least two scenario names")
    if len(names) > len(COMPARE_COLORS):
        raise ValueError(f"comparison supports at most {len(COMPARE_COLORS)} scenarios")
    if time_axis not in ("s", "t"):
        raise ValueError(f"time_axis must be 's' or 't', got {time_axis!r}")
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)

    runs = []
    for i, name in enumerate(names):
        sc = _resolve(name)
        traj = run_trajectory(sc)
        runs.append((sc, traj, COMPARE_COLORS[i]))

    views = [geometry_views(traj.states, sc.name, color) for sc, traj, color in runs]

    def files() -> Iterator[Path]:
        for stem, (_, xl, yl) in views[0].items():
            yield export_svg(
                [v[stem][0] for v in views],
                out / f"compare-{stem}.svg",
                x_label=xl,
                y_label=yl,
                title=f"compare {stem}",
            )
        for ci, comp in enumerate("xyz"):
            curves = []
            axis_labels: list[str] = []
            for sc, traj, color in runs:
                axis, label = _series_axis(sc, traj, time_axis)
                if label not in axis_labels:
                    axis_labels.append(label)
                curves.append(Curve(sc.name, axis, traj.states[:, ci], color))
            yield export_svg(
                curves,
                out / f"compare-series-{comp}.svg",
                x_label=" / ".join(axis_labels),
                y_label=comp,
                title=f"compare {comp}(time)",
            )

    return _write_all(files())
