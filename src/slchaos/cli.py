"""Command-line interface.

Exit codes: 0 success, 1 usage error (bad flags, unknown scenario or
malformed values), 2 runtime failure (integration failure, I/O trouble).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .analysis import max_lyapunov
from .dynamics import SystemKind
from .integrate import IntegrationError
from .scenarios import (
    LYAPUNOV_HORIZON,
    LYAPUNOV_INTERVALS,
    SWEEPABLE,
    Scenario,
    ScenarioNotFound,
    SweepSpec,
    builtin_scenarios,
    derive,
    equilibria_doc,
    lookup_scenario,
    run_compare,
    run_scenario,
    run_sweep,
)
from .svgplot import DEFAULT_COLOR, Curve, export_svg, geometry_views
from .trajio import format_float, read_trajectory_csv

__all__ = ["cli_main", "main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", default="out", help="output directory (default: out)")
    sub.add_argument("--tol", type=float, default=None, help="absolute and relative tolerance")
    sub.add_argument(
        "--samples", dest="sample_count", type=int, default=None, help="sample count override"
    )


# Flags that describe a custom run.  Each defaults to None, so a flag left
# unset takes the value of the registry scenario of the chosen --system.
# The SWEEPABLE ones are the coefficients and the gauge.  A command
# registers only the ones it reads.
_SYSTEM_FLAGS = ("system", *SWEEPABLE, "x0", "y0", "z0", "t0", "t1")
# The `_add_common` flags that change how a run is integrated and sampled.
_RUN_FLAGS = ("tol", "sample_count")


def _add_system_flags(sub: argparse.ArgumentParser, flags: tuple[str, ...]) -> None:
    sub.add_argument("--system", choices=[k.value for k in SystemKind], default=None)
    for flag in flags:
        sub.add_argument(f"--{flag}", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="slchaos", description="scaling-law chaotic system toolkit")
    subs = parser.add_subparsers(dest="command", required=True)

    p_list = subs.add_parser("list", help="list built-in scenarios")
    p_list.set_defaults(func=_cmd_list)

    p_sim = subs.add_parser("simulate", help="run a scenario and write its artifacts")
    _add_common(p_sim)
    p_sim.add_argument("--scenario", default=None, help="registry name")
    _add_system_flags(p_sim, _SYSTEM_FLAGS[1:])
    p_sim.set_defaults(func=_cmd_simulate)

    p_sweep = subs.add_parser("sweep", help="rerun a scenario across parameter values")
    _add_common(p_sweep)
    p_sweep.add_argument("--scenario", required=True)
    p_sweep.add_argument("--param", required=True, choices=SWEEPABLE)
    p_sweep.add_argument("--values", required=True, help="comma-separated numbers")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cmp = subs.add_parser("compare", help="overlay several scenarios")
    _add_common(p_cmp)
    p_cmp.add_argument("scenarios", nargs="+", help="two or more registry names")
    p_cmp.add_argument("--axis", choices=["s", "t"], default="s", help="series time axis")
    p_cmp.set_defaults(func=_cmd_compare)

    p_fp = subs.add_parser("fixed-points", help="closed-form equilibria with classification")
    _add_system_flags(p_fp, ("a", "b", "c"))
    p_fp.set_defaults(func=_cmd_fixed_points)

    p_ly = subs.add_parser("lyapunov", help="largest-exponent estimate")
    p_ly.add_argument("--scenario", default=None)
    # The exponent is per unit s, so neither the gauge nor the span enters it.
    _add_system_flags(p_ly, ("a", "b", "c", "x0", "y0", "z0"))
    p_ly.add_argument("--horizon", type=float, default=LYAPUNOV_HORIZON)
    p_ly.add_argument(
        "--renorm", type=float, default=None, help=f"default: horizon/{LYAPUNOV_INTERVALS}"
    )
    p_ly.set_defaults(func=_cmd_lyapunov)

    p_plot = subs.add_parser("plot", help="render an SVG view from a trajectory CSV")
    p_plot.add_argument("--csv", required=True)
    p_plot.add_argument("--view", choices=["3d", "xy", "xz", "yz", "x", "y", "z"], default="3d")
    p_plot.add_argument("--out", default="out")
    p_plot.set_defaults(func=_cmd_plot)

    return parser


def _scenario_line(sc: Scenario) -> str:
    p = sc.params
    bits = [
        f"{sc.name}:",
        f"system={sc.kind.value}",
        f"a={format_float(p.a)}",
        f"b={format_float(p.b)}",
        f"c={format_float(p.c)}",
    ]
    if sc.gauge is not None:
        bits.append(f"D={format_float(sc.gauge.D)}")
        bits.append(f"mu={format_float(sc.gauge.mu)}")
        bits.append(f"lambda={format_float(sc.gauge.lam)}")
    bits.append(f"x0=({format_float(sc.x0.x)},{format_float(sc.x0.y)},{format_float(sc.x0.z)})")
    bits.append(f"span=[{format_float(sc.span[0])},{format_float(sc.span[1])}]")
    return " ".join(bits)


def _cmd_list(ns: argparse.Namespace) -> int:
    for sc in builtin_scenarios():
        print(_scenario_line(sc))
    return 0


def _given(ns: argparse.Namespace, flags: tuple[str, ...]) -> dict:
    """Each of `flags` that the command registers and the command line set."""
    return {f: getattr(ns, f) for f in flags if getattr(ns, f, None) is not None}


def _scenario(ns: argparse.Namespace) -> Scenario:
    """The run the flags describe: the `--scenario` registry entry, or the
    registry scenario of `--system` with every given system flag applied;
    either way with every given run flag applied."""
    system, run = _given(ns, _SYSTEM_FLAGS), _given(ns, _RUN_FLAGS)
    if getattr(ns, "scenario", None) is not None:
        if system:
            raise _UsageError(f"--scenario takes no system flags, got --{next(iter(system))}")
        base = lookup_scenario(ns.scenario)
        name = base.name
    else:
        kind = system.pop("system", None)
        if kind is None:
            raise _UsageError("give --scenario or --system" if "scenario" in ns else "give --system")
        base = next(sc for sc in builtin_scenarios() if sc.kind.value == kind)
        name = f"custom-{kind}"
        if base.kind is SystemKind.SL:
            if "a" not in system:
                raise _UsageError("--system sl needs --a (and optionally --b, --c)")
            name = f"custom-sl-a{format_float(system['a'])}"
    return derive(base, name, **system, **run)


def _cmd_simulate(ns: argparse.Namespace) -> int:
    paths = run_scenario(_scenario(ns), ns.out)
    for p in paths:
        print(f"wrote {p}")
    return 0


def _cmd_sweep(ns: argparse.Namespace) -> int:
    try:
        values = tuple(float(v) for v in ns.values.split(","))
    except ValueError:
        raise _UsageError(f"--values must be comma-separated numbers, got {ns.values!r}")
    spec = SweepSpec(_scenario(ns), ns.param, values)
    summary = run_sweep(spec, ns.out)
    failures = [r for r in summary["results"] if "error" in r]
    for row in summary["results"]:
        tag = row.get("error", "ok")
        print(f"{summary['parameter']}={format_float(row['value'])}: {tag}")
    print(f"wrote {Path(ns.out) / 'summary.json'}")
    return 0 if not failures else 2


def _cmd_compare(ns: argparse.Namespace) -> int:
    run = _given(ns, _RUN_FLAGS)
    scenarios = [derive(sc, sc.name, **run) for sc in map(lookup_scenario, ns.scenarios)]
    paths = run_compare(scenarios, ns.out, ns.axis)
    for p in paths:
        print(f"wrote {p}")
    return 0


def _cmd_fixed_points(ns: argparse.Namespace) -> int:
    sc = _scenario(ns)
    p = sc.params
    doc = {
        "system": sc.kind.value,
        "params": {"a": p.a, "b": p.b, "c": p.c},
        **equilibria_doc(sc.kind, p),
    }
    print(json.dumps(doc, indent=2))
    return 0


def _cmd_lyapunov(ns: argparse.Namespace) -> int:
    sc = _scenario(ns)
    renorm = ns.renorm if ns.renorm is not None else ns.horizon / LYAPUNOV_INTERVALS
    est = max_lyapunov(sc.kind, sc.params, sc.x0, ns.horizon, renorm)
    doc = {"system": sc.kind.value, **dataclasses.asdict(est)}
    print(json.dumps(doc, indent=2))
    return 0


def _cmd_plot(ns: argparse.Namespace) -> int:
    traj = read_trajectory_csv(ns.csv)
    out = Path(ns.out)
    out.mkdir(parents=True, exist_ok=True)
    if ns.view in ("x", "y", "z"):
        curve, xl, yl = Curve("", traj.s, traj.states[:, "xyz".index(ns.view)]), "s", ns.view
    else:
        views = geometry_views(traj.states, "", DEFAULT_COLOR)
        curve, xl, yl = views["traj3d" if ns.view == "3d" else ns.view]
    path = export_svg([curve], out / f"{Path(ns.csv).stem}-{ns.view}.svg", x_label=xl, y_label=yl)
    print(f"wrote {path}")
    return 0


def cli_main(argv: list[str] | None = None) -> int:
    try:
        ns = build_parser().parse_args(argv)
        return ns.func(ns)
    except SystemExit as exc:
        # argparse help actions exit directly (no command does); mirror their code.
        return int(exc.code) if exc.code else 0
    except (_UsageError, ScenarioNotFound, ValueError) as exc:
        msg = exc.args[0] if exc.args else str(exc)
        print(f"usage error: {msg}", file=sys.stderr)
        return 1
    except (IntegrationError, ArithmeticError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
