"""Print a sha256 manifest of what a fixed set of CLI commands produce.

Each command in WRITERS runs in process into its own subdirectory of a
temporary directory, and every file it writes gets one line,
`<sha256>  <label>/<relative path>`.  Each `plot` view in PLOT_VIEWS is
rendered from the CSV that the PLOT_SOURCE writer produced, into its own
subdirectory, and gets one line the same way.  Each command in PRINTERS
writes JSON to stdout, which gets one line, `<sha256>  <label> (stdout)`.
The commands cover `simulate` for all six built-in scenarios, a `--tol`
on the identity clock, and custom runs of every system (one of them a
Lorenz run from t0 = 1, and one a Lorenz run resting on its origin, whose
CSV has integral fields and whose views are dot markers), plus
coefficient, `D` and `mu` sweeps (one of them over sigma-ranges up to
2.3e5, where the orbit settles on the stable origin, and one the
benchmark's five-member `D` sweep at the default sample count), a run
that settles on a stable focus-node pair, a run to t = 1e30 (whose CSV
prints times in positive exponent form), `compare` of all six scenarios
and with and without run overrides (`--tol` and `--samples`), every
`plot` view, `fixed-points` and `lyapunov`.  Each command in REFUSALS
must be refused: its line is `<sha256>  refusal-<label>`, the hash of
"exit N\n" followed by its stderr, and it may neither print to stdout nor
create its `--out` directory.

A change meant to leave every artifact byte-identical is checked by running
the tool against both source trees and diffing the output:

    python tools/artifact_manifest.py --src OLD/src > old.txt
    python tools/artifact_manifest.py > new.txt
    diff old.txt new.txt

It takes a few seconds and exits non-zero if any command fails or any
refusal is not refused.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

SCENARIOS = ("sl-a2.35", "sl-a2", "sl-a1.5", "sl-a1.35", "lorenz-standard", "lorenz-literal")

# (label, argv without --out)
WRITERS: list[tuple[str, list[str]]] = [
    *((f"simulate-{name}", ["simulate", "--scenario", name]) for name in SCENARIOS),
    (
        "simulate-lorenz-literal-tol",
        ["simulate", "--scenario", "lorenz-literal", "--tol", "1e-7"],
    ),
    (
        "simulate-custom-lorenz-literal",
        ["simulate", "--system", "lorenz-literal", "--t1", "10"],
    ),
    (
        "simulate-custom-lorenz-standard-t0",
        ["simulate", "--system", "lorenz-standard", "--t0", "1", "--t1", "11"],
    ),
    (
        "simulate-custom-lorenz-standard-origin",
        ["simulate", "--system", "lorenz-standard", "--x0", "0", "--y0", "0", "--z0", "0"],
    ),
    (
        "simulate-custom-sl-every-flag",
        ["simulate", "--system", "sl", "--a", "1.5", "--b", "0.4", "--c", "20", "--D", "0.5",
         "--mu", "1.1", "--x0", "0.2", "--y0", "-0.1", "--z0", "0.3", "--t0", "0.5",
         "--t1", "1000", "--samples", "500"],
    ),
    ("sweep-sl-a2-a", ["sweep", "--scenario", "sl-a2", "--param", "a", "--values", "1.5,2"]),
    (
        "sweep-sl-a2-D-overrides",
        ["sweep", "--scenario", "sl-a2", "--param", "D", "--values", "0.5,0.7",
         "--tol", "1e-8", "--samples", "300"],
    ),
    (
        "sweep-sl-a2-D-late",
        ["sweep", "--scenario", "sl-a2", "--param", "D", "--values", "0.8,0.9", "--samples", "300"],
    ),
    (
        "sweep-sl-a2-mu",
        ["sweep", "--scenario", "sl-a2", "--param", "mu", "--values", "0.5,1.3", "--samples", "300"],
    ),
    (
        "sweep-sl-a2-D-stiff",
        ["sweep", "--scenario", "sl-a2", "--param", "D", "--values", "0.1,0.3", "--samples", "300"],
    ),
    (
        "sweep-sl-a2-D-five",
        ["sweep", "--scenario", "sl-a2", "--param", "D", "--values", "0.5,0.6,0.7,0.8,0.9"],
    ),
    ("simulate-custom-sl-pair", ["simulate", "--system", "sl", "--a", "2", "--b", "5"]),
    (
        "simulate-custom-sl-t1e30",
        ["simulate", "--system", "sl", "--a", "2", "--t1", "1e30", "--samples", "300"],
    ),
    ("compare-sl-a2-lorenz-literal", ["compare", "sl-a2", "lorenz-literal", "--axis", "t"]),
    ("compare-all-six", ["compare", *SCENARIOS]),
    (
        "compare-sl-a2-lorenz-literal-tol-samples",
        ["compare", "sl-a2", "lorenz-literal", "--tol", "1e-7", "--samples", "500"],
    ),
]

# (writer label, CSV path inside its output) that every plot view reads
PLOT_SOURCE = ("simulate-lorenz-standard", "lorenz-standard.csv")
PLOT_VIEWS = ("3d", "xy", "xz", "yz", "x", "y", "z")

PRINTERS: list[tuple[str, list[str]]] = [
    ("fixed-points-sl", ["fixed-points", "--system", "sl", "--a", "2"]),
    ("fixed-points-sl-pair", ["fixed-points", "--system", "sl", "--a", "2", "--b", "3", "--c", "5"]),
    ("fixed-points-lorenz-standard", ["fixed-points", "--system", "lorenz-standard"]),
    ("fixed-points-lorenz-literal", ["fixed-points", "--system", "lorenz-literal"]),
    ("lyapunov-sl-a2", ["lyapunov", "--scenario", "sl-a2"]),
    ("lyapunov-lorenz-standard", ["lyapunov", "--scenario", "lorenz-standard", "--horizon", "100"]),
    (
        "lyapunov-custom-sl",
        ["lyapunov", "--system", "sl", "--a", "2", "--b", "0.5", "--x0", "0.2"],
    ),
    (
        "lyapunov-custom-lorenz-literal",
        ["lyapunov", "--system", "lorenz-literal", "--renorm", "0.1"],
    ),
    (
        "lyapunov-lorenz-standard-origin",
        ["lyapunov", "--system", "lorenz-standard", "--x0", "0", "--y0", "0", "--z0", "0",
         "--horizon", "50"],
    ),
]

# (label, argv without --out) of commands that must be refused
REFUSALS: list[tuple[str, list[str]]] = [
    ("tol-ceiling", ["simulate", "--scenario", "lorenz-standard", "--tol", "1"]),
    ("tol-floor", ["simulate", "--scenario", "lorenz-standard", "--tol", "1e-16"]),
    ("samples-1", ["simulate", "--scenario", "sl-a2", "--samples", "1"]),
    ("span-order", ["simulate", "--system", "lorenz-standard", "--t0", "10", "--t1", "1"]),
    ("sl-t0", ["simulate", "--system", "sl", "--a", "2", "--t0", "0"]),
    (
        "scaled-time-overflow",
        ["simulate", "--system", "sl", "--a", "2", "--mu", "1e300", "--t1", "1e308", "--samples", "5"],
    ),
    (
        "span-length-overflow",
        ["simulate", "--system", "lorenz-standard", "--t0=-1e308", "--t1", "1e308", "--samples", "3"],
    ),
    ("report-budget", ["simulate", "--system", "lorenz-standard", "--t1", "100001"]),
    ("compare-tol-ceiling", ["compare", "sl-a2", "lorenz-literal", "--tol", "1"]),
    ("lyapunov-horizon-nan", ["lyapunov", "--scenario", "sl-a2", "--horizon", "nan"]),
    ("lyapunov-renorm-inf", ["lyapunov", "--system", "sl", "--a", "2", "--renorm", "inf"]),
    ("unknown-scenario", ["simulate", "--scenario", "no-such-run"]),
]
# The commands that take --out.
OUT_COMMANDS = ("simulate", "sweep", "compare", "plot")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: list[str]) -> str:
    from slchaos.cli import cli_main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"slchaos {' '.join(argv)} exited with {code}")
    return buf.getvalue()


def _refusal(argv: list[str], out: Path) -> str:
    """The exit code and stderr of a command that must be refused."""
    from slchaos.cli import cli_main

    if argv[0] in OUT_COMMANDS:
        argv = [*argv, "--out", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main(argv)
    if code == 0 or stdout.getvalue() or out.exists():
        raise SystemExit(f"slchaos {' '.join(argv)} was not refused cleanly (exit {code})")
    return f"exit {code}\n{stderr.getvalue()}"


def _hash_files(label: str, out: Path) -> list[str]:
    return [
        f"{_sha256(path.read_bytes())}  {label}/{path.relative_to(out).as_posix()}"
        for path in sorted(p for p in out.rglob("*") if p.is_file())
    ]


def manifest(root: Path) -> list[str]:
    lines = []
    for label, argv in WRITERS:
        out = root / label
        _run([*argv, "--out", str(out)])
        lines.extend(_hash_files(label, out))
    csv = root / PLOT_SOURCE[0] / PLOT_SOURCE[1]
    for view in PLOT_VIEWS:
        label = f"plot-{view}"
        _run(["plot", "--csv", str(csv), "--view", view, "--out", str(root / label)])
        lines.extend(_hash_files(label, root / label))
    for label, argv in PRINTERS:
        lines.append(f"{_sha256(_run(argv).encode('utf-8'))}  {label} (stdout)")
    for label, argv in REFUSALS:
        label = f"refusal-{label}"
        lines.append(f"{_sha256(_refusal(argv, root / label).encode('utf-8'))}  {label}")
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src",
        type=Path,
        default=Path(__file__).resolve().parents[1] / "src",
        help="directory holding the slchaos package to run (default: this checkout's src)",
    )
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    with tempfile.TemporaryDirectory() as tmp:
        for line in manifest(Path(tmp)):
            print(line)


if __name__ == "__main__":
    main()
