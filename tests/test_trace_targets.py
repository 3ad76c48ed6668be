"""Every name the benchmark's tracer wraps still exists in the package.

The tracer skips a missing target with a warning, so a refactor that drops
a traced name would otherwise show up only as a warning in a traced
benchmark run, with the metrics it fed reported absent.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "slbench" / "tracer.py"

# Targets that no longer exist: names `scenarios` stopped importing, which
# the tracer still lists.  Mending them means editing the benchmark.
KNOWN_DEAD = {
    f"slchaos.scenarios.{name}"
    for name in (
        "integrate_adaptive",
        "integrate_fixed",
        "eigenvalues_3x3",
        "classify_spectrum",
        "scale_time",
        "make_field",
    )
}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("slbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_live_trace_target_resolves():
    targets = {target for _, names in _load_tracer().HOOKS.values() for target in names}
    assert KNOWN_DEAD <= targets
    missing = []
    for target in sorted(targets - KNOWN_DEAD):
        module_name, attr = target.rsplit(".", 1)
        if not hasattr(importlib.import_module(module_name), attr):
            missing.append(target)
    assert missing == []
