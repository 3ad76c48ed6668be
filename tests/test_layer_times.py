"""The layer timing tool still runs every case it times."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "layer_times.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("layer_times", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_case_runs_once(tmp_path):
    table = _load_tool().cases(tmp_path)
    assert len(table) == 25
    for name, case in table.items():
        assert case() is not None, name
