"""The artifact manifest tool still runs and covers every command it lists."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "artifact_manifest.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("artifact_manifest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_manifest_is_complete_and_repeatable(tmp_path):
    tool = _load_tool()
    # The second pass reads the fixed-point tables that the first one built.
    first = tool.manifest(tmp_path / "first")
    second = tool.manifest(tmp_path / "second")
    assert first == second
    assert len(first) == 211 + len(tool.REFUSALS)
    labels = {line.split("  ", 1)[1] for line in first}
    groups = {label.split("/", 1)[0] for label in labels}
    for label, _ in tool.WRITERS:
        assert label in groups
    for view in tool.PLOT_VIEWS:
        assert f"plot-{view}" in groups
    for label, _ in tool.PRINTERS:
        assert f"{label} (stdout)" in labels
    for label, _ in tool.REFUSALS:
        assert f"refusal-{label}" in labels
