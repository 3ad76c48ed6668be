"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)


def test_library_use_blocks_run_in_order(tmp_path, monkeypatch, capsys):
    blocks = _library_blocks()
    assert len(blocks) == 3
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert sorted(p.name for p in (tmp_path / "runs" / "sl-a2-tol").iterdir()) == [
        "sl-a2-analysis.json",
        "sl-a2-traj3d.svg",
        "sl-a2-xy.svg",
        "sl-a2-xz.svg",
        "sl-a2-yz.svg",
        "sl-a2.csv",
    ]
