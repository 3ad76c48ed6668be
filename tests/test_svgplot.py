import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slchaos import svgplot
from slchaos.scenarios import run_compare, run_scenario, scenario_registry
from slchaos.svgplot import (
    COMPARE_COLORS,
    Curve,
    _pairs,
    _words,
    export_svg,
    isometric_projection,
)


def _sine_curve(label="", color=None):
    x = np.linspace(0.0, 10.0, 60)
    kwargs = {} if color is None else {"color": color}
    return Curve(label, x, np.sin(x), **kwargs)


@st.composite
def _scaled_curve(draw):
    """Equal-length x and y lists, each a few decades wide and scaled
    anywhere from 1e-150 to 1e150; sometimes a single repeated point."""
    n = draw(st.integers(1, 40))
    column = st.lists(
        st.floats(-1e6, 1e6, allow_nan=False), min_size=n, max_size=n
    )
    x = [v * 10.0 ** draw(st.integers(-150, 150)) for v in draw(column)]
    y = [v * 10.0 ** draw(st.integers(-150, 150)) for v in draw(column)]
    if draw(st.booleans()):
        x, y = [x[0]] * n, [y[0]] * n
    return x, y


class TestCurve:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Curve("", np.array([]), np.array([]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            Curve("", np.array([1.0, 2.0]), np.array([1.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            Curve("", np.array([1.0, 2.0]), np.array([1.0, math.inf]))

    @pytest.mark.parametrize("color", ["red", "#12345", "#1234567", '#000000" onload="x', "#00g000"])
    def test_rejects_color_other_than_rrggbb(self, color):
        with pytest.raises(ValueError, match="not #rrggbb"):
            Curve("", np.array([1.0, 2.0]), np.array([1.0, 2.0]), color)


class TestProjection:
    def test_axis_images(self):
        states = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        u, v = isometric_projection(states)
        root = math.sqrt(3.0) / 2.0
        assert u == pytest.approx([root, -root, 0.0])
        assert v == pytest.approx([0.5, 0.5, -1.0])


class TestExport:
    def test_document_shell(self, tmp_path):
        path = export_svg([_sine_curve()], tmp_path / "p.svg", x_label="t", y_label="x")
        text = path.read_text()
        assert text.startswith("<svg ")
        assert 'width="800" height="600"' in text
        assert text.rstrip().endswith("</svg>")
        assert text.count("<polyline ") == 1
        assert ">t</text>" in text
        assert ">x</text>" in text

    def test_tick_labels_span_data(self, tmp_path):
        path = export_svg([_sine_curve()], tmp_path / "p.svg", x_label="t", y_label="x")
        text = path.read_text()
        assert ">0</text>" in text
        assert ">10</text>" in text

    def test_byte_determinism(self, tmp_path):
        a = export_svg([_sine_curve("run")], tmp_path / "a.svg", x_label="t", y_label="x")
        b = export_svg([_sine_curve("run")], tmp_path / "b.svg", x_label="t", y_label="x")
        assert a.read_bytes() == b.read_bytes()

    def test_single_point_becomes_marker(self, tmp_path):
        c = Curve("", np.array([2.0]), np.array([3.0]))
        path = export_svg([c], tmp_path / "dot.svg", x_label="t", y_label="x")
        text = path.read_text()
        assert "<circle " in text
        assert "<polyline " not in text

    def test_overlay_palette_order(self, tmp_path):
        curves = [
            Curve(f"c{i}", np.linspace(0, 1, 5), np.linspace(0, 1, 5) * (i + 1), color=COMPARE_COLORS[i])
            for i in range(3)
        ]
        path = export_svg(curves, tmp_path / "m.svg", x_label="t", y_label="x")
        text = path.read_text()
        green = text.index("#008000")
        red = text.index("#d00000")
        blue = text.index("#0000cc")
        assert green < red < blue
        for c in curves:
            assert f">{c.label}</text>" in text

    def test_unlabeled_curves_get_no_legend(self, tmp_path):
        path = export_svg([_sine_curve()], tmp_path / "p.svg", x_label="t", y_label="x")
        # legend swatches are the only stroke-width="2" elements
        assert 'stroke-width="2"' not in path.read_text()

    # Each example writes a file, so a loaded machine may pass the default deadline.
    @settings(deadline=None)
    @given(st.lists(_scaled_curve(), min_size=1, max_size=3))
    def test_coordinates_match_per_point_reference(self, tmp_path_factory, data):
        curves = [Curve(f"c{i}", np.array(x), np.array(y)) for i, (x, y) in enumerate(data)]
        path = tmp_path_factory.mktemp("svg") / "p.svg"

        xmin = min(min(x) for x, _ in data)
        xmax = max(max(x) for x, _ in data)
        ymin = min(min(y) for _, y in data)
        ymax = max(max(y) for _, y in data)
        if xmax == xmin:
            xmin, xmax = xmin - max(1.0, math.ulp(xmin)), xmax + max(1.0, math.ulp(xmax))
        if ymax == ymin:
            ymin, ymax = ymin - max(1.0, math.ulp(ymin)), ymax + max(1.0, math.ulp(ymax))
        sx = (720.0 - 80.0) / (xmax - xmin)
        sy = (540.0 - 60.0) / (ymax - ymin)
        if not (sx < math.inf and sy < math.inf):  # a subnormal extent
            with pytest.raises(ValueError, match="no finite pixel scale"):
                export_svg(curves, path, x_label="x", y_label="y")
            return
        export_svg(curves, path, x_label="x", y_label="y")
        expected = []
        for x, y in data:
            pts = [f"{80.0 + (a - xmin) * sx:.2f},{540.0 - (b - ymin) * sy:.2f}" for a, b in zip(x, y)]
            if len(set(x)) == 1 and len(set(y)) == 1:
                expected.append(("", *pts[0].split(",")))
            else:
                expected.append((" ".join(pts), "", ""))
        found = re.findall(
            r'<(?:polyline points="([^"]*)"|circle cx="([^"]*)" cy="([^"]*)")', path.read_text()
        )
        assert found == expected

    @pytest.mark.parametrize("axis", ["x", "y"])
    @pytest.mark.parametrize(
        "values",
        [[-1e308, 1e308], [1.7976931348623157e308] * 2, [0.0, 5e-324]],
        ids=["overflow", "pad-overflow", "subnormal"],
    )
    def test_extent_without_finite_scale_is_rejected(self, tmp_path, axis, values):
        other = [0.0, 1.0]
        x, y = (values, other) if axis == "x" else (other, values)
        with pytest.raises(ValueError, match=f"^{axis} extent .* no finite pixel scale"):
            export_svg([Curve("", np.array(x), np.array(y))], tmp_path / "p.svg", x_label="x", y_label="y")
        assert not (tmp_path / "p.svg").exists()

    def test_text_is_escaped(self, tmp_path):
        c = Curve("a<b & c", np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        path = export_svg([c], tmp_path / "p.svg", x_label="x<y", y_label="y>0", title="T&C")
        minidom.parse(str(path))
        text = path.read_text()
        for raw, escaped in (("a<b & c", "a&lt;b &amp; c"), ("x<y", "x&lt;y"), ("y>0", "y&gt;0"), ("T&C", "T&amp;C")):
            assert f">{escaped}</text>" in text
            assert raw not in text
        labels = [e.text for e in ET.parse(path).getroot() if e.tag.endswith("text")]
        assert {"a<b & c", "x<y", "y>0", "T&C"} <= set(labels)

    def test_needs_a_curve(self, tmp_path):
        with pytest.raises(ValueError):
            export_svg([], tmp_path / "p.svg", x_label="t", y_label="x")


def _per_value(v):
    text = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(v[0::2].tolist(), v[1::2].tolist()))
    return text.encode("ascii")


class TestPairs:
    def test_rounds_like_per_value_format_near_halfway(self):
        k = np.arange(0, 99999, 3)
        ties = (2 * k + 1) / 200.0
        near = [ties]
        up, down = ties, ties
        for _ in range(3):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
            near += [up, down]
        v = np.concatenate(near)
        v = v[: v.size // 2 * 2]
        # Where v * 100 rounds onto a tie that v is not on, plain rint goes the wrong way.
        assert _per_value(np.rint(v * 100.0) / 100.0) != _per_value(v)
        assert _pairs(v) == _per_value(v)

    def test_exact_binary_ties_round_half_to_even(self):
        v = np.arange(8000) / 8.0
        assert _pairs(v) == _per_value(v)
        assert _pairs(np.array([0.125, 0.375])) == b"0.12,0.38"

    def test_integer_digit_counts(self):
        v = np.array([0.0, 9.99, 99.99, 999.99, 0.004, 60.0])
        assert _pairs(v) == b"0.00,9.99 99.99,999.99 0.00,60.00"

    def test_every_word_of_the_table(self):
        v = np.arange(100_000) / 100.0
        assert _pairs(v) == _per_value(v)

    def test_table_is_read_only(self):
        words = _words()
        assert words.shape == (100_000,) and words.dtype == np.uint64
        with pytest.raises(ValueError, match="read-only"):
            words[0] = 0

    def test_cli_setup_builds_no_table(self):
        # What slbench times as setup_s: import the CLI, build its parser and
        # the scenario registry.  The table is built on a first plot only.
        probe = (
            "import slchaos.cli as cli; cli.build_parser();"
            "from slchaos.scenarios import scenario_registry; scenario_registry();"
            "from slchaos import svgplot; print(svgplot._words.cache_info().currsize)"
        )
        src = str(Path(svgplot.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0\n"

    @pytest.mark.parametrize("bad", [-0.01, 999.995, 1e6, math.nan])
    def test_rejects_values_outside_its_domain(self, bad):
        with pytest.raises(ValueError, match="outside"):
            _pairs(np.array([1.0, bad]))


def test_every_registry_svg_is_well_formed_xml(tmp_path):
    names = list(scenario_registry())
    paths = run_compare(names, tmp_path / "compare")
    for name in names:
        paths += run_scenario(name, tmp_path / name)
    svgs = [p for p in paths if p.suffix == ".svg"]
    assert len(svgs) == 7 + 4 * len(names)
    for p in svgs:
        assert ET.parse(p).getroot().tag == "{http://www.w3.org/2000/svg}svg", p
