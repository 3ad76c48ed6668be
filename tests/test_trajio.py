import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slchaos import trajio
from slchaos.integrate import IntegrationMeta, Trajectory
from slchaos.scenarios import builtin_scenarios, run_trajectory
from slchaos.trajio import (
    CSV_HEADER,
    format_float,
    read_trajectory_csv,
    write_trajectory_csv,
)


def _meta():
    return IntegrationMeta(0, 0, "test")


class TestFormatFloat:
    @pytest.mark.parametrize(
        "value,text",
        [
            (0.1, "0.1"),
            (1.0, "1"),
            (-2.0, "-2"),
            (0.0, "0"),
            (-0.0, "-0"),
            (1e6, "1000000"),
            (1e16, "1e+16"),
            (0.4177429950251501, "0.4177429950251501"),
        ],
    )
    def test_examples(self, value, text):
        assert format_float(value) == text

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_round_trips(self, value):
        assert float(format_float(value)) == value


# Finite floats, with integral values, signed zeros, the least subnormal
# and values near the top of the range drawn often.
_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(10**17), 10**17).map(float),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e16, 2.0**53]),
)


def _reference_bytes(t, s, states):
    """The CSV built value by value with `format_float`: repr, less the `.0`
    of an integral value."""
    rows = [",".join(map(format_float, (ti, si, *st_))) for ti, si, st_ in zip(t, s, states)]
    return ("\n".join([CSV_HEADER, *rows]) + "\n").encode("ascii")


@st.composite
def _rows(draw):
    """Columns t, s (strictly increasing) and states of one trajectory."""
    t = sorted(draw(st.lists(_VALUES, min_size=1, max_size=20, unique=True)))
    n = len(t)
    s = sorted(draw(st.lists(_VALUES, min_size=n, max_size=n, unique=True)))
    states = draw(st.lists(st.tuples(_VALUES, _VALUES, _VALUES), min_size=n, max_size=n))
    return t, s, states


class TestWrite:
    def test_golden_bytes(self, tmp_path):
        traj = Trajectory(
            np.array([0.1, 1.0]),
            np.array([0.4177429950251501, 0.9]),
            np.zeros((2, 3)),
            _meta(),
        )
        path = tmp_path / "out.csv"
        write_trajectory_csv(traj, path)
        expected = b"t,s,x,y,z\n0.1,0.4177429950251501,0,0,0\n1,0.9,0,0,0\n"
        assert path.read_bytes() == expected

    # Each example writes a file, so a loaded machine may pass the default deadline.
    @settings(deadline=None)
    @given(_rows())
    def test_bytes_match_per_value_reference(self, tmp_path_factory, columns):
        t, s, states = columns
        path = write_trajectory_csv(
            Trajectory(np.array(t), np.array(s), np.array(states), _meta()),
            tmp_path_factory.mktemp("csv") / "p.csv",
        )
        assert path.read_bytes() == _reference_bytes(t, s, states)

    def test_long_run_matches_per_value_reference(self, tmp_path):
        # Long enough to span several of the writer's blocks of rows, with
        # integral values on every tenth row.
        rng = np.random.default_rng(11)
        t = np.arange(1000) * 0.5
        s = np.cumsum(rng.uniform(0.1, 2.0, 1000))
        states = rng.standard_normal((1000, 3)) * 10.0 ** rng.integers(-300, 300, (1000, 3))
        states[::10] = rng.integers(-(10**6), 10**6, (100, 3))
        path = write_trajectory_csv(Trajectory(t, s, states, _meta()), tmp_path / "p.csv")
        assert path.read_bytes() == _reference_bytes(t.tolist(), s.tolist(), states.tolist())

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        t = np.sort(rng.uniform(0.1, 50.0, 40))
        traj = Trajectory(t, 0.9 * t ** (1.0 / 3.0), rng.standard_normal((40, 3)), _meta())
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        assert read_trajectory_csv(path) == traj


def _write_values(values, path):
    """Write finite `values` as the columns of a CSV and return the columns.

    `t` and `s` must increase, so the first two fifths of the values, sorted
    and deduplicated, become those columns; the next three fifths fill the
    states."""
    n = values.size // 5
    columns = np.unique(values[: 2 * n])
    n = min(n, columns.size // 2)
    t, s = columns[:n], columns[columns.size - n :]
    states = values[2 * n : 5 * n].reshape(n, 3)
    write_trajectory_csv(Trajectory(t, s, states, _meta()), path)
    return t, s, states


def _edge_values():
    """Values where repr's choice is hardest to reproduce."""
    up = lambda v: np.nextafter(v, np.inf)  # noqa: E731
    down = lambda v: np.nextafter(v, -np.inf)  # noqa: E731
    tiny = np.finfo(float).tiny
    powers2 = np.ldexp(1.0, np.arange(-1022, 1024))
    powers10 = np.array([float(f"1e{k}") for k in range(-307, 309)])
    near = np.concatenate([powers2, powers10, [1e16, 1e-4, 2.0**53, tiny]])
    integers = 2.0**53 + np.arange(-20, 21)
    subnormals = np.array([5e-324, 1e-323, down(tiny), 1e-310, 2.5e-320, 4.9e-324 * 12345])
    # Dyadic c / 2^j whose exact decimal has 17 digits, the last a 5.
    rng = np.random.default_rng(17)
    dyadic = []
    for j in range(1, 24):
        lo, hi = -(-(10**16) // 5**j), min(10**17 // 5**j, 2**53)
        if lo < hi:
            c = rng.integers(lo, hi, 40) | 1
            dyadic.append(c / 2.0**j)
    values = np.concatenate(
        [near, up(near), down(near), integers, subnormals, [0.0, np.finfo(float).max]] + dyadic
    )
    return np.concatenate([values, -values])


class TestWriteMatchesFormatFloat:
    """The array formatter against `format_float`, one value at a time."""

    def test_random_bit_patterns(self, tmp_path):
        # About 10^6 random 64-bit patterns: both signs, every exponent.
        rng = np.random.default_rng(20261019)
        for chunk in range(4):
            values = rng.integers(0, 2**64, 250_000, dtype=np.uint64, endpoint=False).view(np.float64)
            path = tmp_path / f"chunk{chunk}.csv"
            t, s, states = _write_values(values[np.isfinite(values)], path)
            assert path.read_bytes() == _reference_bytes(t.tolist(), s.tolist(), states.tolist())
            if chunk == 0:
                back = read_trajectory_csv(path)
                read = np.column_stack((back.t, back.s, back.states))
                assert np.array_equal(read.view(np.uint64), np.column_stack((t, s, states)).view(np.uint64))

    def test_edge_values(self, tmp_path):
        # Every edge value in the t and s columns (sorted) and in the states.
        values = _edge_values()
        columns = np.unique(values)
        states = np.resize(values, (columns.size, 3))
        path = write_trajectory_csv(Trajectory(columns, columns, states, _meta()), tmp_path / "e.csv")
        assert path.read_bytes() == _reference_bytes(columns.tolist(), columns.tolist(), states.tolist())

    def test_registry_runs_take_the_array_path(self, tmp_path, monkeypatch):
        # A fast path that silently handed its values to `format_float`
        # would still write the right bytes: count the hand-overs.
        handed = []

        def counting(v):
            handed.append(v)
            return format_float(v)

        monkeypatch.setattr(trajio, "format_float", counting)
        total = 0
        for sc in builtin_scenarios():
            traj = run_trajectory(sc)
            write_trajectory_csv(traj, tmp_path / f"{sc.name}.csv")
            total += 5 * len(traj)
        assert total == 60_000
        assert len(handed) <= 0.01 * total


class TestRead:
    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,s,x,y,z\n0,0,1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_trajectory_csv(path)

    def test_field_count_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\n0,0,1,2\n")
        with pytest.raises(ValueError, match="expected 5 fields, got 4"):
            read_trajectory_csv(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\n0,0,1,2,oops\n")
        with pytest.raises(ValueError):
            read_trajectory_csv(path)

    def test_empty_body_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\n")
        with pytest.raises(ValueError):
            read_trajectory_csv(path)

    def test_imported_meta(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text(CSV_HEADER + "\n0,0,1,2,3\n")
        traj = read_trajectory_csv(path)
        assert traj.meta.method == "imported"
        assert len(traj) == 1
        assert tuple(traj.states[-1]) == (1.0, 2.0, 3.0)

    @pytest.mark.parametrize(
        "body,line,message",
        [
            ("0,0,1,2,3\n1,1,nan,2,3\n", 3, "unexpected character b'n'"),
            ("0,0,1,2,3\n1,1,1,inf,3\n", 3, "unexpected character b'i'"),
            ("0,0,1,2,3\n1,1,1,2,1e999\n", 3, "z = 1e999 is not finite"),
            ("0,0,1,2,3\r\n1,1,1,2,3\r\n", 2, "unexpected character b'\\r'"),
            ("0,0, 1_0 ,2,3\n", 2, "unexpected character b' '"),
            ("0,0,1_0,2,3\n", 2, "unexpected character b'_'"),
            ("0,0,1,2,3\n1,1,1,2,3\n1,2,1,2,3\n", 4, "t = 1 does not increase from 1"),
            ("0,0,1,2,3\n1,1,1,2,3\n2,0.5,1,2,3\n", 4, "s = 0.5 does not increase from 1"),
            ("0,0,1,2,3\n1,1,1e,2,3\n", 3, "could not convert string to float: '1e'"),
            ("0,0,1,2,3\n\n", 3, "expected 5 fields, got 1"),
        ],
    )
    def test_rejects_what_the_writer_never_writes(self, tmp_path, body, line, message):
        path = tmp_path / "bad.csv"
        path.write_bytes((CSV_HEADER + "\n" + body).encode("ascii"))
        with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: {message}")):
            read_trajectory_csv(path)
