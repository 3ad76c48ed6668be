import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slchaos.integrate import IntegrationMeta, Trajectory
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
    """The CSV built value by value: repr, less the `.0` of an integral value."""

    def ref(v):
        r = repr(v)
        return r[:-2] if r.endswith(".0") else r

    rows = [",".join(map(ref, (ti, si, *st_))) for ti, si, st_ in zip(t, s, states)]
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
