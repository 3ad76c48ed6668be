import numpy as np
import pytest
from hypothesis import given
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
