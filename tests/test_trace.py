import math

import numpy as np
import pytest

from tiltphase.config import ControllerConfig, PlantConfig
from tiltphase.controller import ActivationSet, GaitCommand
from tiltphase.estimator import ImuSample
from tiltphase.harness import Scenario, run_closed_loop, run_replay
from tiltphase.trace import (
    COLUMNS,
    FIELDS,
    format_record,
    read_trace,
    record_values,
    write_trace,
)


def sample_records(n=5):
    records = []
    for k in range(n):
        act = ActivationSet(
            arm_tilt=(0.1 * k, -0.05 * k),
            gait_frequency=2.0 * math.pi + 0.001 * k,
            mu=0.1 * k,
            deviation=(1e-17 * k, -0.3),
            flags=("deviation_degenerate",) if k == 3 else (),
        )
        records.append(record_values(0.01 * (k + 1), act))
    return records


# The v1 column list, copied literally: reordering ActivationSet or the
# column table must not silently move a column
V1_FIELDS = (
    "t", "mu",
    "pxB", "pyB", "pxE", "pyE", "pxd", "pyd",
    "pxa", "pya", "pxs", "pys", "pxc", "pyc",
    "sx", "sy", "hmax", "pxl", "pyl", "pxo", "pyo", "pxS", "pyS", "fg",
    "EL", "ER", "inst", "sd", "flags",
)


class TestSchema:
    def test_v1_columns_pinned(self):
        assert FIELDS == V1_FIELDS

    def test_every_field_but_deviation_mean_is_traced(self):
        assert set(COLUMNS) | {"flags"} == set(ActivationSet._fields) - {"deviation_mean"}

    def test_column_count_matches_field_shape(self):
        for name, cols in COLUMNS.items():
            default = ActivationSet._field_defaults[name]
            assert len(cols) == (len(default) if isinstance(default, tuple) else 1), name

    def test_columns_follow_their_fields(self):
        act = ActivationSet(
            **{name: tuple(float(k + j) for j in range(len(cols))) if len(cols) > 1
               else float(k) for k, (name, cols) in enumerate(COLUMNS.items())},
            flags=("a", "b"),
        )
        row = dict(zip(FIELDS, record_values(-1.0, act)))
        assert row.pop("t") == -1.0
        assert row.pop("flags") == "a|b"
        for name, cols in COLUMNS.items():
            value = getattr(act, name)
            assert tuple(row[c] for c in cols) == (value if len(cols) > 1 else (value,))


class TestRecordValues:
    def test_field_count_matches_schema(self):
        assert len(record_values(0.0, ActivationSet())) == len(FIELDS)

    def test_format_uses_repr_for_floats(self):
        rec = record_values(0.01, ActivationSet(deviation=(0.1 + 0.2, 0.0)))
        line = format_record(rec)
        assert "0.30000000000000004" in line


class TestRoundTrip:
    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "run.trace"
        records = sample_records()
        write_trace(path, records)
        back = read_trace(path)
        assert len(back) == len(records)
        for rec, row in zip(records, back):
            for name, value in zip(FIELDS, rec):
                if name == "flags":
                    assert row[name] == value
                else:
                    assert row[name] == value  # repr round trips floats exactly

    def test_csv_header_mode(self, tmp_path):
        path = tmp_path / "run.csv"
        write_trace(path, sample_records(), csv=True)
        text = path.read_text()
        assert text.splitlines()[0] == ",".join(FIELDS)
        assert read_trace(path)  # header line is skipped on read

    def test_write_is_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        records = sample_records()
        write_trace(a, records)
        write_trace(b, records)
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_record_rejected(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("# tiltphase-trace v1\n1.0,2.0,3.0\n")
        with pytest.raises(ValueError, match="malformed"):
            read_trace(path)

    @pytest.mark.parametrize("column, bad, message", [
        (None, None, "line 4: malformed"),
        (2, "x", "line 4: non-numeric pxB 'x'"),
        (27, "nan", "line 4: non-finite sd"),
        (1, "inf", "line 4: non-finite mu"),
        (0, "-inf", "line 4: non-finite t"),
        (2, "1_0", "line 4: non-numeric pxB '1_0'"),
        (0, "0.0_2", "line 4: non-numeric t '0.0_2'"),
    ])
    def test_bad_row_names_line_and_column(self, tmp_path, column, bad, message):
        path = tmp_path / "bad.trace"
        write_trace(path, sample_records())
        lines = path.read_text().splitlines()
        row = lines[3].split(",")
        if column is None:
            row.pop()
        else:
            row[column] = bad
        lines[3] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=message):
            read_trace(path)

    @pytest.mark.parametrize("column, bad", [(0, math.nan), (1, math.inf), (18, math.nan),
                                             (27, -math.inf)])
    def test_non_finite_value_refused_on_write(self, tmp_path, column, bad):
        records = sample_records()
        row = list(records[2])
        row[column] = bad
        records[2] = tuple(row)
        path = tmp_path / "bad.trace"
        with pytest.raises(ValueError) as err:
            write_trace(path, records)
        assert str(err.value) == f"record t={row[0]}: non-finite {FIELDS[column]} {bad}"
        assert not path.exists()

    def test_overflowing_row_sum_is_written(self, tmp_path):
        # The row's sum is inf, but every value in it is finite
        records = sample_records()
        records[2] = (records[2][0], 1e308, 1e308, *records[2][3:])
        path = tmp_path / "big.trace"
        write_trace(path, records)
        assert read_trace(path)[2]["pxB"] == 1e308

    def test_nan_command_refused_on_write(self, tmp_path):
        # A nan command passed in code reaches the lean tilt's sagittal column
        scenario = Scenario(duration=0.5, commands=[(0.2, GaitCommand(vx=math.nan))])
        records = run_closed_loop(ControllerConfig(), PlantConfig(), scenario).records
        with pytest.raises(ValueError, match=r"^record t=0\.2: non-finite pyl nan$"):
            write_trace(tmp_path / "nan.trace", records)


def test_numpy_float_replay_round_trips(tmp_path):
    """np.float64 inputs reach the trace as plain decimals and read back exactly."""
    f = np.float64
    samples = [
        ImuSample(f(0.01 * k), (f(0.01), f(-0.02 * k), f(0.0)), (f(0.1), f(0.0), f(9.81)))
        for k in range(1, 30)
    ]
    records = run_replay(ControllerConfig(), samples, [(0.0, GaitCommand(0.2))])
    path = tmp_path / "np.trace"
    write_trace(path, records)
    assert "np.float64" not in path.read_text()
    back = read_trace(path)
    assert [tuple(row.values()) for row in back] == records
