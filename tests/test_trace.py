import math
import os
import re
import signal
import threading
from pathlib import Path

import numpy as np
import pytest

import tiltphase.trace as T
from tiltphase.config import ControllerConfig
from tiltphase.controller import ActivationSet, GaitCommand, TiltPhaseController
from tiltphase.estimator import ImuSample
from tiltphase.harness import run_replay
from tiltphase.trace import (
    COLUMNS,
    FIELDS,
    SCHEMA,
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

    def test_every_field_but_flags_is_traced(self):
        assert set(COLUMNS) == set(ActivationSet._fields) - {"flags"}

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
    def test_record_values_is_the_columns_layout(self):
        """Every ActivationSet value distinct: the record is t, then each
        COLUMNS field's values in order, then the flags."""
        values = iter(float(k) + 0.5 for k in range(100))
        act = ActivationSet(**{
            name: tuple(next(values) for _ in default) if isinstance(default, tuple)
            else next(values)
            for name, default in ActivationSet._field_defaults.items() if name != "flags"
        }, flags=("x", "y", "z"))
        want = [7.25]
        for name, cols in COLUMNS.items():
            value = getattr(act, name)
            want.extend(value if len(cols) > 1 else (value,))
        want.append("x|y|z")
        assert record_values(7.25, act) == tuple(want)

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
        assert read_trace(path) == records  # repr round trips floats exactly

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
        assert read_trace(path)[2][FIELDS.index("pxB")] == 1e308

    def test_nan_command_refused_on_write(self, tmp_path):
        # A nan in the lean tilt's sagittal column from t=0.2 on
        cfg = ControllerConfig()
        ctrl = TiltPhaseController(cfg)
        records = []
        for k in range(1, 51):
            t = k * cfg.cycle_dt
            act = ctrl.step(ImuSample(t, (0.0, 0.0, 0.0), (0.0, 0.0, 9.81)), GaitCommand(),
                            cfg.cycle_dt)
            if t >= 0.2:
                act = act._replace(lean_tilt=(0.0, math.nan))
            records.append(record_values(t, act))
        with pytest.raises(ValueError, match=r"^record t=0\.2: non-finite pyl nan$"):
            write_trace(tmp_path / "nan.trace", records)


def test_readme_trace_format_is_the_writers(tmp_path):
    """README's Trace format shows the two header lines `write_trace` writes
    and lists FIELDS, in order, in its column table."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Trace format\n", 1)[1].split("\n## ", 1)[0]
    path = tmp_path / "empty.trace"
    write_trace(path, [])
    assert section.split("```")[1].strip("\n").splitlines() == path.read_text().splitlines()
    listed = [name for line in section.splitlines() if line.startswith("| `")
              for name in re.findall(r"`(\w+)`", line.split("|")[1])]
    assert listed == list(FIELDS)


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
    assert read_trace(path) == records


def long_records(n):
    """n records of np.float64 values, some with one flag and some with two."""
    f = np.float64
    records = []
    for k in range(n):
        act = ActivationSet(
            arm_tilt=(f(0.1 * k), f(-0.05 * k)),
            gait_frequency=f(2.0 * math.pi + 0.001 * k),
            mu=f((0.113 * k) % 3.0),
            deviation=(f(1e-17 * k), f(-0.3)),
            flags=(("deviation_degenerate",) if k % 7 == 3
                   else ("replay_gap", "imu_nonfinite") if k % 11 == 0 else ()),
        )
        records.append(record_values(f(0.01 * (k + 1)), act))
    return records


def one_process_bytes(tmp_path, records, csv=False):
    """What write_trace writes with its split at len(records): no child."""
    path = tmp_path / "one.trace"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "_SPLIT_MIN", len(records) + 1)
        write_trace(path, records, csv=csv)
    return path.read_bytes()


def header_lines(csv=False):
    return [",".join(FIELDS)] if csv else [f"# {SCHEMA}", "# " + ",".join(FIELDS)]


@pytest.fixture
def forks(monkeypatch):
    """The pid of each child os.fork makes during the test."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


@pytest.fixture
def no_fork(monkeypatch):
    def fork():
        raise AssertionError("write_trace forked")

    monkeypatch.setattr(os, "fork", fork)


class TestSplitWriter:
    """A forked child formats the second half of a long trace; the bytes
    are those of the same loop run by one process."""

    @pytest.mark.parametrize("n, csv", [
        (2 * T._SPLIT_MIN, True), (2 * T._SPLIT_MIN + 1, False), (T._SPLIT_MIN, False),
    ], ids=["twice_the_minimum_csv", "odd_count", "the_minimum"])
    def test_split_bytes_are_one_process_bytes(self, tmp_path, forks, n, csv):
        records = long_records(n)
        path = tmp_path / "split.trace"
        write_trace(path, records, csv=csv)
        assert len(forks) == 1
        assert path.read_bytes() == one_process_bytes(tmp_path, records, csv)

    def test_records_on_each_side_of_the_split(self, tmp_path, forks):
        n = 2 * T._SPLIT_MIN + 1
        records = long_records(n)
        path = tmp_path / "split.trace"
        write_trace(path, records)
        assert len(forks) == 1
        lines = path.read_text().splitlines()
        assert len(lines) == 2 + n
        body = lines[2:]
        for k in (0, n // 2 - 1, n // 2, n - 1):
            assert body[k] == format_record(records[k])
        assert read_trace(path) == records

    def test_short_trace_is_written_by_one_process(self, tmp_path, no_fork):
        records = long_records(T._SPLIT_MIN - 1)
        path = tmp_path / "short.trace"
        write_trace(path, records)
        assert path.read_text().splitlines() == header_lines() + [
            format_record(rec) for rec in records]

    def test_child_failure_raises_and_is_reaped(self, tmp_path, forks):
        parent = os.getpid()

        class ChildBomb(float):
            def __str__(self):
                if os.getpid() != parent:
                    raise RuntimeError("formatted in the child")
                return float.__repr__(self)

        records = long_records(2 * T._SPLIT_MIN)
        records[-1] = (ChildBomb(records[-1][0]), *records[-1][1:])
        path = tmp_path / "bad.trace"
        with pytest.raises(OSError, match="exited with status 1$"):
            write_trace(path, records)
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        # The child wrote nothing: the file holds the first half only
        assert path.read_text().splitlines() == header_lines() + [
            format_record(rec) for rec in records[:T._SPLIT_MIN]]

    def test_parent_failure_propagates_and_child_writes_nothing(self, tmp_path, forks):
        parent = os.getpid()

        class ParentBomb(float):
            def __str__(self):
                if os.getpid() == parent:
                    raise RuntimeError("formatted in the parent")
                return float.__repr__(self)

        records = long_records(2 * T._SPLIT_MIN)
        records[0] = (ParentBomb(records[0][0]), *records[0][1:])
        # More than a pipe holds: the child blocks on the pipe until this
        # process closes its end, which it must do before waiting for it
        assert len("".join(format_record(rec) + "\n" for rec in records[T._SPLIT_MIN:])) > 1 << 16
        path = tmp_path / "bad.trace"

        def hung(signum, frame):
            raise TimeoutError("write_trace waits for a child blocked on the pipe")

        handler = signal.signal(signal.SIGALRM, hung)
        signal.alarm(30)
        try:
            with pytest.raises(RuntimeError, match="formatted in the parent"):
                write_trace(path, records)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, handler)
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert path.read_text().splitlines() == header_lines()

    def test_non_finite_record_refused_before_any_fork(self, tmp_path, no_fork):
        records = long_records(2 * T._SPLIT_MIN)
        records[-1] = (*records[-1][:5], math.nan, *records[-1][6:])
        path = tmp_path / "nan.trace"
        with pytest.raises(ValueError, match=r"non-finite pyE nan$"):
            write_trace(path, records)
        assert not path.exists()

    def test_fork_failure_raises_and_closes_the_pipe(self, tmp_path, monkeypatch):
        def fork():
            raise OSError("no fork here")

        monkeypatch.setattr(os, "fork", fork)
        fds = os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd") else None
        with pytest.raises(OSError, match="no fork here"):
            write_trace(tmp_path / "run.trace", long_records(T._SPLIT_MIN))
        if fds is not None:
            assert os.listdir("/proc/self/fd") == fds

    def test_second_live_thread_writes_without_forking(self, tmp_path, no_fork):
        records = long_records(2 * T._SPLIT_MIN)
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(10.0,))
        thread.start()
        try:
            path = tmp_path / "threaded.trace"
            write_trace(path, records)
        finally:
            release.set()
            thread.join(10.0)
        assert not thread.is_alive()
        assert path.read_bytes() == one_process_bytes(tmp_path, records)

    def test_one_allowed_cpu_writes_without_forking(self, tmp_path, monkeypatch, no_fork):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        records = long_records(2 * T._SPLIT_MIN)
        path = tmp_path / "one_cpu.trace"
        write_trace(path, records)
        assert path.read_bytes() == one_process_bytes(tmp_path, records)

    @pytest.mark.parametrize("name", ["fork", "sched_getaffinity"])
    def test_missing_call_writes_without_forking(self, tmp_path, monkeypatch, name):
        records = long_records(2 * T._SPLIT_MIN)
        expected = one_process_bytes(tmp_path, records)
        monkeypatch.delattr(os, name, raising=False)
        if name != "fork":
            monkeypatch.setattr(os, "fork", lambda: pytest.fail("write_trace forked"))
        path = tmp_path / "no_fork.trace"
        write_trace(path, records)
        assert path.read_bytes() == expected
