"""Line-delimited trace records, one per controller cycle.

A trace file starts with a schema header line `# tiltphase-trace v1` and a
field-name comment, followed by comma-separated records in the field order
below. Values are written with `str`, which for a float is its shortest
round-tripping form, so replays are byte-reproducible.

A long trace is formatted by two processes: a child made with `os.fork`
formats the second half of the records into a pipe and exits, while this
process writes the header and the first half; this process then copies
the pipe into the file, so it alone writes the file. The bytes are those
one process writes. One process writes the whole trace below
`_SPLIT_MIN` records, on a single allowed CPU, while another thread is
alive, or where `os.fork` or `os.sched_getaffinity` is missing. On a
2-core x86 host with Python 3.11 a 6000-record replay trace took 89 ms
to write instead of 120 ms (medians of 25 alternating writes); the copy
through the pipe adds about 1 ms.
"""

from __future__ import annotations

import math
import os
import threading
from typing import Iterator, List, Tuple

from tiltphase.config import parse_number
from tiltphase.controller import ActivationSet

SCHEMA = "tiltphase-trace v1"

# Records from which a forked child formats half of a trace: below this
# the fork costs more than the child saves
_SPLIT_MIN = 500

# Each traced ActivationSet field and its columns, in trace order
COLUMNS = {
    "mu": ("mu",), "body_tilt": ("pxB", "pyB"), "expected_tilt": ("pxE", "pyE"),
    "deviation": ("pxd", "pyd"), "arm_tilt": ("pxa", "pya"),
    "support_foot_tilt": ("pxs", "pys"), "continuous_foot_tilt": ("pxc", "pyc"),
    "hip_shift": ("sx", "sy"), "max_hip_height": ("hmax",), "lean_tilt": ("pxl", "pyl"),
    "swing_out_tilt": ("pxo", "pyo"), "swing_ground_plane": ("pxS", "pyS"),
    "gait_frequency": ("fg",), "crossing_energy_left": ("EL",), "crossing_energy_right": ("ER",),
    "instability": ("inst",), "deviation_speed": ("sd",),
}
FIELDS = ("t", *(c for cols in COLUMNS.values() for c in cols), "flags")


def record_values(t: float, act: ActivationSet) -> tuple:
    """The trace record of one cycle: t, the COLUMNS of act in order, the
    flags joined by "|". One tuple display, which a test checks against
    COLUMNS."""
    (arm, foot, cft, hip, hmax, lean, so, plane, fg, mu, body, expected, dev, e_l, e_r, inst,
     sd, flags) = act
    return (
        t, mu, body[0], body[1], expected[0], expected[1], dev[0], dev[1], arm[0], arm[1],
        foot[0], foot[1], cft[0], cft[1], hip[0], hip[1], hmax, lean[0], lean[1],
        so[0], so[1], plane[0], plane[1], fg, e_l, e_r, inst, sd, "|".join(flags),
    )


def format_record(values: tuple) -> str:
    return ",".join(map(str, values))


def _formatting_child(records: List[tuple]) -> Tuple[int, int]:
    """Fork a child that writes the formatted records into a pipe and exits,
    with status 0 once all are written: its pid and the pipe's read end."""
    tail_r, tail_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(tail_r)
        os.close(tail_w)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(tail_r)
            data = "".join([format_record(rec) + "\n" for rec in records]).encode("utf-8")
            with open(tail_w, "wb") as out:
                out.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(tail_w)
    return pid, tail_r


def write_trace(path, records: List[tuple], csv: bool = False) -> None:
    """Write records (from `record_values`) to path as a trace or plain CSV.

    Raises ValueError, naming the record's t and the column, before the file
    is opened if any value is non-finite, since `read_trace` refuses it.
    Raises OSError if the forked child formatting the second half fails.
    """
    isfinite = math.isfinite
    for rec in records:
        # One sum per record; only a non-finite (or overflowing) sum is scanned
        if not isfinite(sum(rec[:-1])):
            for name, v in zip(FIELDS, rec[:-1]):
                if not isfinite(v):
                    raise ValueError(f"record t={rec[0]}: non-finite {name} {v}")
    header = ",".join(FIELDS) if csv else f"# {SCHEMA}\n# " + ",".join(FIELDS)
    n = len(records)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        if (n < _SPLIT_MIN or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
                or len(os.sched_getaffinity(0)) < 2 or threading.active_count() > 1):
            for rec in records:
                fh.write(format_record(rec) + "\n")
            return
        pid, tail = _formatting_child(records[n // 2:])
        try:
            for rec in records[:n // 2]:
                fh.write(format_record(rec) + "\n")
            fh.flush()
            # In 64 KiB chunks: this process never holds the whole second half
            while chunk := os.read(tail, 1 << 16):
                fh.buffer.write(chunk)
        finally:
            os.close(tail)  # a child blocked on the full pipe then fails and exits
            status = os.waitpid(pid, 0)[1]
        if status:
            raise OSError(f"{fh.name}: the process writing the trace's second half exited "
                          f"with status {os.waitstatus_to_exitcode(status)}")


def csv_rows(path, names: Tuple[str, ...], *, flags: bool) -> Iterator[Tuple[int, tuple]]:
    """(line number, row) of each row of the CSV file at path: a finite float
    per name, then with flags the text of one more field. Blank, `#` and
    `t,...` header lines are skipped; each error starts with path."""
    width = len(names) + flags
    with open(path, "r", encoding="utf-8") as fh:
        try:  # around the reads too, which refuse bytes that are not UTF-8
            for lineno, line in enumerate(fh, start=1):
                text = line.strip()
                if not text or text.startswith("#") or text.startswith("t,"):
                    continue
                parts = text.split(",")
                if len(parts) != width:
                    raise ValueError(f"line {lineno}: malformed row: {len(parts)} fields, not {width}")
                values = tuple(finite_float(raw, name, lineno) for name, raw in zip(names, parts))
                yield lineno, (*values, parts[-1]) if flags else values
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def finite_float(raw: str, name: str, lineno: int) -> float:
    """Field `name` of line `lineno` as a finite float."""
    try:
        v = parse_number(raw)
    except ValueError:
        raise ValueError(f"line {lineno}: non-numeric {name} {raw!r}") from None
    if not math.isfinite(v):
        raise ValueError(f"line {lineno}: non-finite {name} {v}")
    return v


def read_trace(path) -> List[tuple]:
    """The records of a trace or CSV file, as `record_values` builds them."""
    return [row for _, row in csv_rows(path, FIELDS[:-1], flags=True)]
