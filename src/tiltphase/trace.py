"""Line-delimited trace records, one per controller cycle.

A trace file starts with a schema header line `# tiltphase-trace v1` and a
field-name comment, followed by comma-separated records in the field order
below. Values are written with `str`, which for a float is its shortest
round-tripping form, so replays are byte-reproducible.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Tuple

from tiltphase.controller import ActivationSet

SCHEMA = "tiltphase-trace v1"

# Each traced ActivationSet field and its columns, in trace order;
# deviation_mean is not traced
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
# (ActivationSet index, number of columns); a renamed field fails here
_LAYOUT = tuple((ActivationSet._fields.index(f), len(cols)) for f, cols in COLUMNS.items())


def record_values(t: float, act: ActivationSet) -> tuple:
    row = [t]
    for i, width in _LAYOUT:
        if width == 1:
            row.append(act[i])
        else:
            row.extend(act[i])
    row.append("|".join(act.flags))
    return tuple(row)


def format_record(values: tuple) -> str:
    return ",".join(map(str, values))


def write_trace(path, records: List[tuple], csv: bool = False) -> None:
    """Write records (from `record_values`) to path as a trace or plain CSV.

    Raises ValueError, naming the record's t and the column, before the file
    is opened if any value is non-finite, since `read_trace` refuses it.
    """
    isfinite = math.isfinite
    for rec in records:
        # One sum per record; only a non-finite (or overflowing) sum is scanned
        if not isfinite(sum(rec[:-1])):
            for name, v in zip(FIELDS, rec[:-1]):
                if not isfinite(v):
                    raise ValueError(f"record t={rec[0]}: non-finite {name} {v}")
    header = ",".join(FIELDS) if csv else f"# {SCHEMA}\n# " + ",".join(FIELDS)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for rec in records:
            fh.write(format_record(rec) + "\n")


def csv_rows(path, n_fields: int) -> Iterator[Tuple[int, List[str]]]:
    """(line number, fields) of each row; blank, `#` and `t,...` header lines are skipped."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#") or text.startswith("t,"):
                continue
            parts = text.split(",")
            if len(parts) != n_fields:
                raise ValueError(f"line {lineno}: malformed row: {len(parts)} fields, not {n_fields}")
            yield lineno, parts


def finite_float(raw: str, name: str, lineno: int) -> float:
    """Field `name` of line `lineno` as a finite float."""
    try:
        if "_" in raw:  # float() reads digit-group underscores: "1_0" is 10.0
            raise ValueError
        v = float(raw)
    except ValueError:
        raise ValueError(f"line {lineno}: non-numeric {name} {raw!r}") from None
    if not math.isfinite(v):
        raise ValueError(f"line {lineno}: non-finite {name} {v}")
    return v


def read_trace(path) -> List[dict]:
    """Trace records as dicts keyed by FIELDS; flags stays a string."""
    out = []
    for lineno, parts in csv_rows(path, len(FIELDS)):
        rec = {name: finite_float(raw, name, lineno) for name, raw in zip(FIELDS[:-1], parts)}
        rec["flags"] = parts[-1]
        out.append(rec)
    return out
