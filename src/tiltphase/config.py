"""Flat key-value configuration for the controller, plant and harness.

All quantities are dimensionless or SI. The file format is one `key = value`
per line, `#` comments allowed; keys are `controller.<field>` or
`plant.<field>`. Defaults ship in the record classes below (the CLI's
`--dump-config` prints them), and each field's limits in `_LIMITS`.

A record class (`_Record`) is a `__slots__` class built from its annotated
class body, as a dataclass would be, but without importing `dataclasses`
and `inspect` or generating code per class: those took about a quarter of
a cold start of the CLI.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, Tuple

from tiltphase.filters import MAX_WLBF_SIZE


class _RecordType(type):
    """Metaclass of `_Record`: the annotated names of a class body become the
    class's `__slots__` and fields, in declaration order, and their values in
    the body the defaults."""

    def __new__(mcs, name, bases, ns):
        types = ns.get("__annotations__", {})
        defaults = {n: ns.pop(n) for n in types if n in ns}
        cls = super().__new__(mcs, name, bases, {**ns, "__slots__": tuple(types)})
        cls._types = types
        cls._defaults = defaults
        return cls


class _Record(metaclass=_RecordType):
    """Base of the package's record classes: construction by position and
    keyword, with a fresh copy of a list or dict default and the class's
    `__post_init__` check after it; a `Name(field=value!r, ...)` repr,
    which tells -0.0 from 0.0 and 1 from 1.0; `==` field by field between
    records of one class. Records pickle through their slots."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        cls = type(self)
        name = cls.__name__
        values = dict(zip(cls._types, args))
        if len(values) < len(args):
            raise TypeError(f"{name} takes {len(values)} positional arguments, got {len(args)}")
        for key in kwargs:
            if key not in cls._types:
                raise TypeError(f"{name} got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{name} got multiple values for argument {key!r}")
        values.update(kwargs)
        for key in cls._types:
            if key in values:
                value = values[key]
            elif key in cls._defaults:
                value = cls._defaults[key]
                if type(value) in (list, dict):
                    value = value.copy()
            else:
                raise TypeError(f"{name} missing argument {key!r}")
            object.__setattr__(self, key, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __repr__(self):
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._types)
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return field_values(self) == field_values(other)


def fields(record) -> Dict[str, str]:
    """The fields of a record class or record, in declaration order, each
    with the text of its annotation ("float", "int", ...). Read only."""
    return record._types


def field_values(record) -> tuple:
    """A record's field values, in declaration order."""
    return tuple([getattr(record, n) for n in record._types])


def replace(record, **changes):
    """A new record of the same class with some fields changed; the class's
    `__post_init__` check runs on it."""
    return type(record)(**dict(zip(record._types, field_values(record)), **changes))


class ConfigError(ValueError):
    pass


def _check_finite(cfg, prefix: str) -> None:
    """Reject nan and inf in every float field; comparisons let them through."""
    for name, field_type in _FIELD_TYPES[prefix].items():
        if field_type is float and not math.isfinite(getattr(cfg, name)):
            raise ConfigError(f"{prefix}.{name} must be finite")


class _Config(_Record):
    """Base of the two configs: `validate` checks each float is finite, each field
    is within its `_LIMITS` row and each `_RELATIONS` entry holds, in that order."""

    def validate(self) -> None:
        section = self._section
        _check_finite(self, section)
        for name, least, most, even, message in _CHECKS[section]:
            value = getattr(self, name)
            if not least <= value <= most:
                raise ConfigError(message)
            if even and value % 2:
                raise ConfigError(f"{section}.{name} must be even")
        for holds, message in _RELATIONS[section]:
            if not holds(self):
                raise ConfigError(f"{section}.{message}")


class ControllerConfig(_Config):
    """Controller parameters, as `controller.<name>` keys in a config file."""

    _section = "controller"

    # Control cycle (nominal; used to size cycle-count filter windows)
    cycle_dt: float = 0.01

    # Gait phase and frequency bounds
    f_nom: float = 2.0 * math.pi
    f_min: float = 3.0
    f_max: float = 9.0
    py_nominal: float = 0.0
    double_support_width: float = 0.6

    # Expected tilt phase waveform (fitted to the plant in use; the shipped
    # surrogate plant walks in place with a flat nominal trajectory)
    wave_amp_x: float = 0.0
    wave_amp_y: float = 0.0
    wave_phase_x: float = 0.0
    wave_phase_y: float = 0.0
    wave_offset_x: float = 0.0
    wave_offset_y: float = 0.0

    # Attitude estimator
    est_kp: float = 2.0
    est_ki: float = 0.0
    est_bias_limit: float = 0.1
    est_acc_min_g: float = 0.5
    est_acc_max_g: float = 1.5

    # PD feedback (arm tilt, support foot tilt)
    pd_mean_order: int = 5
    pd_wlbf_size: int = 8
    pd_deadband_p_x: float = 0.02
    pd_deadband_p_y: float = 0.02
    pd_deadband_d_x: float = 0.15
    pd_deadband_d_y: float = 0.15
    arm_p_gain_lat: float = 1.0
    arm_p_gain_sag: float = 1.0
    arm_d_gain_lat: float = 0.15
    arm_d_gain_sag: float = 0.15
    arm_limit_x: float = 0.5
    arm_limit_y: float = 0.5
    arm_buffer: float = 0.1
    foot_p_gain_lat: float = 0.6
    foot_p_gain_sag: float = 0.6
    foot_d_gain_lat: float = 0.1
    foot_d_gain_sag: float = 0.1
    foot_limit_x: float = 0.25
    foot_limit_y: float = 0.25
    foot_buffer: float = 0.05

    # I feedback (continuous foot tilt, hip shift)
    i_gain: float = 1.0
    i_clamp_x: float = 0.05
    i_clamp_y: float = 0.05
    i_bound_x: float = 1.0
    i_bound_y: float = 1.0
    i_buffer: float = 0.1
    i_ripple_steps: int = 2
    i_cft_gain: float = 0.5
    i_hip_gain: float = 0.5

    # Feedforward leaning
    lean_wlbf_size: int = 10
    lean_slope_rate: float = 2.0
    # Signed: feedforward, so a negative gain leans the other way and reverses no correction
    lean_gain_vx: float = 0.1
    lean_gain_wz: float = 0.05
    lean_gain_ax: float = 0.05
    lean_limit: float = 0.3
    lean_buffer: float = 0.05

    # Swing out
    so_wlbf_size: int = 10
    so_pendulum_c: float = 2.0
    # Crossing points sit at the open-loop capture boundary of the default
    # plant: pushes that cannot be caught by stepping alone cross ~0.7 rad
    so_crossing_px_l: float = -0.7
    so_crossing_px_r: float = 0.7
    # Kept above the small crossing energies excited by ordinary stepping
    # ripple so the swing out only engages for genuinely escaping trajectories
    so_energy_min: float = 0.15
    so_deadband: float = 0.05
    so_gain: float = 1.0
    so_hold_time: float = 0.4
    so_max_rotation: float = 0.6
    so_sagittal_max: float = 0.15
    so_limit_x: float = 0.6
    so_limit_y: float = 0.4
    so_buffer: float = 0.1

    # Swing ground plane
    sp_mean_order: int = 5
    sp_deadband_x: float = 0.03
    sp_deadband_y: float = 0.03
    sp_gain: float = 1.0
    sp_limit_x: float = 0.3
    sp_limit_y: float = 0.3
    sp_buffer: float = 0.05

    # Step timing
    tim_gain: float = 2.0
    tim_deadband: float = 0.1

    # Maximum hip height
    hh_settle_time: float = 3.0
    hh_slope_rate: float = 1.0
    hh_instability_lo: float = 0.1
    hh_instability_hi: float = 0.5
    hh_height_hi: float = 1.0
    hh_height_lo: float = 0.9
    hh_height_rate: float = 0.05
    hh_sagittal_only: bool = False


class PlantConfig(_Config):
    """Surrogate plant parameters, as `plant.<name>` keys in a config file."""

    _section = "plant"

    pendulum_c: float = 2.0
    gravity: float = 9.81
    # One fifth-order Nystrom step per 10 ms cycle (8 sin); within 3.2e-12 of 0.1 ms steps
    substep_dt: float = 1e-2
    pivot_x_left: float = 0.0
    pivot_x_right: float = 0.0
    pivot_y: float = 0.0
    # Strike map: velocity scales by strike_restitution and the tilt offset
    # from the new pivot scales by strike_reset. Together they contract small
    # perturbations (spectral radius just under 1 for the nominal step period)
    # so periodic stepping alone gives an open-loop push threshold, while
    # large pushes still escape.
    strike_restitution: float = 0.3
    strike_reset: float = 0.4
    # A single step can correct at most this much tilt, so large excursions
    # outrun open-loop stepping and the plant falls
    strike_capture: float = 0.15
    fall_angle: float = math.pi / 2
    impulse_scale: float = 1.0
    noise_gyro: float = 0.0
    noise_accel: float = 0.0
    couple_arm: float = 3.0
    couple_foot: float = 6.0
    couple_plane: float = 2.0
    couple_swing_out: float = 4.0
    couple_cft: float = 1.0
    couple_hip: float = 0.5
    couple_lean: float = 0.5


# Each field's limits, one row per field in declaration order: an interval,
# whose "(" or ")" leaves that end out, with " even" if the value must also
# be even, or "" for none. Past them a run takes too many cycles or
# substeps, a filter window (in cycles, or in steps for the ripple filter)
# is too long for a WLBF to build or for a float to count, a filter or the
# crossing energy divides by zero, a tilt overflows tilt_quat or the IMU
# emission, or a gain pushes the wrong way (the feedforward lean gains stay
# signed) or so hard that its products overflow, as past the plant's couplings.
_POS, _NONNEG, _FREE, _WINDOW = "(0, inf)", "[0, inf)", "", f"[1, {MAX_WLBF_SIZE}]"
_GAIN = "[0, 1000]"
_LIMITS = {
    "controller": dict(
        cycle_dt="[0.001, 0.1]", f_nom=_POS, f_min="[0.1, inf)", f_max=_POS,
        py_nominal="(-pi/2, pi/2)", double_support_width="(0, pi)", wave_amp_x="[0, pi]",
        wave_amp_y="[0, pi]", wave_phase_x=_FREE, wave_phase_y=_FREE,
        wave_offset_x="[-pi, pi]", wave_offset_y="[-pi, pi]", est_kp=_NONNEG, est_ki=_NONNEG,
        est_bias_limit=_NONNEG, est_acc_min_g=_FREE, est_acc_max_g=_FREE,
        pd_mean_order=_WINDOW, pd_wlbf_size=_WINDOW, pd_deadband_p_x=_POS,
        pd_deadband_p_y=_POS, pd_deadband_d_x=_POS, pd_deadband_d_y=_POS,
        arm_p_gain_lat=_GAIN, arm_p_gain_sag=_GAIN, arm_d_gain_lat=_GAIN,
        arm_d_gain_sag=_GAIN, arm_limit_x=_POS, arm_limit_y=_POS, arm_buffer=_POS,
        foot_p_gain_lat=_GAIN, foot_p_gain_sag=_GAIN, foot_d_gain_lat=_GAIN,
        foot_d_gain_sag=_GAIN, foot_limit_x=_POS, foot_limit_y=_POS, foot_buffer=_POS,
        i_gain=_GAIN, i_clamp_x=_POS, i_clamp_y=_POS, i_bound_x=_POS, i_bound_y=_POS,
        i_buffer=_POS, i_ripple_steps=_WINDOW + " even", i_cft_gain=_GAIN, i_hip_gain=_GAIN,
        lean_wlbf_size=_WINDOW, lean_slope_rate=_POS, lean_gain_vx=_FREE, lean_gain_wz=_FREE,
        lean_gain_ax=_FREE, lean_limit=_POS, lean_buffer=_POS, so_wlbf_size=_WINDOW,
        so_pendulum_c="[0.001, inf)", so_crossing_px_l="(-inf, 0)", so_crossing_px_r=_POS,
        so_energy_min=_NONNEG, so_deadband=_POS, so_gain=_GAIN, so_hold_time=_POS,
        so_max_rotation=_FREE, so_sagittal_max=_FREE, so_limit_x=_POS, so_limit_y=_POS,
        so_buffer=_POS, sp_mean_order=_WINDOW, sp_deadband_x=_POS, sp_deadband_y=_POS,
        sp_gain=_GAIN, sp_limit_x=_POS, sp_limit_y=_POS, sp_buffer=_POS, tim_gain=_GAIN,
        tim_deadband=_POS, hh_settle_time=_POS, hh_slope_rate=_POS, hh_instability_lo=_FREE,
        hh_instability_hi=_FREE, hh_height_hi="[0, 1]", hh_height_lo="[0, 1]",
        hh_height_rate=_POS, hh_sagittal_only=_FREE,
    ),
    # A 0.1 s cycle takes at most 1e4 substeps and a longer substep changes
    # nothing, while at about 1e154 s the step constants overflow; a negative
    # capture would throw the body away from the new pivot
    "plant": dict(
        pendulum_c="(0, 1000]", gravity=_POS, substep_dt="[1e-05, 0.1]",
        pivot_x_left="[-pi, pi]", pivot_x_right="[-pi, pi]", pivot_y="[-pi, pi]",
        strike_restitution="[0, 1]", strike_reset="[0, 1]", strike_capture=_NONNEG,
        fall_angle=_POS, impulse_scale="[1e-06, inf)", noise_gyro=_NONNEG, noise_accel=_NONNEG,
        couple_arm="[-1000, 1000]", couple_foot="[-1000, 1000]", couple_plane="[-1000, 1000]",
        couple_swing_out="[-1000, 1000]", couple_cft="[-1000, 1000]",
        couple_hip="[-1000, 1000]", couple_lean="[-1000, 1000]",
    ),
}

# Relations between fields, each with its message, checked after the limits
_SEMI_AXIS = " must be below the smallest semi-axis"
_RELATIONS = {
    "controller": (
        # An empty gate accepts no accelerometer sample: the gyro alone drifts
        (lambda c: c.est_acc_min_g < c.est_acc_max_g, "est_acc_min_g must be below est_acc_max_g"),
        (lambda c: c.f_min <= c.f_nom <= c.f_max, "f_nom must lie in [f_min, f_max]"),
        # The plant's foot strikes and the gait phase wrap need a step below half a cycle
        (lambda c: c.f_max * c.cycle_dt < math.pi, "f_max * cycle_dt must be below pi"),
        (lambda c: c.arm_buffer < min(c.arm_limit_x, c.arm_limit_y), "arm_buffer" + _SEMI_AXIS),
        (lambda c: c.foot_buffer < min(c.foot_limit_x, c.foot_limit_y), "foot_buffer" + _SEMI_AXIS),
        (lambda c: c.i_buffer < min(c.i_bound_x, c.i_bound_y), "i_buffer" + _SEMI_AXIS),
        (lambda c: c.so_buffer < min(c.so_limit_x, c.so_limit_y), "so_buffer" + _SEMI_AXIS),
        (lambda c: c.sp_buffer < min(c.sp_limit_x, c.sp_limit_y), "sp_buffer" + _SEMI_AXIS),
        (lambda c: c.lean_buffer < c.lean_limit, "lean_buffer must be below lean_limit"),
        (lambda c: c.hh_height_lo <= c.hh_height_hi, "hh_height_lo must not exceed hh_height_hi"),
        (lambda c: c.hh_instability_lo < c.hh_instability_hi,
         "hh_instability_lo must be below hh_instability_hi"),
    ),
    "plant": (),
}
_NAMED_ENDS = {"pi": math.pi, "-pi": -math.pi, "pi/2": math.pi / 2, "-pi/2": -math.pi / 2}
_WORDS = {_POS: "be positive", "(-inf, 0)": "be negative"}


def _rendered(interval: str) -> str:
    """What a value outside the interval must do, as its error says."""
    if interval in _WORDS:
        return _WORDS[interval]
    if interval[0] == "[" and interval.endswith(", inf)"):
        return f"be >= {interval[1:-6]}"
    return f"lie in {interval}"


def _checks(section: str) -> list:
    """(name, least, most, even, message) of each field with limits. An open
    finite end becomes the float next to it inside, so a value is within
    its limits when least <= value <= most."""
    checks = []
    for name, row in _LIMITS[section].items():
        if row:
            interval = row.removesuffix(" even")
            lo, hi = (_NAMED_ENDS.get(e) or float(e) for e in interval[1:-1].split(", "))
            lo = math.nextafter(lo, math.inf) if interval[0] == "(" and lo > -math.inf else lo
            hi = math.nextafter(hi, -math.inf) if interval[-1] == ")" and hi < math.inf else hi
            message = f"{section}.{name} must {_rendered(interval)}"
            checks.append((name, lo, hi, row != interval, message))
    return checks


_CHECKS = {section: _checks(section) for section in _LIMITS}

_TYPE_MAP = {"float": float, "int": int, "bool": bool}
_FIELD_TYPES = {
    cls._section: {name: _TYPE_MAP.get(kind, float) for name, kind in fields(cls).items()}
    for cls in (ControllerConfig, PlantConfig)
}


def parse_number(raw: str, kind=float):
    """Text as kind (int or float); ValueError if it is not one. Digit-group
    underscores are refused, though int() and float() read "1_0" as 10."""
    if "_" in raw:
        raise ValueError(f"digit-group underscore in {raw!r}")
    return kind(raw)


def coerce(field_type, value, key: str):
    """Convert a config-file string, a scenario JSON value or a CLI flag value
    to field_type (bool, int or float); `key` names it in the error.

    Non-string values go through their text form, so `false` and `2.7` are
    judged exactly as they would be in a config file.
    """
    raw = str(value).strip()
    if field_type is bool:
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    kind = "an integer" if field_type is int else "a number"
    try:
        return parse_number(raw, field_type)
    except ValueError:
        raise ConfigError(f"{key}: expected {kind}, got {raw!r}") from None


def resolve_setting(key: str, value, where: str) -> Tuple[str, str, object]:
    """(section, field name, value as the field's type) of a `section.key`
    setting from a config file line, a scenario's config or an override;
    `where` starts each error."""
    section, dot, name = key.partition(".")
    if not dot:
        raise ConfigError(f"{where}key {key!r} must be 'controller.x' or 'plant.x'")
    if section not in _FIELD_TYPES:
        raise ConfigError(f"{where}unknown section {section!r}")
    types = _FIELD_TYPES[section]
    if name not in types:
        raise ConfigError(f"{where}unknown key {key!r}")
    return section, name, coerce(types[name], value, f"{where}{key}")


def parse_config_lines(lines) -> Tuple[ControllerConfig, PlantConfig]:
    values: Dict[str, str] = {}
    seen: Dict[str, int] = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {text!r}")
        key, raw = (s.strip() for s in text.split("=", 1))
        # Only a key that resolved is in seen
        if key in seen:
            raise ConfigError(f"line {lineno}: key {key!r} already given on line {seen[key]}")
        resolve_setting(key, raw, f"line {lineno}: ")
        seen[key] = lineno
        values[key] = raw
    return apply_overrides(ControllerConfig(), PlantConfig(), values, "")


def load_config(path) -> Tuple[ControllerConfig, PlantConfig]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_config_lines(fh)
        except ValueError as err:  # a ConfigError, or bytes that are not UTF-8
            raise ConfigError(f"{path}: {err}") from None


def apply_overrides(ctrl: ControllerConfig, plant: PlantConfig, overrides: Dict[str, object],
                    where: str):
    """Apply `section.key -> value` settings (a config file's lines, a
    scenario's config) and validate the result; `where` starts each error."""
    try:
        for key, value in overrides.items():
            section, name, value = resolve_setting(key, value, "")
            setattr(ctrl if section == "controller" else plant, name, value)
        ctrl.validate()
        plant.validate()
    except ConfigError as err:
        raise ConfigError(f"{where}{err}") from None
    return ctrl, plant


def dump_config(ctrl: ControllerConfig, plant: PlantConfig) -> Iterator[str]:
    for prefix, cfg in (("controller", ctrl), ("plant", plant)):
        for name in fields(cfg):
            v = getattr(cfg, name)
            if isinstance(v, bool):
                v = "true" if v else "false"
            yield f"{prefix}.{name} = {v}"
