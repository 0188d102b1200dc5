"""Flat key-value configuration for the controller, plant and harness.

All quantities are dimensionless or SI. The file format is one `key = value`
per line, `#` comments allowed; keys are `controller.<field>` or
`plant.<field>`. Defaults ship in the record classes below and can be
printed with the CLI `--dump-config` flag.

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


class ControllerConfig(_Record):
    """Controller parameters, as `controller.<name>` keys in a config file."""

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

    def validate(self) -> None:
        _check_finite(self, "controller")

        def positive(*names):
            for n in names:
                if getattr(self, n) <= 0:
                    raise ConfigError(f"controller.{n} must be positive")

        # Past these limits a run asks for more cycles or plant substeps than
        # it can take, the ripple filter's pi / (f_nom * cycle_dt) cycles per
        # step or the crossing energy divide by zero, or the expected tilt,
        # which no walk takes beyond pi, or the plant's pendulum, which a
        # hip height above 1 speeds up, overflows tilt_quat; a WLBF window
        # takes O(n) to build
        for n, lo, hi, limit in (
            ("cycle_dt", 1e-3, 0.1, "lie in [0.001, 0.1]"),
            ("f_min", 0.1, math.inf, "be at least 0.1"),
            ("hh_height_hi", 0.0, 1.0, "lie in [0, 1]"),
            ("hh_height_lo", 0.0, 1.0, "lie in [0, 1]"),
            ("so_pendulum_c", 1e-3, math.inf, "be at least 0.001"),
            ("wave_amp_x", 0.0, math.pi, "lie in [0, pi]"),
            ("wave_amp_y", 0.0, math.pi, "lie in [0, pi]"),
            ("wave_offset_x", -math.pi, math.pi, "lie in [-pi, pi]"),
            ("wave_offset_y", -math.pi, math.pi, "lie in [-pi, pi]"),
            ("pd_wlbf_size", 1, MAX_WLBF_SIZE, f"lie in [1, {MAX_WLBF_SIZE}]"),
            ("lean_wlbf_size", 1, MAX_WLBF_SIZE, f"lie in [1, {MAX_WLBF_SIZE}]"),
            ("so_wlbf_size", 1, MAX_WLBF_SIZE, f"lie in [1, {MAX_WLBF_SIZE}]"),
        ):
            if not lo <= getattr(self, n) <= hi:
                raise ConfigError(f"controller.{n} must {limit}")
        positive(
            "f_nom", "f_min", "f_max",
            "pd_deadband_p_x", "pd_deadband_p_y", "pd_deadband_d_x", "pd_deadband_d_y",
            "arm_limit_x", "arm_limit_y", "arm_buffer",
            "foot_limit_x", "foot_limit_y", "foot_buffer",
            "i_clamp_x", "i_clamp_y", "i_bound_x", "i_bound_y", "i_buffer",
            "lean_slope_rate", "lean_limit", "lean_buffer",
            "so_deadband", "so_hold_time",
            "so_limit_x", "so_limit_y", "so_buffer",
            "sp_deadband_x", "sp_deadband_y", "sp_limit_x", "sp_limit_y", "sp_buffer",
            "tim_deadband", "hh_settle_time", "hh_slope_rate", "hh_height_rate",
        )
        # A negative feedback gain turns its correction into a push the same
        # way, the estimator's gains push away from gravity and a negative
        # bias limit inverts the bias clamp
        for n in ("arm_p_gain_lat", "arm_p_gain_sag", "arm_d_gain_lat", "arm_d_gain_sag",
                  "foot_p_gain_lat", "foot_p_gain_sag", "foot_d_gain_lat", "foot_d_gain_sag",
                  "i_gain", "i_cft_gain", "i_hip_gain", "so_gain", "sp_gain", "tim_gain",
                  "est_kp", "est_ki", "est_bias_limit"):
            if getattr(self, n) < 0:
                raise ConfigError(f"controller.{n} must be >= 0")
        # An empty gate accepts no accelerometer sample: the gyro alone drifts
        if self.est_acc_min_g >= self.est_acc_max_g:
            raise ConfigError("controller.est_acc_min_g must be below est_acc_max_g")
        for n in ("pd_mean_order", "sp_mean_order", "i_ripple_steps"):
            if getattr(self, n) < 1:
                raise ConfigError(f"controller.{n} must be >= 1")
        if self.i_ripple_steps % 2 != 0:
            raise ConfigError("controller.i_ripple_steps must be even")
        if not (self.f_min <= self.f_nom <= self.f_max):
            raise ConfigError("controller.f_nom must lie in [f_min, f_max]")
        # The plant's foot strikes and the gait phase wrap need a step below
        # half a cycle
        if self.f_max * self.cycle_dt >= math.pi:
            raise ConfigError("controller.f_max * cycle_dt must be below pi")
        for buf, lim_x, lim_y, name in (
            (self.arm_buffer, self.arm_limit_x, self.arm_limit_y, "arm_buffer"),
            (self.foot_buffer, self.foot_limit_x, self.foot_limit_y, "foot_buffer"),
            (self.i_buffer, self.i_bound_x, self.i_bound_y, "i_buffer"),
            (self.so_buffer, self.so_limit_x, self.so_limit_y, "so_buffer"),
            (self.sp_buffer, self.sp_limit_x, self.sp_limit_y, "sp_buffer"),
        ):
            if buf >= min(lim_x, lim_y):
                raise ConfigError(f"controller.{name} must be below the smallest semi-axis")
        if self.lean_buffer >= self.lean_limit:
            raise ConfigError("controller.lean_buffer must be below lean_limit")
        if not (self.so_crossing_px_l < 0.0 < self.so_crossing_px_r):
            raise ConfigError("controller.so_crossing_px_l < 0 < so_crossing_px_r required")
        if self.so_energy_min < 0.0:
            raise ConfigError("controller.so_energy_min must be >= 0")
        if self.hh_height_lo > self.hh_height_hi:
            raise ConfigError("controller.hh_height_lo must not exceed hh_height_hi")
        if self.hh_instability_lo >= self.hh_instability_hi:
            raise ConfigError("controller.hh_instability_lo must be below hh_instability_hi")
        if abs(self.py_nominal) >= math.pi / 2:
            raise ConfigError("controller.py_nominal must satisfy |py_nominal| < pi/2")
        if not (0.0 < self.double_support_width < math.pi):
            raise ConfigError("controller.double_support_width must be in (0, pi)")


class PlantConfig(_Record):
    """Surrogate plant parameters, as `plant.<name>` keys in a config file."""

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

    def validate(self) -> None:
        _check_finite(self, "plant")
        for n in ("pendulum_c", "gravity", "fall_angle", "impulse_scale"):
            if getattr(self, n) <= 0:
                raise ConfigError(f"plant.{n} must be positive")
        # A 0.1 s cycle then asks for at most 1e4 steps
        if self.substep_dt < 1e-5:
            raise ConfigError("plant.substep_dt must be at least 1e-05")
        # A cycle is at most 0.1 s, so a longer step changes nothing, while
        # at about 1e154 s the step constants overflow and rest turns to nan
        if self.substep_dt > 0.1:
            raise ConfigError("plant.substep_dt must be at most 0.1")
        # With these limits a cycle's acceleration and push stay finite, so
        # the tilt never overflows the IMU emission, which squares it
        if self.pendulum_c > 1e3:
            raise ConfigError("plant.pendulum_c must be at most 1000")
        if self.impulse_scale < 1e-6:
            raise ConfigError("plant.impulse_scale must be at least 1e-06")
        for n in ("couple_arm", "couple_foot", "couple_plane", "couple_swing_out",
                  "couple_cft", "couple_hip", "couple_lean"):
            if abs(getattr(self, n)) > 1e3:
                raise ConfigError(f"plant.{n} must lie in [-1000, 1000]")
        # A negative capture would throw the body away from the new pivot
        if self.strike_capture < 0.0:
            raise ConfigError("plant.strike_capture must be >= 0")
        for n in ("pivot_x_left", "pivot_x_right", "pivot_y"):
            if abs(getattr(self, n)) > math.pi:
                raise ConfigError(f"plant.{n} must lie in [-pi, pi]")
        if not (0.0 <= self.strike_restitution <= 1.0):
            raise ConfigError("plant.strike_restitution must lie in [0, 1]")
        if not (0.0 <= self.strike_reset <= 1.0):
            raise ConfigError("plant.strike_reset must lie in [0, 1]")
        if self.noise_gyro < 0 or self.noise_accel < 0:
            raise ConfigError("plant.noise_* must be >= 0")


_PREFIXES = {"controller": ControllerConfig, "plant": PlantConfig}
_TYPE_MAP = {"float": float, "int": int, "bool": bool}
_FIELD_TYPES = {
    prefix: {name: _TYPE_MAP.get(kind, float) for name, kind in fields(cls).items()}
    for prefix, cls in _PREFIXES.items()
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
    values: Dict[str, Dict[str, object]] = {"controller": {}, "plant": {}}
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
        section, name, value = resolve_setting(key, raw, f"line {lineno}: ")
        seen[key] = lineno
        values[section][name] = value
    ctrl = ControllerConfig(**values["controller"])
    plant = PlantConfig(**values["plant"])
    ctrl.validate()
    plant.validate()
    return ctrl, plant


def load_config(path) -> Tuple[ControllerConfig, PlantConfig]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_lines(fh)


def apply_overrides(ctrl: ControllerConfig, plant: PlantConfig, overrides: Dict[str, object]):
    """Apply `section.key -> value` overrides (e.g. from a scenario file)."""
    for key, value in overrides.items():
        section, name, value = resolve_setting(key, value, "override: ")
        setattr(ctrl if section == "controller" else plant, name, value)
    ctrl.validate()
    plant.validate()
    return ctrl, plant


def dump_config(ctrl: ControllerConfig, plant: PlantConfig) -> Iterator[str]:
    for prefix, cfg in (("controller", ctrl), ("plant", plant)):
        for name in fields(cfg):
            v = getattr(cfg, name)
            if isinstance(v, bool):
                v = "true" if v else "false"
            yield f"{prefix}.{name} = {v}"
