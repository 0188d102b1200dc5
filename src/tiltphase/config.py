"""Flat key-value configuration for the controller, plant and harness.

All quantities are dimensionless or SI. The file format is one `key = value`
per line, `#` comments allowed; keys are `controller.<field>` or
`plant.<field>`. Defaults ship in the dataclasses below and can be printed
with the CLI `--dump-config` flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Dict, Iterator, Tuple


class ConfigError(ValueError):
    pass


def _check_finite(cfg, prefix: str) -> None:
    """Reject nan and inf in every float field; comparisons let them through."""
    for name, field_type in _FIELD_TYPES[prefix].items():
        if field_type is float and not math.isfinite(getattr(cfg, name)):
            raise ConfigError(f"{prefix}.{name} must be finite")


@dataclass
class ControllerConfig:
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

        positive(
            "cycle_dt", "f_nom", "f_min", "f_max",
            "pd_deadband_p_x", "pd_deadband_p_y", "pd_deadband_d_x", "pd_deadband_d_y",
            "arm_limit_x", "arm_limit_y", "arm_buffer",
            "foot_limit_x", "foot_limit_y", "foot_buffer",
            "i_clamp_x", "i_clamp_y", "i_bound_x", "i_bound_y", "i_buffer",
            "lean_slope_rate", "lean_limit", "lean_buffer",
            "so_pendulum_c", "so_deadband", "so_hold_time",
            "so_limit_x", "so_limit_y", "so_buffer",
            "sp_deadband_x", "sp_deadband_y", "sp_limit_x", "sp_limit_y", "sp_buffer",
            "tim_deadband", "hh_settle_time", "hh_slope_rate", "hh_height_rate",
        )
        for n in ("pd_mean_order", "pd_wlbf_size", "lean_wlbf_size", "so_wlbf_size",
                  "sp_mean_order", "i_ripple_steps"):
            if getattr(self, n) < 1:
                raise ConfigError(f"controller.{n} must be >= 1")
        if self.i_ripple_steps % 2 != 0:
            raise ConfigError("controller.i_ripple_steps must be even")
        if not (self.f_min <= self.f_nom <= self.f_max):
            raise ConfigError("controller.f_nom must lie in [f_min, f_max]")
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
        if self.wave_amp_x < 0.0 or self.wave_amp_y < 0.0:
            raise ConfigError("controller.wave_amp_* must be >= 0")
        if self.hh_height_lo > self.hh_height_hi:
            raise ConfigError("controller.hh_height_lo must not exceed hh_height_hi")
        if self.hh_instability_lo >= self.hh_instability_hi:
            raise ConfigError("controller.hh_instability_lo must be below hh_instability_hi")
        if abs(self.py_nominal) >= math.pi / 2:
            raise ConfigError("controller.py_nominal must satisfy |py_nominal| < pi/2")
        if not (0.0 < self.double_support_width < math.pi):
            raise ConfigError("controller.double_support_width must be in (0, pi)")


@dataclass
class PlantConfig:
    pendulum_c: float = 2.0
    gravity: float = 9.81
    substep_dt: float = 1e-3
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
        for n in ("pendulum_c", "gravity", "substep_dt", "fall_angle", "impulse_scale"):
            if getattr(self, n) <= 0:
                raise ConfigError(f"plant.{n} must be positive")
        if not (0.0 <= self.strike_restitution <= 1.0):
            raise ConfigError("plant.strike_restitution must lie in [0, 1]")
        if not (0.0 <= self.strike_reset <= 1.0):
            raise ConfigError("plant.strike_reset must lie in [0, 1]")
        if self.noise_gyro < 0 or self.noise_accel < 0:
            raise ConfigError("plant.noise_* must be >= 0")


_PREFIXES = {"controller": ControllerConfig, "plant": PlantConfig}
_TYPE_MAP = {"float": float, "int": int, "bool": bool}
_FIELD_TYPES = {
    prefix: {f.name: _TYPE_MAP.get(f.type, float) for f in fields(cls)}
    for prefix, cls in _PREFIXES.items()
}


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
        if "_" in raw:  # int() and float() read digit-group underscores: "1_0" is 10
            raise ValueError
        return field_type(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected {kind}, got {raw!r}") from None


def parse_config_lines(lines) -> Tuple[ControllerConfig, PlantConfig]:
    values: Dict[str, Dict[str, object]] = {"controller": {}, "plant": {}}
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {text!r}")
        key, raw = (s.strip() for s in text.split("=", 1))
        if "." not in key:
            raise ConfigError(f"line {lineno}: key {key!r} must be 'controller.x' or 'plant.x'")
        prefix, name = key.split(".", 1)
        if prefix not in _PREFIXES:
            raise ConfigError(f"line {lineno}: unknown section {prefix!r}")
        if name not in _FIELD_TYPES[prefix]:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        values[prefix][name] = coerce(_FIELD_TYPES[prefix][name], raw, f"line {lineno}: {key}")
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
        if "." not in key:
            raise ConfigError(f"override key {key!r} must be 'controller.x' or 'plant.x'")
        prefix, name = key.split(".", 1)
        types = _FIELD_TYPES.get(prefix, {})
        if name not in types:
            raise ConfigError(f"unknown override key {key!r}")
        cfg = ctrl if prefix == "controller" else plant
        setattr(cfg, name, coerce(types[name], value, key))
    ctrl.validate()
    plant.validate()
    return ctrl, plant


def dump_config(ctrl: ControllerConfig, plant: PlantConfig) -> Iterator[str]:
    for prefix, cfg in (("controller", ctrl), ("plant", plant)):
        for f in fields(cfg):
            v = getattr(cfg, f.name)
            if isinstance(v, bool):
                v = "true" if v else "false"
            yield f"{prefix}.{f.name} = {v}"
