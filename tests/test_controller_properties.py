"""Property tests of the coercion bounds: scalar and 2D soft coercion, and the
controller's outputs for any plausible IMU input and, in a pushed closed
loop, for zero or tiny PD gains, for tiny or huge semi-axes and deadbands,
and for non-finite inputs, which the controller holds.

Needs Hypothesis (the `test` extra); skipped where it is not installed.
"""

import math
from collections import deque

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as hs  # noqa: E402

from tiltphase.config import (  # noqa: E402
    _CHECKS, ConfigError, ControllerConfig, PlantConfig, fields,
)
from tiltphase.controller import ActivationSet, GaitCommand, TiltPhaseController  # noqa: E402
from tiltphase.estimator import ImuSample  # noqa: E402
from tiltphase.filters import soft_coerce2, soft_coerce_1d  # noqa: E402
from tiltphase.plant import Disturbance, SurrogatePlant  # noqa: E402
from tiltphase.trace import record_values  # noqa: E402

# Same tolerance as the benchmark's trace check (perfbench/workloads.py)
TOL = 1e-9

_FINITE = hs.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=1000, deadline=None)
@given(
    x=hs.one_of(hs.sampled_from([0.0, -0.0, 5e-324, -1e-310, 1e300, -1.7e308]), _FINITE),
    limit=hs.floats(1e-3, 1e3),
    frac=hs.floats(0.01, 0.99),
)
def test_soft_coerce_1d_strictly_inside(x, limit, frac):
    y = soft_coerce_1d(x, limit, frac * limit)
    assert -limit < y < limit


@settings(max_examples=1000, deadline=None)
@given(
    x0=_FINITE,
    x1=_FINITE,
    a0=hs.floats(1e-3, 1e3),
    a1=hs.floats(1e-3, 1e3),
    frac=hs.floats(0.01, 0.99),
)
@example(-4.868, 3.375, 0.5, 0.5, 0.2)
@example(2.723, -4.731, 0.5, 0.5, 0.2)
@example(3e200, 1e200, 0.5, 0.5, 0.6)
@example(-1.7e308, 1.7e308, 1e3, 1e-3, 0.5)
def test_soft_coerce2_inside_its_ellipse(x0, x1, a0, a1, frac):
    y0, y1 = soft_coerce2(x0, x1, a0, a1, frac * min(a0, a1))
    assert (y0 / a0) * (y0 / a0) + (y1 / a1) * (y1 / a1) <= 1.0


def _anisotropic():
    return ControllerConfig(
        arm_limit_x=0.5, arm_limit_y=0.2, arm_buffer=0.05,
        foot_limit_x=0.1, foot_limit_y=0.3, foot_buffer=0.05,
        i_bound_x=0.4, i_bound_y=1.2,
        so_limit_x=0.6, so_limit_y=0.1, so_buffer=0.05,
        sp_limit_x=0.05, sp_limit_y=0.3, sp_buffer=0.02,
    )


_CONFIGS = {"defaults": ControllerConfig(), "anisotropic": _anisotropic()}

_GYRO = hs.floats(-50.0, 50.0)
_ACCEL = hs.floats(-30.0, 30.0)
_CYCLE = hs.tuples(
    hs.tuples(_GYRO, _GYRO, _GYRO),
    hs.tuples(_ACCEL, _ACCEL, _ACCEL),
    hs.floats(1e-4, 0.05),
)


def output_errors(act, cfg):
    """Outputs of one controller step that are non-finite or outside their bounds."""
    errors = []
    for name, value in act._asdict().items():
        if name == "flags":
            continue
        if not all(math.isfinite(v) for v in (value if isinstance(value, tuple) else (value,))):
            errors.append(f"{name} not finite: {value}")
    if errors:
        return errors
    # Soft-coerced outputs lie inside their ellipse with no tolerance; the
    # integral terms are the integrator's value times a gain, and that
    # product rounds
    ellipses = (
        ("arm_tilt", cfg.arm_limit_x, cfg.arm_limit_y, 0.0),
        ("support_foot_tilt", cfg.foot_limit_x, cfg.foot_limit_y, 0.0),
        ("continuous_foot_tilt",
         cfg.i_cft_gain * cfg.i_bound_x, cfg.i_cft_gain * cfg.i_bound_y, TOL),
        ("hip_shift", cfg.i_hip_gain * cfg.i_bound_x, cfg.i_hip_gain * cfg.i_bound_y, TOL),
        ("swing_out_tilt", cfg.so_limit_x, cfg.so_limit_y, 0.0),
        ("swing_ground_plane", cfg.sp_limit_x, cfg.sp_limit_y, 0.0),
    )
    for name, ax, ay, tol in ellipses:
        x, y = getattr(act, name)
        # Far outside a tiny semi-axis, the ratio overflows to inf
        try:
            ratio = (x / ax) * (x / ax) + (y / ay) * (y / ay)
        except ZeroDivisionError:  # a zero integral gain: the output must be zero
            ratio = 0.0 if x == y == 0.0 else math.inf
        if ratio > 1.0 + tol:
            errors.append(f"{name} {x, y} outside its ellipse (ratio {ratio!r})")
    lx, ly = act.lean_tilt
    if lx != 0.0 or abs(ly) > cfg.lean_limit + TOL:
        errors.append(f"lean_tilt {lx, ly} outside its limit")
    if not (cfg.f_min - TOL <= act.gait_frequency <= cfg.f_max + TOL):
        errors.append(f"gait_frequency {act.gait_frequency} outside [f_min, f_max]")
    if not (cfg.hh_height_lo - TOL <= act.max_hip_height <= cfg.hh_height_hi + TOL):
        errors.append(f"max_hip_height {act.max_hip_height} outside its range")
    return errors


@settings(max_examples=150, deadline=None)
@given(
    config=hs.sampled_from(sorted(_CONFIGS)),
    cycles=hs.lists(_CYCLE, min_size=1, max_size=60),
    cmd=hs.tuples(hs.floats(-1.0, 1.0), hs.floats(-1.0, 1.0), hs.floats(-1.0, 1.0)),
)
def test_controller_outputs_finite_and_bounded(config, cycles, cmd):
    cfg = _CONFIGS[config]
    ctrl = TiltPhaseController(cfg)
    command = GaitCommand(*cmd)
    t = 0.0
    for gyro, accel, dt in cycles:
        t += dt
        act = ctrl.step(ImuSample(t, gyro, accel), command, dt)
        assert output_errors(act, cfg) == []
        z0, z1 = ctrl.integrator.value
        q0 = z0 / cfg.i_bound_x
        q1 = z1 / cfg.i_bound_y
        assert q0 * q0 + q1 * q1 <= 1.0


@pytest.mark.parametrize("gain", [0.0, 1e-300])
@pytest.mark.parametrize("name", [
    f"{part}_{term}_gain_{axis}"
    for part in ("arm", "foot") for term in ("p", "d") for axis in ("lat", "sag")
])
def test_zero_or_tiny_pd_gain_in_pushed_loop(name, gain):
    cfg = ControllerConfig(**{name: gain})
    ctrl = TiltPhaseController(cfg)
    plant = SurrogatePlant(PlantConfig())
    # A diagonal push moves both axes, so each of the eight gains is used
    push = [Disturbance("impulse", 0.8, 1.0, start_time=1.0)]
    dt = cfg.cycle_dt
    plant.set_disturbances(push)
    imu = plant.step(ActivationSet(gait_frequency=cfg.f_nom), 0.0, 0.0, dt)
    for k in range(1, 201):
        act = ctrl.step(imu, GaitCommand(), dt)
        assert output_errors(act, cfg) == []
        imu = plant.step(act, ctrl.mu, k * dt, dt)
    assert not plant.state.fallen


@pytest.mark.parametrize("fields", [
    {"pd_deadband_p_x": 1e-300},
    {"pd_deadband_d_y": 1e-300},
    {"arm_limit_x": 1e-200, "arm_buffer": 1e-201},
    {"foot_limit_x": 1e-250, "foot_buffer": 1e-251},
    {"arm_limit_x": 1e300, "arm_limit_y": 1e300},
    {"sp_deadband_x": 1e300, "sp_deadband_y": 1e300},
    {"i_bound_x": 1e300, "i_bound_y": 1e300},
], ids=lambda f: ",".join(f"{k}={v:g}" for k, v in f.items()))
def test_tiny_or_huge_axes_in_pushed_loop(fields):
    """Axes that validate() accepts but whose (x / a) ** 2 overflows or
    underflows to a zero sum: step neither raises nor leaves the ellipses."""
    cfg = ControllerConfig(**fields)
    cfg.validate()
    ctrl = TiltPhaseController(cfg)
    plant = SurrogatePlant(PlantConfig())
    push = [Disturbance("impulse", 0.8, 1.0, start_time=1.0)]
    dt = cfg.cycle_dt
    plant.set_disturbances(push)
    imu = plant.step(ActivationSet(gait_frequency=cfg.f_nom), 0.0, 0.0, dt)
    for k in range(1, 201):
        act = ctrl.step(imu, GaitCommand(), dt)
        assert output_errors(act, cfg) == []
        imu = plant.step(act, ctrl.mu, k * dt, dt)


# Values every float field is tried at besides the edges of its config's
# limits: zero, +-1, the smallest float and 1e-300 (whose squares
# underflow), a quarter turn and +-1e300 (whose squares overflow)
_PROBES = (-1e300, -1.0, -5e-324, 0.0, 5e-324, 1e-300, 1.0, math.pi / 2, 1e300)


def boundary_cells(cls, section):
    """(field, value) for each float field of a config at each probe and at
    each edge of the float limits of that config (the least and most value
    a row of the limits table accepts, where finite): a field is tried at
    the other fields' edges too, and a limit added to the table adds its
    cells."""
    kinds = fields(cls)
    edges = {v for name, least, most, _, _ in _CHECKS[section] if kinds[name] == "float"
             for v in (least, most) if math.isfinite(v)}
    values = sorted(edges.union(_PROBES))
    return [(name, v) for name, kind in kinds.items() if kind == "float" for v in values]


_CELLS = boundary_cells(ControllerConfig, "controller")
_FLOAT_FIELDS = sorted({name for name, _ in _CELLS})
_BOUNDARY = sorted({v for _, v in _CELLS})


def config_rejected_or_runs(values):
    """One or two float fields at a boundary of their validator: validate()
    rejects the config, or a 2 s loop pushed at 0.5 s raises nothing, every
    record is finite and every output lies inside its ellipse."""
    cfg = ControllerConfig(**values)
    try:
        cfg.validate()
    except ConfigError:
        return
    ctrl = TiltPhaseController(cfg)
    plant = SurrogatePlant(PlantConfig())
    push = [Disturbance("impulse", 0.8, 1.0, start_time=0.5)]
    dt = cfg.cycle_dt
    plant.set_disturbances(push)
    imu = plant.step(ActivationSet(gait_frequency=cfg.f_nom), 0.0, 0.0, dt)
    for k in range(1, round(2.0 / dt) + 1):
        act = ctrl.step(imu, GaitCommand(), dt)
        assert all(map(math.isfinite, record_values(k * dt, act)[:-1]))
        assert output_errors(act, cfg) == []
        imu = plant.step(act, ctrl.mu, k * dt, dt)


@pytest.mark.parametrize("field, value", _CELLS,
                         ids=lambda x: x if isinstance(x, str) else repr(x))
def test_boundary_config_cell_rejected_or_runs(field, value):
    """Every single-field boundary cell, in every run."""
    config_rejected_or_runs({field: value})


# Pairs of fields: derandomized, so every run draws the same examples
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(values=hs.dictionaries(hs.sampled_from(_FLOAT_FIELDS), hs.sampled_from(_BOUNDARY),
                              min_size=1, max_size=2))
@example({"i_clamp_x": 1e-300})
@example({"so_pendulum_c": 1e-300})
@example({"f_min": 5e-324, "f_nom": 5e-324})
@example({"wave_amp_x": 1e300})
@example({"wave_amp_y": 1e300})
@example({"wave_offset_x": 1e300})
@example({"wave_offset_y": 1e300})
@example({"cycle_dt": 1e-12})
@example({"cycle_dt": 1e300})
def test_boundary_config_rejected_or_runs(values):
    config_rejected_or_runs(values)


_PLANT_CELLS = boundary_cells(PlantConfig, "plant")
_PLANT_FLOAT_FIELDS = sorted({name for name, _ in _PLANT_CELLS})
_PLANT_BOUNDARY = sorted({v for _, v in _PLANT_CELLS})


def plant_config_rejected_or_runs(values):
    """One or two float fields of the plant config at a boundary of their
    validator: validate() rejects the config, or a 2 s loop pushed at 0.5 s
    raises nothing, its records are finite, its outputs lie inside their
    ellipses and the plant's state stays finite."""
    plant_cfg = PlantConfig(**values)
    try:
        plant_cfg.validate()
    except ConfigError:
        return
    cfg = ControllerConfig()
    ctrl = TiltPhaseController(cfg)
    plant = SurrogatePlant(plant_cfg)
    push = [Disturbance("impulse", 0.8, 1.0, start_time=0.5)]
    dt = cfg.cycle_dt
    plant.set_disturbances(push)
    imu = plant.step(ActivationSet(gait_frequency=cfg.f_nom), 0.0, 0.0, dt)
    for k in range(1, round(2.0 / dt) + 1):
        act = ctrl.step(imu, GaitCommand(), dt)
        assert all(map(math.isfinite, record_values(k * dt, act)[:-1]))
        assert output_errors(act, cfg) == []
        imu = plant.step(act, ctrl.mu, k * dt, dt)
        st = plant.state
        assert all(map(math.isfinite, (st.px, st.py, st.vx, st.vy)))
        if st.fallen:
            break


@pytest.mark.parametrize("field, value", _PLANT_CELLS,
                         ids=lambda x: x if isinstance(x, str) else repr(x))
def test_boundary_plant_config_cell_rejected_or_runs(field, value):
    """Every single-field boundary cell of the plant config, in every run."""
    plant_config_rejected_or_runs({field: value})


# Pairs of fields: derandomized, so every run draws the same examples
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(values=hs.dictionaries(hs.sampled_from(_PLANT_FLOAT_FIELDS),
                              hs.sampled_from(_PLANT_BOUNDARY), min_size=1, max_size=2))
@example({"substep_dt": 5e-324})
@example({"impulse_scale": 5e-324})
@example({"couple_arm": 1e300})
@example({"couple_plane": -1e300})
@example({"strike_capture": -1e300})
@example({"pendulum_c": 1e300})
@example({"pivot_y": 1e300, "strike_capture": 1e300})
def test_boundary_plant_config_rejected_or_runs(values):
    plant_config_rejected_or_runs(values)


_NONFINITE = (math.nan, math.inf, -math.inf)
# (cycle, field, value); fields 0-6 are the IMU's t, gyro and accel, 7-9 the command
_INJECTION = hs.one_of(
    hs.tuples(hs.integers(0, 199), hs.integers(0, 9), hs.sampled_from(_NONFINITE)),
    # Finite, but |gyro| ** 2 overflows
    hs.tuples(hs.integers(0, 199), hs.integers(1, 3), hs.sampled_from([1e200, -1.7e308])),
)


def state_floats(obj):
    """Every float reachable from obj's attributes and containers."""
    if isinstance(obj, float):
        yield obj
    elif isinstance(obj, (tuple, list, deque)):
        for item in obj:
            yield from state_floats(item)
    elif hasattr(obj, "__slots__"):
        for name in type(obj).__slots__:
            yield from state_floats(getattr(obj, name))


@settings(max_examples=60, deadline=None)
@given(
    config=hs.sampled_from(sorted(_CONFIGS)),
    injections=hs.lists(_INJECTION, min_size=1, max_size=6),
)
def test_non_finite_inputs_held_in_pushed_loop(config, injections):
    """nan or inf in any IMU or command field at any cycle of a 2 s pushed
    closed loop: outputs stay finite and inside their bounds, and no filter
    or estimator state takes a non-finite value."""
    cfg = _CONFIGS[config]
    ctrl = TiltPhaseController(cfg)
    plant = SurrogatePlant(PlantConfig())
    push = [Disturbance("impulse", 0.8, 1.0, start_time=1.0)]
    bad = {}
    for cycle, field, value in injections:
        bad.setdefault(cycle, {})[field] = value
    dt = cfg.cycle_dt
    plant.set_disturbances(push)
    imu = plant.step(ActivationSet(gait_frequency=cfg.f_nom), 0.0, 0.0, dt)
    for k in range(200):
        values = [imu.t, *imu.gyro, *imu.accel, 0.2, 0.0, 0.1]
        for field, value in bad.get(k, {}).items():
            values[field] = value
        act = ctrl.step(ImuSample(values[0], tuple(values[1:4]), tuple(values[4:7])),
                        GaitCommand(*values[7:]), dt)
        assert ("imu_nonfinite" in act.flags) == any(f < 7 for f in bad.get(k, ()))
        assert ("cmd_nonfinite" in act.flags) == any(f >= 7 for f in bad.get(k, ()))
        assert output_errors(act, cfg) == []
        state = list(state_floats(ctrl))
        assert all(map(math.isfinite, state)), f"cycle {k}: non-finite state"
        imu = plant.step(act, ctrl.mu, (k + 1) * dt, dt)
