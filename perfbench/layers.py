"""Which package functions the traced run wraps, and the per-layer metrics.

Layers are the package modules. Stage methods, filters, the estimator and
the plant are wrapped on their classes (the estimator has `__slots__`, so
its instances cannot take a wrapper), which covers every instance the
controller owns. Module-level functions are wrapped in the module that
calls them: `deviation_tilt` and `timing_law` in `tiltphase.controller`,
`record_values` in `tiltphase.harness`, and the rotation functions in
`tiltphase.plant`, where the plant synthesises its IMU output.

Unless stated otherwise a `*_us` metric is self time in microseconds per
call of the step that owns it: per controller step for the estimator,
deviation, filters and controller stages; per plant step for the plant and
rotation; per trace record for the trace and harness loop. A layer that a
workload never calls reports 0.
"""

from __future__ import annotations

import math

import tiltphase.config as CF
import tiltphase.controller as C
import tiltphase.deviation as D
import tiltphase.estimator as E
import tiltphase.filters as F
import tiltphase.harness as H
import tiltphase.plant as P
import tiltphase.trace as T

ROTATION_NAMES = ("quat_conj", "quat_from_tilt_phase", "quat_mul", "quat_normalize", "quat_rotate")
RUNNERS = ("harness.run_closed_loop", "harness.run_replay")
LOOP_CHILDREN = ("controller.step", "plant.step", "trace.record")


def targets():
    """(owner, attribute, span name) for every wrapped function or method."""
    out = [
        (H, "push_battery", "harness.push_battery"),
        (H, "run_push_trial", "harness.run_push_trial"),
        (H, "run_closed_loop", "harness.run_closed_loop"),
        (H, "run_replay", "harness.run_replay"),
        (H, "record_values", "trace.record"),
        (T, "write_trace", "trace.write"),
        (CF.ControllerConfig, "validate", "config.validate"),
        (CF.PlantConfig, "validate", "config.validate"),
        (C.TiltPhaseController, "step", "controller.step"),
        (C.TiltPhaseController, "pd_feedback", "controller.pd"),
        (C.TiltPhaseController, "i_feedback_step", "controller.i"),
        (C.TiltPhaseController, "leaning", "controller.lean"),
        (C.TiltPhaseController, "swing_out_step", "controller.swing_out"),
        (C.TiltPhaseController, "swing_ground_plane", "controller.ground_plane"),
        (C.TiltPhaseController, "max_hip_height_step", "controller.hip_height"),
        (C, "timing_law", "controller.timing"),
        (C, "deviation_tilt", "deviation.tilt"),
        (D.ExpectedWaveform, "evaluate", "deviation.expected"),
        (E.AttitudeEstimator, "step", "estimator.step"),
        (F.WlbfFilter, "step", "filters.wlbf"),
        (F.MeanFilter, "step", "filters.mean"),
        (F.BoundedIntegrator, "step", "filters.integrator"),
        (P.SurrogatePlant, "step", "plant.step"),
    ]
    out += [(P, name, f"rotation.{name}") for name in ROTATION_NAMES]
    return out


# (metric, span name) pairs for self time per controller step
_PER_CONTROLLER_STEP = (
    ("estimator.step_us", "estimator.step"),
    ("deviation.expected_us", "deviation.expected"),
    ("deviation.tilt_us", "deviation.tilt"),
    ("filters.wlbf_us", "filters.wlbf"),
    ("filters.mean_us", "filters.mean"),
    ("filters.integrator_us", "filters.integrator"),
    ("controller.pd_us", "controller.pd"),
    ("controller.i_us", "controller.i"),
    ("controller.lean_us", "controller.lean"),
    ("controller.swing_out_us", "controller.swing_out"),
    ("controller.ground_plane_us", "controller.ground_plane"),
    ("controller.timing_us", "controller.timing"),
    ("controller.hip_height_us", "controller.hip_height"),
    ("controller.self_us", "controller.step"),
)

UNITS = {
    "estimator.accel_accept_ratio": "ratio",
    "deviation.full_path_ratio": "ratio",
    "controller.swing_out_active_ratio": "ratio",
    "plant.substeps_per_cycle": "count",
    "rotation.calls_per_cycle": "count",
    "trace.bytes_per_cycle": "B",
    "tracing.overhead_frac": "ratio",
    "tracing.cycles_per_s_delta": "1/s",
}


def unit_of(metric: str) -> str:
    return UNITS.get(metric, "us")


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(tracer, outcome, ctrl_cfg, plant_cfg):
    """Per-layer metrics of the traced units, from spans and checked outputs."""
    spans = tracer.summary()

    def count(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def own_ns(prefix):
        return sum(v[2] for k, v in spans.items() if k == prefix or k.startswith(prefix + "."))

    n_ctrl = count("controller.step")
    n_plant = count("plant.step")
    n_rec = count("trace.record")
    m = {}
    for metric, span in _PER_CONTROLLER_STEP:
        m[metric] = _ratio(spans.get(span, (0, 0.0, 0.0))[2], n_ctrl) / 1e3

    lo = ctrl_cfg.est_acc_min_g * E.GRAVITY
    hi = ctrl_cfg.est_acc_max_g * E.GRAVITY
    accepted = sum(1 for a in tracer.accel if lo <= math.sqrt(a[0] ** 2 + a[1] ** 2 + a[2] ** 2) <= hi)
    m["estimator.accel_accept_ratio"] = _ratio(accepted, len(tracer.accel))
    m["deviation.full_path_ratio"] = _ratio(outcome.deviation_full_path, outcome.ctrl_cycles)
    m["controller.swing_out_active_ratio"] = _ratio(outcome.swing_out_active, outcome.ctrl_cycles)

    m["plant.step_us"] = _ratio(spans.get("plant.step", (0, 0.0, 0.0))[2], n_plant) / 1e3
    # RK4 substeps are internal to plant.step; the count follows from the
    # plant's documented rule, ceil(cycle_dt / substep_dt)
    m["plant.substeps_per_cycle"] = (
        max(1, math.ceil(ctrl_cfg.cycle_dt / plant_cfg.substep_dt)) if n_plant else 0
    )
    rotation_calls = sum(v[0] for k, v in spans.items() if k.startswith("rotation."))
    m["rotation.us_per_cycle"] = _ratio(own_ns("rotation"), n_plant) / 1e3
    m["rotation.calls_per_cycle"] = _ratio(rotation_calls, n_plant)

    m["trace.record_us"] = _ratio(spans.get("trace.record", (0, 0.0, 0.0))[2], n_rec) / 1e3
    m["trace.format_us"] = _ratio(spans.get("trace.write", (0, 0.0, 0.0))[2], outcome.trace_records) / 1e3
    m["trace.bytes_per_cycle"] = _ratio(outcome.trace_bytes, outcome.trace_records)

    runners, setup_wall, setup_self = tracer.setup_times(RUNNERS, LOOP_CHILDREN)
    m["harness.self_us_per_cycle"] = _ratio(own_ns("harness") - setup_self, n_rec) / 1e3
    m["harness.trial_setup_us"] = _ratio(setup_wall, runners) / 1e3
    m["config.validate_us"] = _ratio(spans.get("config.validate", (0, 0.0, 0.0))[2],
                                     count("config.validate")) / 1e3
    return m
