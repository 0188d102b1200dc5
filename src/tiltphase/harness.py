"""Closed-loop scenario running, IMU replay, push batteries and fitting."""

from __future__ import annotations

import copy
import json
import math
import sys
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from tiltphase.config import ControllerConfig, PlantConfig, apply_overrides
from tiltphase.controller import ActivationSet, GaitCommand, TiltPhaseController
from tiltphase.deviation import ExpectedWaveform, gait_phase_step
from tiltphase.estimator import ImuSample
from tiltphase.plant import Disturbance, SurrogatePlant
from tiltphase.trace import csv_rows, finite_float, record_values


@dataclass
class Scenario:
    duration: float = 10.0
    seed: int = 0
    controller_enabled: bool = True
    commands: List[Tuple[float, GaitCommand]] = field(default_factory=list)
    disturbances: List[Disturbance] = field(default_factory=list)
    overrides: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if not (0.0 < self.duration < math.inf):
            raise ValueError("scenario duration must be positive and finite")
        _schedule_times(self.commands)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        data = json.loads(text)
        if type(data) is not dict:
            raise ValueError(f"scenario: expected a JSON object, got {data!r:.40}")
        _known_keys(data, _SCENARIO_KEYS, "")
        commands = []
        for i, c in enumerate(_json_objects(data, "commands", _COMMAND_KEYS)):
            t, vx, vy, wz = (_json_number(c, k, f"commands[{i}].") for k in _COMMAND_KEYS)
            commands.append((t, GaitCommand(vx, vy, wz)))
        disturbances = []
        for i, d in enumerate(_json_objects(data, "disturbances", ("kind", *_DISTURBANCE_KEYS))):
            where = f"disturbances[{i}]."
            kind = d.get("kind")
            if type(kind) is not str:
                raise ValueError(f"scenario {where}kind: expected a string, got {kind!r}")
            disturbances.append(
                Disturbance(kind, *(_json_number(d, k, where) for k in _DISTURBANCE_KEYS))
            )
        seed = data.get("seed", 0)
        enabled = data.get("controller_enabled", True)
        overrides = data.get("config", {})
        # No coercion: bool("false") is True and int(2.7) is 2
        if type(seed) is not int:
            raise ValueError(f"scenario seed: expected an integer, got {seed!r}")
        if type(enabled) is not bool:
            raise ValueError(f"scenario controller_enabled: expected a boolean, got {enabled!r}")
        if type(overrides) is not dict:
            raise ValueError(f"scenario config: expected an object, got {overrides!r:.40}")
        return cls(
            duration=_json_number(data, "duration", "", 10.0),
            seed=seed,
            controller_enabled=enabled,
            commands=commands,
            disturbances=disturbances,
            overrides=dict(overrides),
        )


_SCENARIO_KEYS = ("duration", "seed", "controller_enabled", "commands", "disturbances", "config")
_COMMAND_KEYS = ("t", "vx", "vy", "wz")
# In the order of Disturbance's fields after `kind`
_DISTURBANCE_KEYS = ("direction", "magnitude", "start_time", "duration")


def _known_keys(obj: dict, keys: Sequence[str], where: str) -> None:
    # A misspelt key would otherwise silently take its default
    for key in obj:
        if key not in keys:
            raise ValueError(f"scenario {where}{key}: unknown key")


def _json_objects(data: dict, key: str, keys: Sequence[str]) -> list:
    """data[key] (or []), checked to be a list of JSON objects with known keys."""
    items = data.get(key, [])
    if type(items) is not list:
        raise ValueError(f"scenario {key}: expected a list, got {items!r:.40}")
    for i, item in enumerate(items):
        if type(item) is not dict:
            raise ValueError(f"scenario {key}[{i}]: expected an object, got {item!r:.40}")
        _known_keys(item, keys, f"{key}[{i}].")
    return items


def _json_number(obj: dict, key: str, where: str, default: float = 0.0) -> float:
    """obj[key] (or default) as a finite float; it must be a JSON int or float."""
    value = obj.get(key, default)
    # bool is an int subclass, and float() would also take "0.5"
    if type(value) not in (int, float):
        raise ValueError(f"scenario {where}{key}: expected a number, got {value!r}")
    # float() and math.isfinite() raise OverflowError on such an int
    if type(value) is int and abs(value) > sys.float_info.max:
        raise ValueError(f"scenario {where}{key}: integer beyond float range")
    if not math.isfinite(value):
        raise ValueError(f"scenario {where}{key} must be finite, got {value!r}")
    return float(value)


_NO_COMMAND = GaitCommand()


def _schedule_times(commands: List[Tuple[float, GaitCommand]]) -> List[float]:
    """Times of a command schedule, checked to be finite and sorted."""
    times = [t for t, _ in commands]
    for t in times:
        if not math.isfinite(t):
            raise ValueError(f"command schedule time {t} is not finite")
    if times != sorted(times):
        raise ValueError("command schedule times must be sorted")
    return times


def _command_at(
    times: List[float], commands: List[Tuple[float, GaitCommand]], t: float
) -> GaitCommand:
    """The last command whose time is <= t (times from `_schedule_times`)."""
    i = bisect_right(times, t)
    return commands[i - 1][1] if i else _NO_COMMAND


_new_tuple = tuple.__new__  # skips the NamedTuple keyword constructor
_MU = ActivationSet._fields.index("mu")


@dataclass
class RunResult:
    records: List[tuple]
    fallen: bool
    plant: SurrogatePlant
    controller: Optional[TiltPhaseController]


def run_closed_loop(
    ctrl_cfg: ControllerConfig,
    plant_cfg: PlantConfig,
    scenario: Scenario,
) -> RunResult:
    """Run plant + controller for scenario.duration and collect trace records."""
    ctrl_cfg = copy.deepcopy(ctrl_cfg)
    plant_cfg = copy.deepcopy(plant_cfg)
    if scenario.overrides:
        apply_overrides(ctrl_cfg, plant_cfg, scenario.overrides)
    dt = ctrl_cfg.cycle_dt
    commands = scenario.commands
    times = _schedule_times(commands)
    controller = TiltPhaseController(ctrl_cfg) if scenario.controller_enabled else None
    plant = SurrogatePlant(plant_cfg, seed=scenario.seed)

    n = int(round(scenario.duration / dt))
    records: List[tuple] = []
    idle = ActivationSet(gait_frequency=ctrl_cfg.f_nom)
    # The controller-off output is `idle` with mu replaced, built each cycle
    # with tuple.__new__ from the fields around mu
    idle_head = idle[:_MU]
    idle_tail = idle[_MU + 1:]
    imu = plant.step(idle, 0.0, scenario.disturbances, 0.0, dt)
    mu_open = 0.0
    for k in range(1, n + 1):
        t = k * dt
        cmd = _command_at(times, commands, t)
        if controller is not None:
            act = controller.step(imu, cmd, dt)
            mu = controller.mu
        else:
            act = _new_tuple(ActivationSet, idle_head + (mu_open,) + idle_tail)
            mu_open = gait_phase_step(mu_open, ctrl_cfg.f_nom, dt)
            mu = mu_open
        records.append(record_values(t, act))
        imu = plant.step(act, mu, scenario.disturbances, t, dt)
        if plant.state.fallen:
            break
    return RunResult(records, plant.state.fallen, plant, controller)


def run_replay(
    ctrl_cfg: ControllerConfig,
    samples: Sequence[ImuSample],
    commands: Optional[List[Tuple[float, GaitCommand]]] = None,
) -> List[tuple]:
    """Run the controller open loop over a recorded IMU stream."""
    commands = commands or []
    times = _schedule_times(commands)
    controller = TiltPhaseController(copy.deepcopy(ctrl_cfg))
    records = []
    t_prev = None
    for s in samples:
        if not math.isfinite(s.t):
            raise ValueError(f"non-finite IMU timestamp {s.t}")
        if t_prev is not None and s.t <= t_prev:
            raise ValueError(f"non-monotone IMU timestamp {s.t} after {t_prev}")
        dt = ctrl_cfg.cycle_dt if t_prev is None else s.t - t_prev
        cmd = _command_at(times, commands, s.t)
        act = controller.step(s, cmd, dt)
        records.append(record_values(s.t, act))
        t_prev = s.t
    return records


_IMU_FIELDS = ("t", "gx", "gy", "gz", "ax", "ay", "az")


def load_imu_log(path) -> List[ImuSample]:
    """Parse an IMU log: header then rows `t,gx,gy,gz,ax,ay,az`."""
    samples = []
    for lineno, parts in csv_rows(path, len(_IMU_FIELDS)):
        t, *v = (finite_float(raw, name, lineno) for name, raw in zip(_IMU_FIELDS, parts))
        if samples and t <= samples[-1].t:
            raise ValueError(f"line {lineno}: non-monotone timestamp {t}")
        samples.append(ImuSample(t, tuple(v[:3]), tuple(v[3:])))
    return samples


# -- push battery -------------------------------------------------------------


def run_push_trial(
    ctrl_cfg: ControllerConfig,
    plant_cfg: PlantConfig,
    direction: float,
    impulse: float,
    seed: int,
    controller_enabled: bool = True,
    t_push: float = 2.0,
    t_settle: float = 5.0,
) -> bool:
    """One walking-in-place run with a push; True if the plant never falls."""
    scenario = Scenario(
        duration=t_push + t_settle,
        seed=seed,
        controller_enabled=controller_enabled,
        disturbances=[
            Disturbance("impulse", direction=direction, magnitude=impulse, start_time=t_push)
        ],
    )
    return not run_closed_loop(ctrl_cfg, plant_cfg, scenario).fallen


def push_battery(
    ctrl_cfg: ControllerConfig,
    plant_cfg: PlantConfig,
    impulses: Sequence[float],
    pushes_per_level: int,
    seed: int,
    controller_enabled: bool = True,
) -> List[Tuple[float, int]]:
    """Withstood counts for random-direction pushes at each impulse level.

    Directions are drawn from the seed only, so controller-on and
    controller-off batteries with the same seed are paired push-for-push.
    """
    import random as _random

    results = []
    for level, impulse in enumerate(impulses):
        rng = _random.Random(1000003 * seed + level)
        withstood = 0
        for k in range(pushes_per_level):
            direction = rng.uniform(-math.pi, math.pi)
            if run_push_trial(
                ctrl_cfg, plant_cfg, direction, impulse, seed=seed * 1000 + k,
                controller_enabled=controller_enabled,
            ):
                withstood += 1
        results.append((impulse, withstood))
    return results


def push_threshold(
    ctrl_cfg: ControllerConfig,
    plant_cfg: PlantConfig,
    controller_enabled: bool,
    direction: float = 0.0,
    hi: float = 4.0,
    iters: int = 10,
    seed: int = 0,
) -> float:
    """Binary-search the maximum withstood impulse along one direction."""
    lo = 0.0
    if run_push_trial(ctrl_cfg, plant_cfg, direction, hi, seed, controller_enabled):
        return hi
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if run_push_trial(ctrl_cfg, plant_cfg, direction, mid, seed, controller_enabled):
            lo = mid
        else:
            hi = mid
    return lo


# -- waveform fitting ----------------------------------------------------------


def fit_waveform(mu: Sequence[float], px: Sequence[float], py: Sequence[float]):
    """Least-squares fit of a*sin(mu + phi0) + c per axis.

    Returns (ExpectedWaveform, residual RMS per axis). numpy is imported
    here, not at module level: nothing else in the package uses it, and it
    is most of the import time of `tiltphase.cli`.
    """
    import numpy as np

    mu = np.asarray(mu, dtype=float)
    if mu.size < 10:
        raise ValueError("need at least 10 samples to fit the waveform")
    A = np.stack([np.sin(mu), np.cos(mu), np.ones_like(mu)], axis=1)
    params = []
    rms = []
    for data in (np.asarray(px, dtype=float), np.asarray(py, dtype=float)):
        beta, *_ = np.linalg.lstsq(A, data, rcond=None)
        a = float(np.hypot(beta[0], beta[1]))
        phi0 = float(math.atan2(beta[1], beta[0])) if a > 0 else 0.0
        c = float(beta[2])
        params.append((a, phi0, c))
        resid = data - A @ beta
        rms.append(float(np.sqrt(np.mean(resid**2))))
    (ax_, phx, cx), (ay_, phy, cy) = params
    wave = ExpectedWaveform(ax_, ay_, phx, phy, cx, cy)
    return wave, tuple(rms)


# -- latency benchmark ---------------------------------------------------------


def benchmark_controller_step(
    ctrl_cfg: ControllerConfig, n: int = 20000, warmup: int = 2000, repeats: int = 3
) -> Tuple[float, float]:
    """Measure controller_step latency; returns (mean_us, p99_us).

    Cyclic garbage collection is paused around the timed region (the hot
    path allocates only small reference-counted tuples) and the best of
    `repeats` blocks is reported, so scheduler noise from a loaded host is
    measured out rather than attributed to the controller.
    """
    import gc

    dt = ctrl_cfg.cycle_dt
    cmd = GaitCommand()
    g = 9.81
    perf = time.perf_counter
    best_mean = math.inf
    best_p99 = math.inf
    gc_was_enabled = gc.isenabled()
    try:
        for _ in range(max(1, repeats)):
            controller = TiltPhaseController(copy.deepcopy(ctrl_cfg))
            times = []
            gc.collect()
            gc.disable()
            for k in range(warmup + n):
                # Mild synthetic motion so every branch does real work
                t = (k + 1) * dt
                gyro = (0.1 * math.sin(3 * t), 0.05 * math.cos(2 * t), 0.0)
                accel = (0.2 * math.sin(t), 0.1 * math.cos(t), g)
                imu = ImuSample(t, gyro, accel)
                t0 = perf()
                controller.step(imu, cmd, dt)
                t1 = perf()
                if k >= warmup:
                    times.append(t1 - t0)
            gc.enable()
            times.sort()
            mean_us = 1e6 * sum(times) / len(times)
            p99_us = 1e6 * times[min(len(times) - 1, int(0.99 * len(times)))]
            best_mean = min(best_mean, mean_us)
            best_p99 = min(best_p99, p99_us)
    finally:
        if gc_was_enabled:
            gc.enable()
    return best_mean, best_p99
