"""Closed-loop scenario running, IMU replay, push batteries and fitting."""

from __future__ import annotations

import math
import random
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from tiltphase.config import (
    ControllerConfig, PlantConfig, _Record, apply_overrides, replace, resolve_setting,
)
from tiltphase.controller import ActivationSet, GaitCommand, TiltPhaseController
from tiltphase.deviation import ExpectedWaveform, gait_phase_step
from tiltphase.estimator import ImuSample
from tiltphase.filters import on_grid
from tiltphase.plant import Disturbance, SurrogatePlant, disturbance_error
from tiltphase.trace import csv_rows, record_values


class Scenario(_Record):
    """A closed-loop run: its length, seed, controller switch, schedules and overrides."""

    duration: float = 10.0
    seed: int = 0
    controller_enabled: bool = True
    # Each scenario gets a fresh list or dict
    commands: List[Tuple[float, GaitCommand]] = []
    disturbances: List[Disturbance] = []
    overrides: Dict[str, object] = {}
    start: Optional[Walk] = None  # a walk to fork (see `Walk`); no file sets it

    def __post_init__(self):
        if not (0.0 < self.duration < math.inf):
            raise ValueError("scenario duration must be positive and finite")
        _schedule_times(self.commands)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        # Imported here: json adds about 3 ms to a cold start of the CLI
        import json

        data = json.loads(text, object_pairs_hook=_JsonObject)
        if not isinstance(data, dict):
            raise ValueError(f"scenario: expected a JSON object, got {data!r:.40}")
        _known_keys(data, _SCENARIO_KEYS, "")
        commands = []
        for i, c in enumerate(_json_objects(data, "commands", _COMMAND_KEYS)):
            t, vx, vy, wz = (_json_number(c, k, f"commands[{i}].") for k in _COMMAND_KEYS)
            commands.append((t, GaitCommand(vx, vy, wz)))
        disturbances = []
        for i, d in enumerate(_json_objects(data, "disturbances", _DISTURBANCE_KEYS)):
            where = f"disturbances[{i}]."
            kind = d.get("kind")
            if type(kind) is not str:
                raise ValueError(f"scenario {where}kind: expected a string, got {kind!r}")
            values = [_json_number(d, k, where) for k in _DISTURBANCE_KEYS[1:]]
            error = disturbance_error(kind, *values)
            if error:
                name, reason = error
                raise ValueError(f"scenario {where}{name}: disturbance {name} {reason}")
            disturbances.append(Disturbance(kind, *values))
        seed = data.get("seed", 0)
        enabled = data.get("controller_enabled", True)
        overrides = data.get("config", _JsonObject([]))
        # No coercion: bool("false") is True and int(2.7) is 2
        if type(seed) is not int:
            raise ValueError(f"scenario seed: expected an integer, got {seed!r}")
        if type(enabled) is not bool:
            raise ValueError(f"scenario controller_enabled: expected a boolean, got {enabled!r}")
        if not isinstance(overrides, dict):
            raise ValueError(f"scenario config: expected an object, got {overrides!r:.40}")
        _known_keys(overrides, overrides, "config.")  # resolve_setting checks each key
        for key, value in overrides.items():
            resolve_setting(key, value, "scenario config: ")
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
# In the order of Disturbance's fields
_DISTURBANCE_KEYS = ("kind", "direction", "magnitude", "start_time", "duration")


class _JsonObject(dict):
    """A JSON object read with `object_pairs_hook=_JsonObject`, whose `twice`
    holds its first key given twice, which json.loads would read silently
    as its last value, or None."""

    def __init__(self, pairs: List[tuple]):
        super().__init__(pairs)
        keys = [key for key, _ in pairs] if len(self) < len(pairs) else []
        self.twice = next((key for key in self if keys.count(key) > 1), None)


def _known_keys(obj: _JsonObject, keys: Sequence[str], where: str) -> None:
    if obj.twice is not None:
        raise ValueError(f"scenario {where}{obj.twice}: key given twice")
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
        if not isinstance(item, dict):
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
    """Times of a command schedule, checked to be sorted and, with every
    command field, finite."""
    for t, cmd in commands:
        if not math.isfinite(t):
            raise ValueError(f"command schedule time {t} is not finite")
        for name, v in zip(GaitCommand._fields, cmd):
            if not math.isfinite(v):
                raise ValueError(f"command at t={t}: {name} {v} is not finite")
    times = [t for t, _ in commands]
    if times != sorted(times):
        raise ValueError("command schedule times must be sorted")
    return times


def _next_command(
    times: List[float], commands: List[Tuple[float, GaitCommand]], i: int, t: float
) -> Tuple[int, GaitCommand, float]:
    """Advance the cursor i of a command schedule (times from
    `_schedule_times`) past every time <= t: (cursor, the last command whose
    time is <= t, the next command time). A run calls it only when t
    reaches the next command time, and its t must not decrease."""
    n = len(times)
    while i < n and times[i] <= t:
        i += 1
    return i, commands[i - 1][1] if i else _NO_COMMAND, times[i] if i < n else math.inf


# Most cycles a closed-loop run or the latency benchmark takes: a trace
# record holds about 600 B, so 10**6 cycles (10^4 s at 100 Hz) keep 600 MB
MAX_CYCLES = 10**6


class Walk(_Record):
    """A run paused at the start of cycle `cycle`, before any command or
    disturbance could act, for later runs to fork (`Scenario.start`): what
    cycles 0 .. cycle-1 read (`key`: configs by repr, which tells -0.0 from
    0.0 and 1 from 1.0, as `KEY_NAMES` names them), their records, and the
    pickled (controller, plant, next IMU sample, open-loop mu). `walk` takes one."""

    KEY_NAMES = ("controller config", "plant config", "controller switch", "seed under plant noise")
    key: tuple
    cycle: int
    records: tuple
    blob: bytes


class RunResult(_Record):
    """The trace records of a closed-loop run and whether the plant fell."""

    records: List[tuple]
    fallen: bool


def run_closed_loop(
    ctrl_cfg: ControllerConfig,
    plant_cfg: PlantConfig,
    scenario: Scenario,
) -> RunResult:
    """Run plant + controller for scenario.duration and collect trace records.

    A run given a `Walk` as `scenario.start` forks it, bit for bit as a full
    run, or raises ValueError naming what does not fit.
    """
    return _run(ctrl_cfg, plant_cfg, scenario, False)


def walk(ctrl_cfg: ControllerConfig, plant_cfg: PlantConfig, scenario: Scenario) -> Optional[Walk]:
    """The `Walk` to scenario's first event, or None if no cycle is quiet or the plant falls."""
    return _run(ctrl_cfg, plant_cfg, scenario, True)


def _run(ctrl_cfg, plant_cfg, scenario, walking):
    if scenario.overrides:
        # apply_overrides sets fields in place; the caller's configs stay as they are
        ctrl_cfg, plant_cfg = apply_overrides(
            replace(ctrl_cfg), replace(plant_cfg), scenario.overrides, "scenario config: ")
    dt = ctrl_cfg.cycle_dt
    cycles = scenario.duration / dt
    if cycles > MAX_CYCLES:  # inf too, which round() refuses
        raise ValueError(
            f"scenario duration {scenario.duration!r} s is {cycles:.4g} cycles of {dt!r} s,"
            f" above MAX_CYCLES = {MAX_CYCLES}"
        )
    n = int(round(cycles))
    commands = scenario.commands
    times = _schedule_times(commands)
    enabled = bool(scenario.controller_enabled)
    idle = ActivationSet(gait_frequency=ctrl_cfg.f_nom)

    start = scenario.start
    if start is not None or walking:
        # Imported here: pickle adds about 3 ms to a cold start of the CLI
        import pickle
        # Cycle k's plant step ends at k*dt + dt (cycle 0's at 0.0 + dt), the
        # same floats as below and in SurrogatePlant.advance. While that end is
        # before every command and disturbance time, nothing scheduled can act,
        # so cycles 0 .. quiet-1 read only the key's inputs.
        t_event = min(times[:1] + [d.start_time for d in scenario.disturbances], default=math.inf)
        quiet = next((k for k in range(n) if k * dt + dt >= t_event), n)
        noisy = plant_cfg.noise_gyro > 0.0 or plant_cfg.noise_accel > 0.0
        key = repr(ctrl_cfg), repr(plant_cfg), enabled, scenario.seed if noisy else None
    if start is not None:
        for name, walked, run in zip(Walk.KEY_NAMES, start.key, key):
            if walked != run:
                raise ValueError(f"scenario start: walked with another {name} than this run's")
        if start.cycle > quiet:
            raise ValueError(f"scenario start: its cycle {start.cycle} is past this run's first"
                             f" command or disturbance (cycle {quiet})")
        # Its run built, so validated, configs of these reprs: nothing to check again
        controller, plant, imu, mu_open = pickle.loads(start.blob)
        plant.set_disturbances(scenario.disturbances)
        records, first = list(start.records), start.cycle
    else:
        controller = TiltPhaseController(ctrl_cfg) if enabled else None
        plant = SurrogatePlant(plant_cfg, seed=scenario.seed)
        plant.set_disturbances(scenario.disturbances)
        # advance returns None: the open loop keeps no IMU sample
        imu = (plant.step if enabled else plant.advance)(idle, 0.0, 0.0, dt)
        records, mu_open, first = [], 0.0, 1
    # A controller-off cycle advances the plant with `idle`, whose mu the
    # plant never reads, and records `idle` with t and mu replaced
    idle_rest = None if enabled else record_values(0.0, idle)[2:]
    i_cmd, cmd, t_cmd = _next_command(times, commands, 0, -math.inf)
    for k in range(first, quiet if walking else n + 1):
        t = k * dt
        if t >= t_cmd:
            i_cmd, cmd, t_cmd = _next_command(times, commands, i_cmd, t)
        if controller is not None:
            act = controller.step(imu, cmd, dt)
            records.append(record_values(t, act))
            imu = plant.step(act, controller.mu, t, dt)
        else:
            records.append((t, mu_open) + idle_rest)
            mu_open = gait_phase_step(mu_open, ctrl_cfg.f_nom, dt)
            plant.advance(idle, mu_open, t, dt)
        if plant.state.fallen:
            break
    if walking and quiet and not plant.state.fallen:
        blob = pickle.dumps((controller, plant, imu, mu_open), pickle.HIGHEST_PROTOCOL)
        return Walk(key, quiet, tuple(records), blob)
    return None if walking else RunResult(records, plant.state.fallen)


def run_replay(
    ctrl_cfg: ControllerConfig,
    samples: Sequence[ImuSample],
    commands: Optional[List[Tuple[float, GaitCommand]]] = None,
) -> List[tuple]:
    """Run the controller open loop over a recorded IMU stream.

    The first sample, and each sample whose gap to the one before is on the
    control grid (`filters.on_grid`, the WLBF's test), steps with
    `cycle_dt`, as the closed loop does. Any other sample steps with its
    gap, and its record carries the flag `replay_gap`.
    """
    commands = commands or []
    times = _schedule_times(commands)
    controller = TiltPhaseController(ctrl_cfg)
    cycle_dt = ctrl_cfg.cycle_dt
    records = []
    t_prev = None
    i_cmd, cmd, t_cmd = _next_command(times, commands, 0, -math.inf)
    for s in samples:
        if not math.isfinite(s.t):
            raise ValueError(f"non-finite IMU timestamp {s.t}")
        if t_prev is not None and s.t <= t_prev:
            raise ValueError(f"non-monotone IMU timestamp {s.t} after {t_prev}")
        gap = cycle_dt if t_prev is None else s.t - t_prev
        if s.t >= t_cmd:
            i_cmd, cmd, t_cmd = _next_command(times, commands, i_cmd, s.t)
        if on_grid(gap, cycle_dt):
            act = controller.step(s, cmd, cycle_dt)
        else:
            act = controller.step(s, cmd, gap)
            act = act._replace(flags=act.flags + ("replay_gap",))
        records.append(record_values(s.t, act))
        t_prev = s.t
    return records


_IMU_FIELDS = ("t", "gx", "gy", "gz", "ax", "ay", "az")


def load_imu_log(path) -> List[ImuSample]:
    """Parse an IMU log: header then rows `t,gx,gy,gz,ax,ay,az`; each error starts with path."""
    samples = []
    for lineno, (t, *v) in csv_rows(path, _IMU_FIELDS, flags=False):
        if samples:
            last = samples[-1].t
            if t <= last:
                raise ValueError(f"{path}: line {lineno}: non-monotone timestamp {t}")
            if t - last == math.inf:
                raise ValueError(f"{path}: line {lineno}: timestamp step overflows after t={last}")
        samples.append(ImuSample(t, tuple(v[:3]), tuple(v[3:])))
    return samples


# -- push battery -------------------------------------------------------------

# A push trial walks in place for T_PUSH seconds, is pushed, then runs T_SETTLE more
T_PUSH = 2.0
T_SETTLE = 5.0


def _push(direction, impulse, seed, enabled, start=None) -> Scenario:
    push = Disturbance("impulse", direction, impulse, T_PUSH)
    return Scenario(T_PUSH + T_SETTLE, seed, enabled, disturbances=[push], start=start)


def run_push_trial(
    ctrl_cfg: ControllerConfig,
    plant_cfg: PlantConfig,
    direction: float,
    impulse: float,
    seed: int,
    controller_enabled: bool,
    start: Optional[Walk] = None,
) -> bool:
    """One push trial, forked from start if set; True if the plant never falls."""
    scenario = _push(direction, impulse, seed, controller_enabled, start)
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
    Push k of every level has the seed seed * 1000 + k; the trials run k by k
    and fork one walk, taken once per call (with plant noise, once per k).
    """
    rngs = [random.Random(1000003 * seed + level) for level in range(len(impulses))]
    directions = [[rng.uniform(-math.pi, math.pi) for _ in range(pushes_per_level)] for rng in rngs]
    withstood = [0] * len(impulses)
    start = None
    for k, pushes in enumerate(zip(*directions)):
        if k == 0 or start is not None and start.key[-1] is not None:
            start = walk(ctrl_cfg, plant_cfg, _push(0.0, 0.0, seed * 1000 + k, controller_enabled))
        for level, direction in enumerate(pushes):
            withstood[level] += run_push_trial(ctrl_cfg, plant_cfg, direction, impulses[level],
                                               seed * 1000 + k, controller_enabled, start)
    return list(zip(impulses, withstood))


# Bisection steps of push_threshold below its cap
THRESHOLD_ITERS = 10


def push_threshold(
    ctrl_cfg: ControllerConfig,
    plant_cfg: PlantConfig,
    controller_enabled: bool,
    hi: float,
    direction: float = 0.0,
    seed: int = 0,
) -> float:
    """Binary-search the maximum withstood impulse along one direction; every
    trial forks one walk to the push."""
    start = walk(ctrl_cfg, plant_cfg, _push(direction, hi, seed, controller_enabled))
    if run_push_trial(ctrl_cfg, plant_cfg, direction, hi, seed, controller_enabled, start):
        return hi
    lo = 0.0
    for _ in range(THRESHOLD_ITERS):
        mid = 0.5 * (lo + hi)
        if run_push_trial(ctrl_cfg, plant_cfg, direction, mid, seed, controller_enabled, start):
            lo = mid
        else:
            hi = mid
    return lo


# -- waveform fitting ----------------------------------------------------------


def fit_waveform(mu: Sequence[float], px: Sequence[float], py: Sequence[float]):
    """Least-squares fit of a*sin(mu + phi0) + c per axis.

    a*sin(mu + phi0) = b0*sin(mu) + b1*cos(mu), so this is a linear fit of
    (b0, b1, c). Centring every column on its mean drops c out, leaving 2x2
    normal equations solved by Cramer's rule. Returns (ExpectedWaveform,
    residual RMS per axis). Raises ValueError when mu does not span enough
    of the phase circle to separate sin from cos (all equal, or only two
    distinct values).
    """
    n = len(mu)
    if len(px) != n or len(py) != n:
        raise ValueError(f"mu, px and py differ in length: {n}, {len(px)}, {len(py)}")
    if n < 10:
        raise ValueError("need at least 10 samples to fit the waveform")
    sin = [math.sin(m) for m in mu]
    cos = [math.cos(m) for m in mu]
    ms = math.fsum(sin) / n
    mc = math.fsum(cos) / n
    ds = [u - ms for u in sin]
    dc = [v - mc for v in cos]
    sss = math.fsum(u * u for u in ds)
    scc = math.fsum(v * v for v in dc)
    ssc = math.fsum(u * v for u, v in zip(ds, dc))
    det = sss * scc - ssc * ssc
    if det <= 1e-12 * sss * scc:
        raise ValueError("gait phase mu covers too little of the cycle to fit the waveform")
    params = []
    rms = []
    for data in (px, py):
        md = math.fsum(data) / n
        ssd = math.fsum(u * (d - md) for u, d in zip(ds, data))
        scd = math.fsum(v * (d - md) for v, d in zip(dc, data))
        b0 = (ssd * scc - scd * ssc) / det
        b1 = (scd * sss - ssd * ssc) / det
        c = md - b0 * ms - b1 * mc
        a = math.hypot(b0, b1)
        phi0 = math.atan2(b1, b0) if a > 0 else 0.0
        params.append((a, phi0, c))
        sq = math.fsum((d - (b0 * u + b1 * v + c)) ** 2 for u, v, d in zip(sin, cos, data))
        rms.append(math.sqrt(sq / n))
    (ax_, phx, cx), (ay_, phy, cy) = params
    wave = ExpectedWaveform(ax_, ay_, phx, phy, cx, cy)
    return wave, tuple(rms)


# -- latency benchmark ---------------------------------------------------------

# Untimed steps before each timed block, and the number of blocks
WARMUP_STEPS = 2000
REPEATS = 3


def benchmark_controller_step(ctrl_cfg: ControllerConfig, n: int) -> Tuple[float, float]:
    """Measure controller_step latency; returns (mean_us, p99_us).

    Cyclic garbage collection is paused over the timed blocks, each of
    which starts with a collection, and left as the caller had it (the hot
    path allocates only small reference-counted tuples); the best of
    REPEATS blocks is reported, so scheduler noise from a loaded host is
    measured out rather than attributed to the controller.
    """
    import gc

    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if n > MAX_CYCLES:
        raise ValueError(f"n = {n} cycles is above MAX_CYCLES = {MAX_CYCLES}")
    dt = ctrl_cfg.cycle_dt
    cmd = GaitCommand()
    g = 9.81
    perf = time.perf_counter
    best_mean = math.inf
    best_p99 = math.inf
    gc_was_enabled = gc.isenabled()
    try:
        for _ in range(REPEATS):
            controller = TiltPhaseController(ctrl_cfg)
            times = []
            gc.collect()
            gc.disable()
            for k in range(WARMUP_STEPS + n):
                # Mild synthetic motion so every branch does real work
                t = (k + 1) * dt
                gyro = (0.1 * math.sin(3 * t), 0.05 * math.cos(2 * t), 0.0)
                accel = (0.2 * math.sin(t), 0.1 * math.cos(t), g)
                imu = ImuSample(t, gyro, accel)
                t0 = perf()
                controller.step(imu, cmd, dt)
                t1 = perf()
                if k >= WARMUP_STEPS:
                    times.append(t1 - t0)
            times.sort()
            mean_us = 1e6 * sum(times) / len(times)
            p99_us = 1e6 * times[min(len(times) - 1, int(0.99 * len(times)))]
            best_mean = min(best_mean, mean_us)
            best_p99 = min(best_p99, p99_us)
    finally:
        if gc_was_enabled:
            gc.enable()
    return best_mean, best_p99
