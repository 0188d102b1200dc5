"""Forked runs: a run that goes on from a walk (`walk`, `Scenario.start`)
must equal the full run, records and `fallen` bit for bit, and a walk that
does not fit the run must be refused, naming why."""

import math
import pickle
import random
import tracemalloc
from collections import deque

import pytest

import tiltphase.harness as harness
from tiltphase.config import ControllerConfig, PlantConfig, replace
from tiltphase.controller import GaitCommand, TiltPhaseController
from tiltphase.estimator import ImuSample
from tiltphase.harness import Scenario, push_battery, run_closed_loop, walk
from tiltphase.plant import Disturbance, SurrogatePlant


@pytest.fixture
def plant_steps(monkeypatch):
    """Counts plant steps, as SurrogatePlant.advance calls (`step` makes
    one, and the controller-off loop calls it alone)."""
    count = [0]
    advance = SurrogatePlant.advance

    def counting(self, *args):
        count[0] += 1
        return advance(self, *args)

    monkeypatch.setattr(SurrogatePlant, "advance", counting)
    return count


def quiet_cycles(t_event, dt, n):
    """Cycles k >= 0 whose plant step ends (k*dt + dt) before t_event, at most n."""
    return min(n, sum(1 for k in range(n + 1) if k * dt + dt < t_event))


def event_times(rng, dt):
    k = rng.randrange(0, 40)
    t = k * dt
    return rng.choice([t, math.nextafter(t, math.inf), math.nextafter(t, -math.inf), 0.0, -0.2])


def scenario_at(t_event, kind, duration, seed, enabled, overrides, rng):
    commands = []
    disturbances = []
    if kind == "command":
        commands = [(t_event, GaitCommand(rng.uniform(-0.5, 0.5), 0.0, 0.2))]
    else:
        disturbances = [Disturbance(kind, rng.uniform(-math.pi, math.pi), rng.uniform(0.5, 2.0),
                                    t_event, rng.uniform(0.0, 0.5))]
    # A later push the walk must not see either
    disturbances.append(Disturbance("impulse", 0.3, rng.uniform(0.5, 1.5), t_event + 0.25))
    return Scenario(duration=duration, seed=seed, controller_enabled=enabled,
                    commands=commands, disturbances=disturbances, overrides=dict(overrides))


OVERRIDES = (
    {},
    {"controller.pd_mean_order": 3, "plant.couple_arm": 2.5},
    {"controller.cycle_dt": 0.012},
)
KINDS = ("command", "impulse", "force", "bias")


def test_fork_equals_full_run(plant_steps):
    rng = random.Random(1301)
    forked = set()
    for case in range(60):
        enabled = rng.random() < 0.5
        noisy = rng.random() < 0.5
        overrides = rng.choice(OVERRIDES)
        plant = PlantConfig(noise_gyro=0.02, noise_accel=0.1) if noisy else PlantConfig()
        ctrl = ControllerConfig()
        dt = overrides.get("controller.cycle_dt", ctrl.cycle_dt)
        t_event = event_times(rng, dt)
        kind = rng.choice(KINDS)
        # Shorter than the quiet prefix, or running past it
        duration = rng.choice((0.5 * max(t_event, dt), max(t_event, 0.0) + 0.4))
        seed = rng.randrange(100)
        # The walk fits the target: a seed that only noise would read and
        # pushes of another size and direction
        walk_seed = seed if noisy else seed + 1
        walking = scenario_at(t_event, kind, duration, walk_seed, enabled, overrides, rng)
        target = scenario_at(t_event, kind, duration, seed, enabled, overrides, rng)

        plant_steps[0] = 0
        want = run_closed_loop(ctrl, plant, target)
        full = plant_steps[0]
        start = walk(ctrl, plant, walking)
        quiet = quiet_cycles(t_event, dt, int(round(duration / dt)))
        if start is None:
            assert quiet == 0, case
            continue
        assert start.cycle == quiet, case
        plant_steps[0] = 0
        got = run_closed_loop(ctrl, plant, replace(target, start=start))

        assert got.records == want.records, case
        assert got.fallen == want.fallen, case
        assert full - plant_steps[0] == quiet, case
        forked.add((enabled, noisy, kind))
    # Every disturbance kind, with the controller on and off, quiet and noisy
    assert {(e, n) for e, n, _ in forked} == {(e, n) for e in (True, False) for n in (True, False)}
    assert {k for _, _, k in forked} == set(KINDS)
    assert len(forked) >= 12


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("noisy", [False, True], ids=["quiet", "noisy"])
@pytest.mark.parametrize("kind", KINDS)
def test_fork_equals_full_run_for_each_kind(enabled, noisy, kind):
    """Each disturbance kind with the controller on and off, quiet and noisy,
    at an event time on either side of a cycle's plant-step end."""
    ctrl = ControllerConfig()
    plant = PlantConfig(noise_gyro=0.02, noise_accel=0.1) if noisy else PlantConfig()
    rng = random.Random(f"{kind}/{enabled}/{noisy}")
    for t_event in (math.nextafter(0.5, -math.inf), 0.5, math.nextafter(0.5, math.inf)):
        walking = scenario_at(t_event, kind, 1.2, 7, enabled, {}, rng)
        target = scenario_at(t_event, kind, 1.2, 7, enabled, {}, rng)
        start = walk(ctrl, plant, walking)
        assert start.cycle == quiet_cycles(t_event, ctrl.cycle_dt, 120)
        want = run_closed_loop(ctrl, plant, target)
        got = run_closed_loop(ctrl, plant, replace(target, start=start))
        assert repr(got.records) == repr(want.records)
        assert got.fallen == want.fallen


def test_fork_takes_its_own_disturbances(plant_steps):
    """A fork of a walk, with the disturbances of the run that took it or
    with others whose first event is later, gives the plant its own
    disturbances: the records equal a full run's, bit for bit."""
    ctrl = ControllerConfig()
    plant = PlantConfig()

    def scenario(shift):
        return Scenario(duration=4.0, commands=[(1.05, GaitCommand(0.2, 0.0, 0.1))], disturbances=[
            Disturbance("impulse", 0.4, 0.9, 1.0 + shift),
            Disturbance("force", -1.0, 0.5, 1.2, 0.6),
            Disturbance("bias", 2.0, 0.03, 1.1 + shift, 2.0),
            Disturbance("impulse", 2.5, 0.7, 1.003 + shift),
            Disturbance("force", 1.0, 0.4, 1.5 + shift, 0.3),
        ])

    first, other = scenario(0.0), scenario(0.137)
    want = [repr(run_closed_loop(ctrl, plant, s).records) for s in (first, other)]
    start = walk(ctrl, plant, first)
    plant_steps[0] = 0
    assert repr(run_closed_loop(ctrl, plant, replace(first, start=start)).records) == want[0]
    assert plant_steps[0] == 401 - quiet_cycles(1.0, ctrl.cycle_dt, 400)
    assert repr(run_closed_loop(ctrl, plant, replace(other, start=start)).records) == want[1]


@pytest.mark.parametrize("enabled", [True, False])
def test_disturbances_are_set_once_per_run(monkeypatch, enabled):
    """A run gives the plant its disturbances once, before its first step:
    a walk, a full run and a fork of the walk."""
    calls = []
    set_disturbances = SurrogatePlant.set_disturbances
    advance = SurrogatePlant.advance

    def setting(self, disturbances):
        calls.append(disturbances)
        return set_disturbances(self, disturbances)

    def stepping(self, *args):
        calls.append("advance")
        return advance(self, *args)

    monkeypatch.setattr(SurrogatePlant, "set_disturbances", setting)
    monkeypatch.setattr(SurrogatePlant, "advance", stepping)
    ctrl = ControllerConfig()

    def steps(run, scenario):
        calls.clear()
        result = run(ctrl, PlantConfig(), scenario)
        assert calls[0] is scenario.disturbances
        assert calls[1:] == ["advance"] * (len(calls) - 1)
        return result, len(calls) - 1

    quiet = quiet_cycles(0.5, ctrl.cycle_dt, 100)
    cold = Scenario(duration=1.0, controller_enabled=enabled,
                    disturbances=[Disturbance("impulse", 0.4, 1.0, 0.5)])
    start, walked = steps(walk, cold)
    assert walked == quiet
    assert steps(run_closed_loop, cold)[1] == 101
    fork = replace(cold, start=start, disturbances=[Disturbance("impulse", 0.4, 0.7, 0.5)])
    assert steps(run_closed_loop, fork)[1] == 101 - quiet


def test_each_battery_walks_once(monkeypatch):
    """Batteries with the controller on, off, on, off: each call steps the
    plant through the walk to the push once, whatever ran before it, and
    withstands what the same battery did before."""
    quiet_steps = [0]
    advance = SurrogatePlant.advance

    def counting(self, act, mu, t, dt):
        quiet_steps[0] += t + dt < harness.T_PUSH  # the harness's quiet rule
        return advance(self, act, mu, t, dt)

    monkeypatch.setattr(SurrogatePlant, "advance", counting)
    ctrl = ControllerConfig()
    results = []
    counts = []
    for enabled in (True, False, True, False):
        quiet_steps[0] = 0
        results.append(push_battery(ctrl, PlantConfig(), (1.0, 7.0), 2, seed=5,
                                    controller_enabled=enabled))
        counts.append(quiet_steps[0])
    quiet = quiet_cycles(harness.T_PUSH, ctrl.cycle_dt, 700)
    assert quiet > 190
    assert counts == [quiet] * 4
    assert results[:2] == results[2:]


@pytest.mark.parametrize("enabled", [True, False])
def test_noisy_battery_walks_once_per_trial_seed(monkeypatch, enabled):
    """With plant noise, push k of every level has the seed 3000 + k: a
    4 x 5 battery takes 5 walks, one per seed, and forks all 20 trials, and
    every trial equals its cold run, records and `fallen` bit for bit."""
    ctrl = ControllerConfig()
    plant = PlantConfig(noise_gyro=0.02, noise_accel=0.1)
    trials = []
    walks = []
    run, walk_to = harness.run_closed_loop, harness.walk

    def capturing(ctrl_cfg, plant_cfg, scenario):
        trials.append((scenario, run(ctrl_cfg, plant_cfg, scenario)))
        return trials[-1][1]

    def walking(ctrl_cfg, plant_cfg, scenario):
        walks.append(walk_to(ctrl_cfg, plant_cfg, scenario))
        return walks[-1]

    monkeypatch.setattr(harness, "run_closed_loop", capturing)
    monkeypatch.setattr(harness, "walk", walking)
    push_battery(ctrl, plant, (1.0, 3.0, 6.0, 8.0), 5, seed=3, controller_enabled=enabled)
    assert [start.key[-1] for start in walks] == [3000, 3001, 3002, 3003, 3004]
    assert len(trials) == 20
    # Push k of each level forks the walk taken under its seed
    assert [scenario.start for scenario, _ in trials] == [w for w in walks for _ in range(4)]
    for scenario, got in trials:
        assert scenario.start.key[-1] == scenario.seed
        want = run(ctrl, plant, replace(scenario, start=None))
        assert (got.records, got.fallen) == (want.records, want.fallen)


def test_noisy_battery_memory_does_not_grow_with_pushes(monkeypatch):
    """A noisy battery holds one walk at a time: its tracemalloc peak with 40
    pushes per level is within one walk of its peak with 10. The push comes
    at 0.5 s and the trials end 0.25 s later, and the controller is off, to
    keep the traced runs short; no trial falls, so each keeps the same records.
    An untraced battery first fills the interpreter's free lists, which would
    otherwise grow the traced memory by a few kB over the first trials."""
    monkeypatch.setattr(harness, "T_PUSH", 0.5)
    monkeypatch.setattr(harness, "T_SETTLE", 0.25)
    ctrl = ControllerConfig()
    plant = PlantConfig(noise_gyro=0.02, noise_accel=0.1)

    def traced(call):
        tracemalloc.start()
        try:
            kept = call()
            return kept, tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

    scenario = Scenario(duration=0.75, seed=7000, controller_enabled=False,
                        disturbances=[Disturbance("impulse", 0.0, 0.0, 0.5)])
    start, (one_walk, _) = traced(lambda: walk(ctrl, plant, scenario))
    assert start.cycle == 49
    push_battery(ctrl, plant, (0.0, 0.0), 40, seed=7, controller_enabled=False)
    peaks = []
    for pushes in (10, 40):
        withstood, (_, peak) = traced(lambda: push_battery(
            ctrl, plant, (0.0, 0.0), pushes, seed=7, controller_enabled=False))
        assert withstood == [(0.0, pushes)] * 2
        peaks.append(peak)
    assert abs(peaks[1] - peaks[0]) < one_walk


@pytest.mark.parametrize("enabled", [True, False])
def test_a_fork_builds_and_validates_nothing(monkeypatch, enabled):
    """A fork builds no controller or plant, which the walk's copy replaces,
    and checks no config: the run that took the walk checked configs of the
    key's repr, and the copy holds configs equal to the run's, repr for
    repr."""
    calls = []

    def logging(cls, method):
        orig = getattr(cls, method)

        def logged(self, *args, **kwargs):
            calls.append(f"{cls.__name__}.{method}")
            return orig(self, *args, **kwargs)

        monkeypatch.setattr(cls, method, logged)

    for cls in (TiltPhaseController, SurrogatePlant):
        logging(cls, "__init__")
    for cls in (ControllerConfig, PlantConfig):
        logging(cls, "validate")
    scenario = Scenario(duration=1.0, controller_enabled=enabled,
                        disturbances=[Disturbance("impulse", 0.4, 1.0, 0.5)])
    start = walk(ControllerConfig(), PlantConfig(), scenario)
    built = ["TiltPhaseController.__init__", "ControllerConfig.validate"] if enabled else []
    assert calls == built + ["SurrogatePlant.__init__", "PlantConfig.validate"]
    calls.clear()
    run_closed_loop(ControllerConfig(), PlantConfig(), replace(scenario, start=start))
    assert calls == []
    controller, plant, imu, mu_open = pickle.loads(start.blob)
    assert repr(plant.cfg) == repr(PlantConfig())
    assert repr(controller.cfg) == repr(ControllerConfig()) if enabled else controller is None
    # The open loop keeps no IMU sample, and the closed loop no open-loop mu
    if enabled:
        assert type(imu) is ImuSample and mu_open == 0.0
    else:
        assert imu is None and mu_open > 0.0


PUSH = [Disturbance("impulse", 0.4, 1.0, 0.5)]


def walk_of(ctrl, plant, **scenario):
    return walk(ctrl, plant, Scenario(duration=1.0, disturbances=PUSH, **scenario))


# (config pair the walk is taken with, config pair of the run): each pair
# equals the other under ==, field by field, yet changes the trace
REPR_ONLY = [
    ((ControllerConfig(), PlantConfig()), (ControllerConfig(wave_offset_x=-0.0), PlantConfig()),
     "controller config"),
    ((ControllerConfig(hh_height_hi=1), PlantConfig()), (ControllerConfig(), PlantConfig()),
     "controller config"),
    ((ControllerConfig(), PlantConfig()), (ControllerConfig(), PlantConfig(pivot_y=-0.0)),
     "plant config"),
    ((ControllerConfig(), PlantConfig(impulse_scale=1)), (ControllerConfig(), PlantConfig()),
     "plant config"),
]


@pytest.mark.parametrize("walked, run, cause", REPR_ONLY,
                         ids=["ctrl_signed_zero", "ctrl_int", "plant_signed_zero", "plant_int"])
def test_configs_equal_only_under_eq_are_refused(walked, run, cause):
    assert walked == run
    start = walk_of(*walked)
    with pytest.raises(ValueError, match=f"^scenario start: walked with another {cause} "):
        run_closed_loop(*run, Scenario(duration=1.0, disturbances=PUSH, start=start))


def test_config_mutated_in_place_is_refused():
    ctrl = ControllerConfig()
    start = walk_of(ctrl, PlantConfig())
    ctrl.f_nom = 5.0
    with pytest.raises(ValueError, match="another controller config"):
        run_closed_loop(ctrl, PlantConfig(), Scenario(duration=1.0, disturbances=PUSH, start=start))


@pytest.mark.parametrize("enabled", [True, False])
def test_the_other_controller_switch_is_refused(enabled):
    start = walk_of(ControllerConfig(), PlantConfig(), controller_enabled=enabled)
    scenario = Scenario(duration=1.0, disturbances=PUSH, controller_enabled=not enabled, start=start)
    with pytest.raises(ValueError, match="another controller switch"):
        run_closed_loop(ControllerConfig(), PlantConfig(), scenario)


def test_another_seed_is_refused_only_with_plant_noise():
    noisy = PlantConfig(noise_gyro=0.02)
    start = walk_of(ControllerConfig(), noisy, seed=1)
    scenario = Scenario(duration=1.0, seed=2, disturbances=PUSH, start=start)
    with pytest.raises(ValueError, match="another seed under plant noise"):
        run_closed_loop(ControllerConfig(), noisy, scenario)
    # Without noise the seed is never read, so a walk under another seed fits
    quiet = replace(scenario, start=walk_of(ControllerConfig(), PlantConfig(), seed=1))
    want = run_closed_loop(ControllerConfig(), PlantConfig(), replace(quiet, start=None))
    assert run_closed_loop(ControllerConfig(), PlantConfig(), quiet).records == want.records


@pytest.mark.parametrize("late", [
    Scenario(duration=1.0, disturbances=[Disturbance("impulse", 0.4, 1.0, 0.3)]),
    Scenario(duration=1.0, disturbances=PUSH, commands=[(0.3, GaitCommand(0.1))]),
    Scenario(duration=0.2),
], ids=["disturbance", "command", "duration"])
def test_a_start_past_the_first_event_is_refused(late):
    start = walk_of(ControllerConfig(), PlantConfig())
    assert start.cycle == 49
    with pytest.raises(ValueError, match=r"its cycle 49 is past this run's first command or "
                                         r"disturbance \(cycle (2[09])\)$"):
        run_closed_loop(ControllerConfig(), PlantConfig(), replace(late, start=start))


def test_a_start_before_the_first_event_fits():
    """A walk that stops earlier than the run's quiet prefix ends is a valid start."""
    start = walk_of(ControllerConfig(), PlantConfig())
    later = Scenario(duration=1.5, disturbances=[Disturbance("impulse", 0.4, 1.0, 0.9)])
    got = run_closed_loop(ControllerConfig(), PlantConfig(), replace(later, start=start))
    assert got.records == run_closed_loop(ControllerConfig(), PlantConfig(), later).records


@pytest.mark.parametrize("enabled", [True, False])
def test_only_a_walk_pickles(monkeypatch, enabled):
    """A run without a start pickles nothing, a walk pickles its state once
    and a fork only unpickles it."""
    calls = []
    dumps, loads = pickle.dumps, pickle.loads

    def logged(name, fn):
        def call(*args):
            calls.append(name)
            return fn(*args)
        return call

    monkeypatch.setattr(pickle, "dumps", logged("dumps", dumps))
    monkeypatch.setattr(pickle, "loads", logged("loads", loads))
    scenario = Scenario(duration=1.0, controller_enabled=enabled, disturbances=PUSH,
                        commands=[(0.7, GaitCommand(0.2))])
    for cold in (scenario, Scenario(duration=1.0, controller_enabled=enabled)):
        run_closed_loop(ControllerConfig(), PlantConfig(), cold)
    assert calls == []
    start = walk(ControllerConfig(), PlantConfig(), scenario)
    assert calls == ["dumps"]
    run_closed_loop(ControllerConfig(), PlantConfig(), replace(scenario, start=start))
    assert calls == ["dumps", "loads"]


@pytest.mark.parametrize("late", [
    Scenario(duration=1.0, disturbances=[Disturbance("impulse", 0.4, 1.0, 0.0)]),
    Scenario(duration=1.0, disturbances=[Disturbance("force", 0.4, 1.0, 0.01, 0.2)]),
    Scenario(duration=1.0, commands=[(-0.5, GaitCommand(0.1))]),
    Scenario(duration=0.005),
], ids=["impulse_at_0", "force_at_dt", "command_before_0", "duration_below_dt"])
def test_walk_is_none_without_a_quiet_cycle(late):
    """No walk when even cycle 0's plant step (ending at dt) may read a
    command or disturbance, or the run has no cycle."""
    assert walk(ControllerConfig(), PlantConfig(), late) is None
    assert walk(ControllerConfig(), PlantConfig(), replace(late, controller_enabled=False)) is None


def test_a_scenario_file_cannot_set_a_start():
    with pytest.raises(ValueError, match="^scenario start: unknown key$"):
        Scenario.from_json('{"start": null}')
    assert Scenario.from_json("{}").start is None


def reachable(root):
    """root and every object reachable from it through slots and containers,
    stopping at builtin scalars."""
    seen = {}
    stack = [root]
    while stack:
        obj = stack.pop()
        if obj is None or isinstance(obj, (bool, int, float, str)) or id(obj) in seen:
            continue
        seen[id(obj)] = obj
        if isinstance(obj, (tuple, list, deque, set)):
            stack.extend(obj)
        else:
            stack.extend(getattr(obj, name) for cls in type(obj).__mro__
                         for name in cls.__dict__.get("__slots__", ()) if hasattr(obj, name))
    return list(seen.values())


def test_no_reachable_object_has_a_dict(monkeypatch):
    """Neither a fresh controller and plant nor a pair restored from a walk
    and stepped on reaches an object with a __dict__. Such an object steps
    slower once its state has been read, as pickling it into a walk does."""
    restored = []
    loads = pickle.loads

    def keeping(blob):
        restored.append(loads(blob))
        return restored[-1]

    monkeypatch.setattr(pickle, "loads", keeping)
    scenario = Scenario(duration=1.0, disturbances=PUSH)
    start = walk(ControllerConfig(), PlantConfig(), scenario)
    assert restored == []
    run_closed_loop(ControllerConfig(), PlantConfig(), replace(scenario, start=start))
    assert len(restored) == 1
    fresh = (TiltPhaseController(ControllerConfig()), SurrogatePlant(PlantConfig()))
    for pair in (fresh, restored[0]):
        objects = reachable(pair)
        # The plant's random.Random has a __dict__ (its gauss_next), but it
        # pickles through getstate and setstate, which never read it
        assert [o for o in objects if hasattr(o, "__dict__") and not isinstance(o, random.Random)] == []
        assert {type(o).__name__ for o in objects} >= {
            "TiltPhaseController", "ControllerConfig", "ExpectedWaveform", "AttitudeEstimator",
            "MeanFilter", "WlbfFilter", "BoundedIntegrator", "HoldFilter", "ImuSample",
            "SurrogatePlant", "PlantConfig", "PlantState", "Random",
        }
