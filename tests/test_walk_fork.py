"""Forked runs: a run that goes on from another run's walk (`Scenario.start`)
must equal the full run, records and `fallen` bit for bit, and a walk that
does not fit the run must be refused, naming why."""

import math
import pickle
import random
from collections import deque

import pytest

import tiltphase.harness as harness
from tiltphase.config import ControllerConfig, PlantConfig, replace
from tiltphase.controller import GaitCommand, TiltPhaseController
from tiltphase.estimator import ImuSample
from tiltphase.harness import Scenario, push_battery, run_closed_loop
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
        walk = run_closed_loop(ctrl, plant, walking).walk
        quiet = quiet_cycles(t_event, dt, int(round(duration / dt)))
        if walk is None:
            assert quiet == 0, case
            continue
        assert walk.cycle == quiet, case
        plant_steps[0] = 0
        got = run_closed_loop(ctrl, plant, replace(target, start=walk))

        assert got.records == want.records, case
        assert got.fallen == want.fallen, case
        assert got.walk is walk, case
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
        walk = run_closed_loop(ctrl, plant, walking).walk
        assert walk.cycle == quiet_cycles(t_event, ctrl.cycle_dt, 120)
        want = run_closed_loop(ctrl, plant, target)
        got = run_closed_loop(ctrl, plant, replace(target, start=walk))
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
    walk = run_closed_loop(ctrl, plant, first).walk
    plant_steps[0] = 0
    assert repr(run_closed_loop(ctrl, plant, replace(first, start=walk)).records) == want[0]
    assert plant_steps[0] == 401 - quiet_cycles(1.0, ctrl.cycle_dt, 400)
    assert repr(run_closed_loop(ctrl, plant, replace(other, start=walk)).records) == want[1]


@pytest.mark.parametrize("enabled", [True, False])
def test_disturbances_are_set_once_per_run(monkeypatch, enabled):
    """A run gives the plant its disturbances once, before its first step:
    when it walks and when it forks."""
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
    walk = None
    for push in (1.0, 0.7):  # a walk, then a fork of it
        scenario = Scenario(duration=1.0, controller_enabled=enabled, start=walk,
                            disturbances=[Disturbance("impulse", 0.4, push, 0.5)])
        calls.clear()
        walk = run_closed_loop(ctrl, PlantConfig(), scenario).walk
        assert calls[0] is scenario.disturbances
        assert calls[1:] == ["advance"] * (len(calls) - 1)
    assert len(calls) - 1 == 101 - quiet_cycles(0.5, ctrl.cycle_dt, 100)


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
    4 x 5 battery walks once per seed and forks the other 15 trials, and
    every trial equals its cold run, records and `fallen` bit for bit."""
    ctrl = ControllerConfig()
    plant = PlantConfig(noise_gyro=0.02, noise_accel=0.1)
    trials = []
    run = harness.run_closed_loop

    def capturing(ctrl_cfg, plant_cfg, scenario):
        trials.append((scenario, run(ctrl_cfg, plant_cfg, scenario)))
        return trials[-1][1]

    monkeypatch.setattr(harness, "run_closed_loop", capturing)
    push_battery(ctrl, plant, (1.0, 3.0, 6.0, 8.0), 5, seed=3, controller_enabled=enabled)
    cold = [scenario.seed for scenario, _ in trials if scenario.start is None]
    assert cold == [3000, 3001, 3002, 3003, 3004]
    assert len(trials) == 20
    for scenario, got in trials:
        if scenario.start is not None:
            assert scenario.start.key[-1] == scenario.seed
        want = run(ctrl, plant, replace(scenario, start=None))
        assert (got.records, got.fallen) == (want.records, want.fallen)


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
    walk = run_closed_loop(ControllerConfig(), PlantConfig(), scenario).walk
    built = ["TiltPhaseController.__init__", "ControllerConfig.validate"] if enabled else []
    assert calls == built + ["SurrogatePlant.__init__", "PlantConfig.validate"]
    calls.clear()
    run_closed_loop(ControllerConfig(), PlantConfig(), replace(scenario, start=walk))
    assert calls == []
    controller, plant, imu, mu_open = pickle.loads(walk.blob)
    assert repr(plant.cfg) == repr(PlantConfig())
    assert repr(controller.cfg) == repr(ControllerConfig()) if enabled else controller is None
    # The open loop keeps no IMU sample, and the closed loop no open-loop mu
    if enabled:
        assert type(imu) is ImuSample and mu_open == 0.0
    else:
        assert imu is None and mu_open > 0.0


PUSH = [Disturbance("impulse", 0.4, 1.0, 0.5)]


def walk_of(ctrl, plant, **scenario):
    return run_closed_loop(ctrl, plant, Scenario(duration=1.0, disturbances=PUSH, **scenario)).walk


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
    walk = walk_of(*walked)
    with pytest.raises(ValueError, match=f"^scenario start: walked with another {cause} "):
        run_closed_loop(*run, Scenario(duration=1.0, disturbances=PUSH, start=walk))


def test_config_mutated_in_place_is_refused():
    ctrl = ControllerConfig()
    walk = walk_of(ctrl, PlantConfig())
    ctrl.f_nom = 5.0
    with pytest.raises(ValueError, match="another controller config"):
        run_closed_loop(ctrl, PlantConfig(), Scenario(duration=1.0, disturbances=PUSH, start=walk))


@pytest.mark.parametrize("enabled", [True, False])
def test_the_other_controller_switch_is_refused(enabled):
    walk = walk_of(ControllerConfig(), PlantConfig(), controller_enabled=enabled)
    scenario = Scenario(duration=1.0, disturbances=PUSH, controller_enabled=not enabled, start=walk)
    with pytest.raises(ValueError, match="another controller switch"):
        run_closed_loop(ControllerConfig(), PlantConfig(), scenario)


def test_another_seed_is_refused_only_with_plant_noise():
    noisy = PlantConfig(noise_gyro=0.02)
    walk = walk_of(ControllerConfig(), noisy, seed=1)
    scenario = Scenario(duration=1.0, seed=2, disturbances=PUSH, start=walk)
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
    walk = walk_of(ControllerConfig(), PlantConfig())
    assert walk.cycle == 49
    with pytest.raises(ValueError, match=r"its cycle 49 is past this run's first command or "
                                         r"disturbance \(cycle (2[09])\)$"):
        run_closed_loop(ControllerConfig(), PlantConfig(), replace(late, start=walk))


def test_a_start_before_the_first_event_fits():
    """A walk that stops earlier than the run's quiet prefix ends is a valid start."""
    walk = walk_of(ControllerConfig(), PlantConfig())
    later = Scenario(duration=1.5, disturbances=[Disturbance("impulse", 0.4, 1.0, 0.9)])
    got = run_closed_loop(ControllerConfig(), PlantConfig(), replace(later, start=walk))
    assert got.records == run_closed_loop(ControllerConfig(), PlantConfig(), later).records


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
    walk = run_closed_loop(ControllerConfig(), PlantConfig(), scenario).walk
    assert restored == []
    run_closed_loop(ControllerConfig(), PlantConfig(), replace(scenario, start=walk))
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
