"""run_closed_loop's memo of the quiet prefix: a run that replays it from the
memo must equal the run made with the memo cleared, record for record."""

import math
import pickle
import random
from collections import deque

import pytest

import tiltphase.harness as harness
from tiltphase.config import ConfigError, ControllerConfig, PlantConfig
from tiltphase.controller import GaitCommand, TiltPhaseController
from tiltphase.harness import Scenario, push_battery, run_closed_loop
from tiltphase.plant import Disturbance, SurrogatePlant


@pytest.fixture
def plant_steps(monkeypatch):
    """Counts plant steps, as SurrogatePlant.advance calls (`step` makes
    one, and the controller-off loop calls it alone); the memo starts empty
    and is put back after."""
    count = [0]
    advance = SurrogatePlant.advance

    def counting(self, *args):
        count[0] += 1
        return advance(self, *args)

    monkeypatch.setattr(SurrogatePlant, "advance", counting)
    monkeypatch.setattr(harness, "_quiet_prefix", {})
    return count


def cold(ctrl, plant, scenario):
    harness._quiet_prefix = {}
    return run_closed_loop(ctrl, plant, scenario)


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
    # A later push the prefix must not see either
    disturbances.append(Disturbance("impulse", 0.3, rng.uniform(0.5, 1.5), t_event + 0.25))
    return Scenario(duration=duration, seed=seed, controller_enabled=enabled,
                    commands=commands, disturbances=disturbances, overrides=dict(overrides))


OVERRIDES = (
    {},
    {"controller.pd_mean_order": 3, "plant.couple_arm": 2.5},
    {"controller.cycle_dt": 0.012},
)


def test_warm_prefix_equals_cleared_run(plant_steps):
    rng = random.Random(1301)
    hits = 0
    for case in range(60):
        enabled = rng.random() < 0.5
        noisy = rng.random() < 0.5
        overrides = rng.choice(OVERRIDES)
        plant = PlantConfig(noise_gyro=0.02, noise_accel=0.1) if noisy else PlantConfig()
        ctrl = ControllerConfig()
        dt = overrides.get("controller.cycle_dt", ctrl.cycle_dt)
        t_event = event_times(rng, dt)
        kind = rng.choice(("command", "impulse", "force", "bias"))
        # Shorter than the quiet prefix, or running past it
        duration = rng.choice((0.5 * max(t_event, dt), max(t_event, 0.0) + 0.4))
        seed = rng.randrange(100)
        # The warming run shares the key: a seed that only noise would read
        # and pushes of another size and direction
        warm_seed = seed if noisy else seed + 1
        warming = scenario_at(t_event, kind, duration, warm_seed, enabled, overrides, rng)
        target = scenario_at(t_event, kind, duration, seed, enabled, overrides, rng)

        want = cold(ctrl, plant, target)
        plant_steps[0] = 0
        cold(ctrl, plant, target)
        full = plant_steps[0]
        run_closed_loop(ctrl, plant, warming)
        plant_steps[0] = 0
        got = run_closed_loop(ctrl, plant, target)

        assert got.records == want.records, case
        assert got.fallen == want.fallen, case
        quiet = quiet_cycles(t_event, dt, int(round(duration / dt)))
        assert full - plant_steps[0] == quiet, case
        hits += quiet > 0
    assert hits >= 30


def test_restored_plant_resumes_its_schedule(plant_steps):
    """A run that restores the memo's plant, with the disturbances of the
    run that filled it or with others, gives it its own disturbances before
    the first event: the records equal a cleared run's, bit for bit."""
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
    want = [repr(cold(ctrl, plant, s).records) for s in (first, other)]
    cold(ctrl, plant, first)
    plant_steps[0] = 0
    assert repr(run_closed_loop(ctrl, plant, first).records) == want[0]
    assert plant_steps[0] == 401 - quiet_cycles(1.0, ctrl.cycle_dt, 400)
    assert repr(run_closed_loop(ctrl, plant, other).records) == want[1]


@pytest.mark.parametrize("enabled", [True, False])
def test_disturbances_are_set_once_per_run(monkeypatch, enabled):
    """A run gives the plant its disturbances once, before its first step:
    on a memo miss and on a hit."""
    monkeypatch.setattr(harness, "_quiet_prefix", {})
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
    for push in (1.0, 0.7):  # a miss that fills the memo, then a hit
        scenario = Scenario(duration=1.0, controller_enabled=enabled,
                            disturbances=[Disturbance("impulse", 0.4, push, 0.5)])
        calls.clear()
        run_closed_loop(ctrl, PlantConfig(), scenario)
        assert calls[0] is scenario.disturbances
        assert calls[1:] == ["advance"] * (len(calls) - 1)
    assert len(calls) - 1 == 101 - quiet_cycles(0.5, ctrl.cycle_dt, 100)


def test_alternating_switch_keeps_both_walks(monkeypatch):
    """Batteries with the controller on, off, on, off: the memo keeps one
    walk per switch, so the second on and off batteries step no plant cycle
    before the push and withstand what the first did."""
    quiet_steps = [0]
    advance = SurrogatePlant.advance

    def counting(self, act, mu, t, dt):
        quiet_steps[0] += t + dt < harness.T_PUSH  # the harness's quiet rule
        return advance(self, act, mu, t, dt)

    monkeypatch.setattr(SurrogatePlant, "advance", counting)
    monkeypatch.setattr(harness, "_quiet_prefix", {})
    ctrl = ControllerConfig()
    results = []
    counts = []
    for enabled in (True, False, True, False):
        quiet_steps[0] = 0
        results.append(push_battery(ctrl, PlantConfig(), (1.0, 7.0), 1, seed=5,
                                    controller_enabled=enabled))
        counts.append(quiet_steps[0])
    quiet = quiet_cycles(harness.T_PUSH, ctrl.cycle_dt, 700)
    assert quiet > 190
    assert counts == [quiet, quiet, 0, 0]
    assert results[:2] == results[2:]


def test_noise_seed_is_part_of_the_key(plant_steps):
    plant = PlantConfig(noise_gyro=0.02)
    ctrl = ControllerConfig()
    push = [Disturbance("impulse", 0.4, 1.0, 0.5)]
    a = Scenario(duration=1.0, seed=1, disturbances=push)
    b = Scenario(duration=1.0, seed=2, disturbances=push)
    want = cold(ctrl, plant, b).records
    run_closed_loop(ctrl, plant, a)
    plant_steps[0] = 0
    assert run_closed_loop(ctrl, plant, b).records == want
    assert plant_steps[0] == 101  # a miss: every cycle ran


@pytest.mark.parametrize("enabled", [True, False])
def test_config_mutated_in_place_misses(plant_steps, enabled):
    ctrl = ControllerConfig()
    plant = PlantConfig()
    scenario = Scenario(duration=1.0, controller_enabled=enabled,
                        disturbances=[Disturbance("impulse", 0.4, 1.0, 0.5)])
    run_closed_loop(ctrl, plant, scenario)
    ctrl.f_nom = 5.0
    plant.couple_foot = 5.0
    plant_steps[0] = 0
    got = run_closed_loop(ctrl, plant, scenario)
    assert plant_steps[0] == 101
    assert got.records == cold(ctrl, plant, scenario).records
    assert got.records != cold(ControllerConfig(), PlantConfig(), scenario).records


def test_signed_zero_and_int_fields_are_told_apart(plant_steps):
    # Each of these equals a default field under ==, yet changes the trace
    scenario = Scenario(duration=1.0, disturbances=[Disturbance("impulse", 0.4, 1.0, 0.5)])
    for ctrl in (ControllerConfig(wave_offset_x=-0.0), ControllerConfig(wave_offset_y=-0.0),
                 ControllerConfig(hh_height_hi=1)):
        want = repr(cold(ctrl, PlantConfig(), scenario).records)
        cold(ControllerConfig(), PlantConfig(), scenario)
        assert repr(run_closed_loop(ctrl, PlantConfig(), scenario).records) == want


def test_invalid_config_raises_with_the_memo_warm(plant_steps):
    scenario = Scenario(duration=1.0, disturbances=[Disturbance("impulse", 0.4, 1.0, 0.5)])
    run_closed_loop(ControllerConfig(), PlantConfig(), scenario)
    with pytest.raises(ConfigError, match="cycle_dt"):
        run_closed_loop(ControllerConfig(cycle_dt=-0.01), PlantConfig(), scenario)
    with pytest.raises(ConfigError, match="pendulum_c"):
        run_closed_loop(ControllerConfig(), PlantConfig(pendulum_c=0.0), scenario)


@pytest.mark.parametrize("enabled", [True, False])
def test_a_memo_hit_builds_and_validates_nothing(monkeypatch, enabled):
    """A hit builds no controller or plant, which the memo's copy replaces,
    and checks no config: the miss that stored the copy checked configs of
    the key's repr, and the copy holds configs equal to the run's, repr for
    repr."""
    monkeypatch.setattr(harness, "_quiet_prefix", {})
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
    run_closed_loop(ControllerConfig(), PlantConfig(), scenario)
    built = ["TiltPhaseController.__init__", "ControllerConfig.validate"] if enabled else []
    assert calls == built + ["SurrogatePlant.__init__", "PlantConfig.validate"]
    calls.clear()
    run_closed_loop(ControllerConfig(), PlantConfig(), scenario)
    assert calls == []
    controller, plant = pickle.loads(harness._quiet_prefix[enabled][1])
    assert repr(plant.cfg) == repr(PlantConfig())
    assert repr(controller.cfg) == repr(ControllerConfig()) if enabled else controller is None


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
    """Neither a fresh controller and plant nor a pair restored from the memo
    and stepped on reaches an object with a __dict__. Such an object steps
    slower once its state has been read, as pickling it into the memo does."""
    monkeypatch.setattr(harness, "_quiet_prefix", {})
    restored = []
    loads = pickle.loads

    def keeping(blob):
        restored.append(loads(blob))
        return restored[-1]

    monkeypatch.setattr(pickle, "loads", keeping)
    scenario = Scenario(duration=1.0, disturbances=[Disturbance("impulse", 0.4, 1.0, 0.5)])
    for _ in range(2):  # fills the memo, then restores from it
        run_closed_loop(ControllerConfig(), PlantConfig(), scenario)
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
