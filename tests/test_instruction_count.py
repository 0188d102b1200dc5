"""Bytecode instructions of five steady controller steps, on the control
grid and with jittered stamps, and of five closed-loop cycles with the
controller on and with it off, pinned, and of a plant step against its
schedule length.

Instruction counts are deterministic for one Python version and one input,
so unlike step timings no host load moves them. They count what the
interpreter runs in Python frames, not the C-level cost of `math.sin`,
allocation or `repr`, so they add to timing and never replace it. A change
that moves a count updates the pin here and states the delta; a pin that
fails prints its count per function, from which the delta can be read.

The counts are those of CPython 3.11; other versions compile differently
and skip. Run as a script, `python tests/test_instruction_count.py` prints
the per-function table of every pin.
"""

import gc
import math
import os
import random
import sys
from collections import Counter

import pytest

if __name__ == "__main__":  # a script run from a source checkout
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from tiltphase.config import ControllerConfig, PlantConfig
from tiltphase.controller import ActivationSet, GaitCommand, TiltPhaseController
from tiltphase.deviation import gait_phase_step
from tiltphase.estimator import GRAVITY, ImuSample
from tiltphase.filters import WlbfFilter
from tiltphase.plant import Disturbance, SurrogatePlant
from tiltphase.trace import record_values

# Expected waveform as `fit-waveform` gives it for a swaying walk: every
# cycle takes the full deviation composition
FITTED = dict(wave_amp_x=0.055, wave_amp_y=0.03, wave_phase_x=0.4, wave_phase_y=-1.1,
              wave_offset_x=0.004, wave_offset_y=-0.002)

# Instructions over steps 201-205, CPython 3.11
PINNED = {"default": 12875, "fitted": 15092}
# The same with every stamp jittered by up to 20 us: the WLBFs' direct sums
PINNED_JITTERED = {"default": 23095, "fitted": 25312}
# Instructions over closed-loop cycles 201-205, CPython 3.11
PINNED_CYCLES = 18091
# The same over controller-off cycles 201-205: the record and the dynamics
PINNED_OFF_CYCLES = 2984


def imu_stream(n, dt=0.01):
    """A body swaying about x at 2 rad/s, with a slow turn and a constant
    lateral accelerometer offset: every filter window fills."""
    for k in range(n):
        t = k * dt + dt
        a = 0.05 * math.sin(2.0 * t)
        yield ImuSample(t, (0.1 * math.cos(2.0 * t), 0.02, 0.01),
                        (-GRAVITY * math.sin(a), 0.3, GRAVITY * math.cos(a)))


def count_instructions(calls) -> Counter:
    """Bytecode instructions that the calls run, per function (its code's
    `co_qualname`, new in 3.11, else `co_name`), each call an (fn, args)
    pair; the loop over them runs in this frame, which is not traced.

    The cyclic garbage collector is off while they run: a collection would
    run the Python-level `gc.callbacks` that other code installed (Hypothesis
    installs one), and the count would depend on when the process last
    collected, not on the calls."""
    tally = Counter()

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        code = frame.f_code
        name = getattr(code, "co_qualname", code.co_name)

        def local(frame, event, arg):
            if event == "opcode":
                tally[name] += 1
            return local

        return local

    collecting = gc.isenabled()
    gc.disable()
    sys.settrace(on_call)
    try:
        for fn, args in calls:
            fn(*args)
    finally:
        sys.settrace(None)
        if collecting:
            gc.enable()
    return tally


def assert_pinned(tally: Counter, pinned: int) -> None:
    """The tally's total is the pinned count; if not, the message is the
    per-function table, largest first."""
    total = tally.total()
    rows = "\n".join(f"{n:8d}  {name}" for name, n in tally.most_common())
    assert total == pinned, f"{total} instructions, pinned {pinned}:\n{rows}"


def steady_step_instructions(cfg, warm=200, n=5, jitter=0.0):
    """Bytecode instructions of steps warm+1 .. warm+n of a fresh controller;
    every stamp moves by a uniform draw from [-jitter, jitter] seconds
    (`random.Random(1)`), off the control grid for jitter above 1 us."""
    ctrl = TiltPhaseController(cfg)
    cmd = GaitCommand(0.2, 0.0, 0.1)
    samples = list(imu_stream(warm + n))
    if jitter:
        rng = random.Random(1)
        samples = [s._replace(t=s.t + rng.uniform(-jitter, jitter)) for s in samples]
    for s in samples[:warm]:
        ctrl.step(s, cmd, cfg.cycle_dt)
    return count_instructions([(ctrl.step, (s, cmd, cfg.cycle_dt)) for s in samples[warm:]])


def pushes(n, first=3.0):
    """n sub-fall impulses 4 s apart from `first`, in walk_push's manner."""
    return [Disturbance("impulse", 0.4 + 2.4 * k, (0.8, 1.0, 1.2)[k % 3], first + 4.0 * k)
            for k in range(n)]


def closed_loop_cycle_instructions(warm=200, n=5):
    """Bytecode instructions of cycles warm+1 .. warm+n of a closed loop with
    shipped defaults, a held command and 14 pushes still to come: the
    controller step, the trace record and the plant step."""
    cfg = ControllerConfig()
    ctrl = TiltPhaseController(cfg)
    plant = SurrogatePlant(PlantConfig())
    cmd = GaitCommand(0.2, 0.0, 0.1)
    dt = cfg.cycle_dt
    plant.set_disturbances(pushes(14))
    imu = plant.step(ActivationSet(gait_frequency=cfg.f_nom), 0.0, 0.0, dt)

    def cycle(k):
        nonlocal imu
        act = ctrl.step(imu, cmd, dt)
        record_values(k * dt, act)
        imu = plant.step(act, ctrl.mu, k * dt, dt)

    for k in range(1, warm + 1):
        cycle(k)
    # The count includes the glue in `cycle` itself
    return count_instructions([(cycle, (k,)) for k in range(warm + 1, warm + n + 1)])


def open_loop_cycle_instructions(warm=200, n=5):
    """Bytecode instructions of cycles warm+1 .. warm+n of a controller-off
    closed loop as `run_closed_loop` runs it, with the pushes of
    `closed_loop_cycle_instructions`: the record and the plant's dynamics."""
    cfg = ControllerConfig()
    plant = SurrogatePlant(PlantConfig())
    dt = cfg.cycle_dt
    idle = ActivationSet(gait_frequency=cfg.f_nom)
    idle_rest = record_values(0.0, idle)[2:]
    plant.set_disturbances(pushes(14))
    plant.advance(idle, 0.0, 0.0, dt)
    mu = 0.0

    def cycle(k):
        nonlocal mu
        (k * dt, mu) + idle_rest
        mu = gait_phase_step(mu, cfg.f_nom, dt)
        plant.advance(idle, mu, k * dt, dt)

    for k in range(1, warm + 1):
        cycle(k)
    return count_instructions([(cycle, (k,)) for k in range(warm + 1, warm + n + 1)])


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="counts are pinned for CPython 3.11")
@pytest.mark.skipif(sys.implementation.name != "cpython", reason="counts CPython bytecode")
@pytest.mark.parametrize("name, cfg", [
    ("default", ControllerConfig()),
    ("fitted", ControllerConfig(**FITTED)),
])
def test_steady_step_instruction_count(name, cfg):
    if sys.gettrace() is not None:
        pytest.skip("a tracer (coverage, debugger) is already installed")
    assert_pinned(steady_step_instructions(cfg), PINNED[name])


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="counts are pinned for CPython 3.11")
@pytest.mark.skipif(sys.implementation.name != "cpython", reason="counts CPython bytecode")
@pytest.mark.parametrize("name, cfg", [
    ("default", ControllerConfig()),
    ("fitted", ControllerConfig(**FITTED)),
])
def test_jittered_step_instruction_count(name, cfg):
    """The worst case: with stamps off the grid every WLBF takes its direct sums."""
    if sys.gettrace() is not None:
        pytest.skip("a tracer (coverage, debugger) is already installed")
    assert_pinned(steady_step_instructions(cfg, jitter=20e-6), PINNED_JITTERED[name])


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="counts are pinned for CPython 3.11")
@pytest.mark.skipif(sys.implementation.name != "cpython", reason="counts CPython bytecode")
def test_closed_loop_cycle_instruction_count():
    if sys.gettrace() is not None:
        pytest.skip("a tracer (coverage, debugger) is already installed")
    assert_pinned(closed_loop_cycle_instructions(), PINNED_CYCLES)
    assert_pinned(open_loop_cycle_instructions(), PINNED_OFF_CYCLES)


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="counts are pinned for CPython 3.11")
@pytest.mark.skipif(sys.implementation.name != "cpython", reason="counts CPython bytecode")
def test_gc_callbacks_are_not_counted():
    """With a Python gc callback installed and a collection due at nearly
    every allocation, the calls' own included, the default steady steps
    still run their pinned count."""
    if sys.gettrace() is not None:
        pytest.skip("a tracer (coverage, debugger) is already installed")
    calls = []

    def on_gc(phase, info):
        calls.append(phase)

    threshold = gc.get_threshold()
    gc.callbacks.append(on_gc)
    gc.set_threshold(1, 1000, 1000)
    try:
        assert_pinned(steady_step_instructions(ControllerConfig()), PINNED["default"])
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.remove(on_gc)
    # The collector did run, in the warm-up steps
    assert calls


@pytest.mark.skipif(sys.implementation.name != "cpython", reason="counts CPython bytecode")
def test_plant_step_count_does_not_grow_with_the_schedule():
    """A plant step with 200 disturbances still to come (impulses, forces
    and biases) runs the instructions of one with a single push to come."""
    if sys.gettrace() is not None:
        pytest.skip("a tracer (coverage, debugger) is already installed")
    act = ActivationSet(arm_tilt=(0.01, -0.02), gait_frequency=ControllerConfig().f_nom)
    kinds = ("impulse", "force", "bias")
    long = [Disturbance(kinds[k % 3], 0.1 * k, 0.5, 50.0 + 0.25 * k, 0.5) for k in range(200)]
    counts = []
    for schedule in (pushes(1, first=50.0), long):
        plant = SurrogatePlant(PlantConfig())
        plant.set_disturbances(schedule)
        plant.state.px = 0.05
        for k in range(10):
            plant.step(act, 0.1 * k, 0.01 * k, 0.01)
        counts.append(count_instructions([(plant.step, (act, 1.0, 0.1, 0.01))]).total())
    assert counts[0] == counts[1]


@pytest.mark.skipif(sys.implementation.name != "cpython", reason="counts CPython bytecode")
@pytest.mark.parametrize("dim", [1, 2])
def test_wlbf_grid_step_count_does_not_grow_with_the_window(dim):
    """A grid step between re-sums updates the WLBF moments in O(1): it runs
    the same instructions at capacity 8 and at capacity 64."""
    if sys.gettrace() is not None:
        pytest.skip("a tracer (coverage, debugger) is already installed")
    counts = []
    for cap in (8, 64):
        f = WlbfFilter(dim, cap, 0.01)
        # Warm-up, the first grid step, which sums afresh, and two updates
        for k in range(1, cap + 3):
            f.step(0.01 * k, (0.1 * k,) * dim)
        assert f._left == cap - 3
        k = cap + 3
        counts.append(count_instructions([(f.step, (0.01 * k, (0.1 * k,) * dim))]).total())
    assert counts[0] == counts[1]


def pinned_tallies():
    """(name, tally, pin) for every pinned count."""
    default, fitted = ControllerConfig(), ControllerConfig(**FITTED)
    return [
        ("default steps", steady_step_instructions(default), PINNED["default"]),
        ("fitted steps", steady_step_instructions(fitted), PINNED["fitted"]),
        ("jittered default steps", steady_step_instructions(default, jitter=20e-6),
         PINNED_JITTERED["default"]),
        ("jittered fitted steps", steady_step_instructions(fitted, jitter=20e-6),
         PINNED_JITTERED["fitted"]),
        ("closed-loop cycles", closed_loop_cycle_instructions(), PINNED_CYCLES),
        ("controller-off cycles", open_loop_cycle_instructions(), PINNED_OFF_CYCLES),
    ]


if __name__ == "__main__":
    for title, tally, pin in pinned_tallies():
        print(f"{title}: {tally.total()} instructions (pinned {pin})")
        for name, n in tally.most_common():
            print(f"{n:8d}  {name}")
        print()
