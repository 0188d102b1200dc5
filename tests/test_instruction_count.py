"""Bytecode instructions of five steady controller steps, pinned.

Instruction counts are deterministic for one Python version and one input,
so unlike step timings no host load moves them. They count what the
interpreter runs in Python frames, not the C-level cost of `math.sin`,
allocation or `repr`, so they add to timing and never replace it. A change
that moves a count updates the pin here and states the delta.

The counts are those of CPython 3.11; other versions compile differently
and skip.
"""

import math
import sys

import pytest

from tiltphase.config import ControllerConfig
from tiltphase.controller import GaitCommand, TiltPhaseController
from tiltphase.estimator import GRAVITY, ImuSample

# Expected waveform as `fit-waveform` gives it for a swaying walk: every
# cycle takes the full deviation composition
FITTED = dict(wave_amp_x=0.055, wave_amp_y=0.03, wave_phase_x=0.4, wave_phase_y=-1.1,
              wave_offset_x=0.004, wave_offset_y=-0.002)

# Instructions over steps 201-205, CPython 3.11
PINNED = {"default": 19330, "fitted": 22289}


def imu_stream(n, dt=0.01):
    """A body swaying about x at 2 rad/s, with a slow turn and a constant
    lateral accelerometer offset: every filter window fills."""
    for k in range(n):
        t = k * dt + dt
        a = 0.05 * math.sin(2.0 * t)
        yield ImuSample(t, (0.1 * math.cos(2.0 * t), 0.02, 0.01),
                        (-GRAVITY * math.sin(a), 0.3, GRAVITY * math.cos(a)))


def steady_step_instructions(cfg, warm=200, n=5):
    """Bytecode instructions of steps warm+1 .. warm+n of a fresh controller."""
    ctrl = TiltPhaseController(cfg)
    cmd = GaitCommand(0.2, 0.0, 0.1)
    samples = list(imu_stream(warm + n))
    for s in samples[:warm]:
        ctrl.step(s, cmd, cfg.cycle_dt)
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    sys.settrace(on_call)
    try:
        for s in samples[warm:]:
            ctrl.step(s, cmd, cfg.cycle_dt)
    finally:
        sys.settrace(None)
    return count


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="counts are pinned for CPython 3.11")
@pytest.mark.skipif(sys.implementation.name != "cpython", reason="counts CPython bytecode")
@pytest.mark.parametrize("name, cfg", [
    ("default", ControllerConfig()),
    ("fitted", ControllerConfig(**FITTED)),
])
def test_steady_step_instruction_count(name, cfg):
    if sys.gettrace() is not None:
        pytest.skip("a tracer (coverage, debugger) is already installed")
    assert steady_step_instructions(cfg) == PINNED[name]
