"""SHA-256 of the trace bytes of two fixed closed-loop runs.

The digests were recorded before the tilt phase and fused yaw math moved
onto the shared `rotation` kernels, and any change that moves a single
trace byte fails here. A change that is meant to move traces must say so
and record the new digests.
"""

import hashlib

import pytest

from tiltphase.config import ControllerConfig, PlantConfig
from tiltphase.controller import GaitCommand
from tiltphase.harness import Scenario, run_closed_loop
from tiltphase.plant import Disturbance
from tiltphase.trace import write_trace


def default_loop_with_impulse():
    """Shipped defaults, 10 s, seed 3, one sub-fall push: the deviation fast path."""
    scenario = Scenario(
        seed=3,
        disturbances=[Disturbance("impulse", direction=0.7, magnitude=1.0, start_time=3.0)],
    )
    return ControllerConfig(), scenario


def tilted_plane_with_waveform():
    """A tilted nominal ground plane and a nonzero expected waveform, walking and
    turning: the full deviation composition and the full ground plane path."""
    cfg = ControllerConfig(
        py_nominal=0.05, wave_amp_x=0.02, wave_amp_y=0.01, wave_phase_y=0.5, wave_offset_x=0.003
    )
    scenario = Scenario(
        duration=5.0,
        seed=11,
        commands=[(0.0, GaitCommand(0.2, 0.05, 0.1))],
        disturbances=[Disturbance("impulse", direction=-2.0, magnitude=0.8, start_time=2.0)],
    )
    return cfg, scenario


@pytest.mark.parametrize("make_run, n_records, digest", [
    (default_loop_with_impulse, 1000,
     "e8e4e5b9b4f19de08244f0290c9b487e562b41e5c3ecdc607bfadf84a70f49a1"),
    (tilted_plane_with_waveform, 500,
     "d6c9e1c94393c84d34352d554abcb6aa567e8cdecd193476a9c0ce463d9d1389"),
])
def test_trace_digest(tmp_path, make_run, n_records, digest):
    cfg, scenario = make_run()
    result = run_closed_loop(cfg, PlantConfig(), scenario)
    assert not result.fallen
    assert len(result.records) == n_records
    path = tmp_path / "run.trace"
    write_trace(path, result.records)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
