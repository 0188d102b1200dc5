"""SHA-256 of the trace bytes of two fixed closed-loop runs and one replay,
and the exact outputs of `fit_waveform` and of a push battery.

The replay digests were recorded before the trace columns and the row
reader were declared once, the controller-off push battery golden before
numpy moved inside `fit_waveform`, and the `fit_waveform` bits when its
numpy least squares became a closed-form fit on the standard library. The
two closed-loop digests, the `fit-waveform` CLI digest and the
controller-on push battery digest were re-pinned in one trace epoch, when
the plant's default RK4 substep went from 1 ms to 5 ms and saturated
`soft_coerce2` outputs were stepped back inside their ellipse: every column
of both closed loops moved by at most 2.2e-10, with no flag and no fall
result changed. A second epoch re-pinned the same two closed loops, both
replay digests, the `fit-waveform` CLI digest and the controller-on push
battery digest: the WLBF filters took fixed weights on the control grid,
the swing ground plane took its tilt from the deviation tilt's quaternion
product, and replay took `cycle_dt` as its step wherever a sample is on
the grid. Every column moved by at most 1.2e-14 (closed loops) and
1.4e-14 (replay), with no flag, fall result or push threshold changed. A
third epoch re-pinned the same six: the grid WLBF fits from running
moments updated in O(1), the elliptical kernels square by multiplication
instead of `** 2` and take a circle's radius (and equal directional gains)
exactly, and the plant sums its coupling and force terms into one forcing
term per axis before the RK4 substeps. Every column moved by at most
1.2e-14 (closed loops) and 1.1e-15 (replay), with no flag, fall result or
push threshold changed. A fourth epoch re-pinned the two closed loops, the
`fit-waveform` CLI digest and the controller-on push battery digest: the
plant integrates each 10 ms cycle in one fifth-order Nystrom step instead
of two 5 ms RK4 substeps. Every column moved by at most 2.2e-10 (sd; the
others by at most 4.6e-11), with no flag, fall result or push threshold
changed; the replay digests and the controller-off battery did not move.
A fifth epoch re-pinned the full-path closed loop and both replay
digests: `deviation_tilt` became one kernel that takes psi_E's half-angle
pair straight from z1 and z2 and the deviation's zero z component as
zero. Every column moved by at most 1.3e-14 (closed loop) and 1.5e-15
(replay), with no flag changed; the fast-path closed loop, the push
batteries and both `fit_waveform` goldens did not move.
Any change that moves a single trace byte fails here. A change that is
meant to move traces must say so, state its bound and record the new
digests. The accuracy tests at the end pin the 10 ms default step against
a finer one.
"""

import hashlib
import json
import math
import random

import pytest
from reference import composed_deviation_tilt

from tiltphase import controller, harness
from tiltphase.cli import EXIT_OK, main
from tiltphase.config import ControllerConfig, PlantConfig
from tiltphase.controller import GaitCommand
from tiltphase.harness import (
    Scenario,
    fit_waveform,
    load_imu_log,
    push_battery,
    run_closed_loop,
    run_replay,
)
from tiltphase.plant import Disturbance, SurrogatePlant
from tiltphase.trace import format_record, write_trace

FIT_WAVEFORM_HEX = [
    "0x1.ed23e3d8669f3p-6", "0x1.43f999b2fec59p-6", "0x1.9494d5ab7607ap-2",
    "-0x1.1b503f6160554p+0", "0x1.0508c931fa785p-8", "-0x1.ba0c894aeda24p-11",
    "0x1.0877c0f4be591p-9", "0x1.0a79dd48ddfbbp-9",
]
FIT_WAVEFORM_CLI_SHA256 = "c671878a27663a09109c9a727c580ebf2dc02a1dfd70f35ecc3a64f4813fb1b5"
PUSH_BATTERY_GOLDEN = [
    (True, [(1.0, 1), (1.5, 1), (7.0, 1)],
     "484a590318a08ba4a7593f9c35ed713cb526173a958b9b6fe620129c6e3f84d1"),
    (False, [(1.0, 1), (1.5, 0), (7.0, 0)],
     "05f013fe77741db6bdc6b4853e33784f84c3a8034e9f2c28b04adc497e08f271"),
]


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
     "65923257105b7296954b7b85aef328d33739929c7a150ad2e1338f86801f6817"),
    (tilted_plane_with_waveform, 500,
     "850bcac78fad5ce2243d01c7ec35c3187f3e3261a50cb2d90a955565828ea991"),
], ids=["default_loop_with_impulse", "tilted_plane_with_waveform"])
def test_trace_digest(tmp_path, make_run, n_records, digest):
    cfg, scenario = make_run()
    result = run_closed_loop(cfg, PlantConfig(), scenario)
    assert not result.fallen
    assert len(result.records) == n_records
    path = tmp_path / "run.trace"
    write_trace(path, result.records)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def noisy_imu_log(path, n=400, seed=5):
    """A walking-like IMU log with sensor noise and accelerometer spikes that
    the estimator's gate rejects, written as CSV with a header line."""
    rng = random.Random(seed)
    lines = ["t,gx,gy,gz,ax,ay,az"]
    for k in range(1, n + 1):
        t = 0.01 * k
        phase = 2.0 * math.pi * 1.8 * t
        px, py = 0.03 * math.sin(phase + 0.4), 0.02 * math.sin(phase)
        gyro = [
            0.34 * math.cos(phase + 0.4) + rng.gauss(0.0, 0.01),
            0.23 * math.cos(phase) + rng.gauss(0.0, 0.01),
            rng.gauss(0.0, 0.005),
        ]
        accel = [
            9.81 * math.sin(py) + rng.gauss(0.0, 0.05),
            -9.81 * math.sin(px) + rng.gauss(0.0, 0.05),
            9.81 * math.cos(px) * math.cos(py) + rng.gauss(0.0, 0.05),
        ]
        if k % 37 == 0:
            accel = [a * 2.2 for a in accel]
        lines.append(",".join(repr(v) for v in (t, *gyro, *accel)))
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("csv, digest", [
    (False, "ad3684342e3709371ca87b69c25fd840f14f3c86ec234e31c7db97022142ae06"),
    (True, "14b69507a5df5c74978bd980e54f800f8fa13125331cdf1c2fb9ed897de0dc82"),
], ids=["noisy_replay_trace", "noisy_replay_csv"])
def test_replay_trace_digest(tmp_path, csv, digest):
    """A fitted-like waveform and a constant command over a noisy log: the
    estimator's gate, the full deviation path and both `write_trace` modes."""
    log = tmp_path / "imu.csv"
    noisy_imu_log(log)
    cfg = ControllerConfig(
        wave_amp_x=0.03, wave_amp_y=0.02, wave_phase_x=0.4, wave_offset_y=-0.002
    )
    records = run_replay(cfg, load_imu_log(log), [(0.0, GaitCommand(0.25, 0.0, 0.1))])
    assert len(records) == 400
    path = tmp_path / "run.trace"
    write_trace(path, records, csv=csv)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# Held, changed, through -0.0 and +0.0, and steps of vx that drive the
# leaning slope limiter at its rate both ways
LEAN_SCHEDULE = [
    (0.0, GaitCommand(0.2, 0.0, 0.1)), (0.5, GaitCommand(0.2, 0.0, 0.1)),
    (0.7, GaitCommand(0.2, 0.0, -0.1)), (0.9, GaitCommand(0.2, 0.05, 0.3)),
    (1.2, GaitCommand(-0.0, 0.0, 0.3)), (1.5, GaitCommand(0.0, 0.0, 0.3)),
    (1.8, GaitCommand(-0.0, 0.0, -0.0)), (2.1, GaitCommand(0.0, 0.0, 0.0)),
    (2.3, GaitCommand(1.5, 0.0, 0.0)), (2.9, GaitCommand(-1.5, 0.1, 0.2)),
    (3.3, GaitCommand(-1.5, 0.1, -0.2)), (3.6, GaitCommand(-0.0, 0.0, 0.0)),
]


@pytest.mark.parametrize("overrides, digest", [
    ({}, "e879655ed3415a07ee64bd1b7062a72ac0a45ff61797240d3b2f71a0984170a4"),
    ({"lean_gain_wz": -0.05, "lean_gain_ax": -0.05},
     "d56e60ac380f4da4f690fd1cec17d8c797a3720705006000da69ec612d8d78a9"),
], ids=["lean_schedule", "lean_schedule_negative_gains"])
def test_lean_schedule_digest(tmp_path, overrides, digest):
    """A replay over `LEAN_SCHEDULE`, with stamps jittered by up to 20 us
    from 2.5 s to 2.7 s: the leaning action's held fits, its direct sums
    and its slope limiter saturated. With negative wz and ax gains, a
    command of -0.0 leans by -0.0."""
    log = tmp_path / "imu.csv"
    noisy_imu_log(log)
    rng = random.Random(3)
    samples = [s._replace(t=s.t + rng.uniform(-2e-5, 2e-5)) if 250 <= k < 270 else s
               for k, s in enumerate(load_imu_log(log))]
    records = run_replay(ControllerConfig(**overrides), samples, LEAN_SCHEDULE)
    path = tmp_path / "run.trace"
    write_trace(path, records)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def noisy_tilt_waveform(n=300, seed=9):
    """Gait phase and body tilt: a sinusoid with offset per axis plus seeded noise."""
    rng = random.Random(seed)
    mu = [(0.113 * k) % (2.0 * math.pi) - math.pi for k in range(n)]
    px = [0.03 * math.sin(m + 0.4) + 0.004 + rng.gauss(0.0, 0.002) for m in mu]
    py = [0.02 * math.sin(m - 1.1) - 0.001 + rng.gauss(0.0, 0.002) for m in mu]
    return mu, px, py


def test_fit_waveform_bits():
    wave, rms = fit_waveform(*noisy_tilt_waveform())
    values = (*wave, *rms)
    assert [float.hex(v) for v in values] == FIT_WAVEFORM_HEX


def test_fit_waveform_cli_digest(tmp_path, capsys):
    """`fit-waveform` on the trace of a walking, turning, pushed `simulate` run."""
    scenario = {
        "duration": 3.0,
        "seed": 4,
        "commands": [{"t": 0.0, "vx": 0.2, "wz": 0.1}],
        "disturbances": [
            {"kind": "impulse", "direction": 0.7, "magnitude": 1.0, "start_time": 1.0}
        ],
    }
    sc, trace, out = tmp_path / "walk.json", tmp_path / "run.trace", tmp_path / "wave.json"
    sc.write_text(json.dumps(scenario))
    assert main(["simulate", "--scenario", str(sc), "--out", str(trace)]) == EXIT_OK
    assert main(["fit-waveform", str(trace), "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FIT_WAVEFORM_CLI_SHA256


# Test ids by scenario, so that re-pinning a digest keeps them
PUSH_BATTERY_IDS = ["battery_controller_on", "battery_controller_off"]


def golden_battery(enabled):
    """Ladder (1.0, 1.5, 7.0), one push per level, seed 5: (withstood counts,
    SHA-256 of every trial's records, plant steps)."""
    h = hashlib.sha256()
    steps = [0]
    run = harness.run_closed_loop
    advance = SurrogatePlant.advance

    def recording_run(*args, **kwargs):
        result = run(*args, **kwargs)
        for rec in result.records:
            h.update((format_record(rec) + "\n").encode())
        h.update(b"--\n")
        return result

    def counting(self, *args):
        steps[0] += 1
        return advance(self, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "run_closed_loop", recording_run)
        mp.setattr(SurrogatePlant, "advance", counting)
        results = push_battery(ControllerConfig(), PlantConfig(), (1.0, 1.5, 7.0), 1, seed=5,
                               controller_enabled=enabled)
    return results, h.hexdigest(), steps[0]


@pytest.mark.parametrize("enabled, withstood, digest", PUSH_BATTERY_GOLDEN, ids=PUSH_BATTERY_IDS)
def test_push_battery_digest(enabled, withstood, digest):
    """The push trial path, the plant at rest and, with the controller off,
    the open loop."""
    results, got, _ = golden_battery(enabled)
    assert results == withstood
    assert got == digest


@pytest.mark.parametrize("enabled, withstood, digest", PUSH_BATTERY_GOLDEN, ids=PUSH_BATTERY_IDS)
def test_push_battery_digest_twice_in_one_process(enabled, withstood, digest):
    """The same battery twice in one process: the same digest and the same
    plant step count, so nothing the first battery leaves behind shortens
    or changes the second."""
    first = golden_battery(enabled)
    assert golden_battery(enabled) == first == (withstood, digest, first[2])


@pytest.mark.parametrize("make_run", [default_loop_with_impulse, tilted_plane_with_waveform])
def test_default_substep_matches_a_finer_one(make_run):
    """The default 10 ms Nystrom step against 0.5 ms: every traced column of
    both golden closed loops within 1e-10 (3.2e-12 measured), the flags equal."""
    cfg, scenario = make_run()
    coarse = run_closed_loop(cfg, PlantConfig(), scenario).records
    fine = run_closed_loop(cfg, PlantConfig(substep_dt=5e-4), scenario).records
    assert len(coarse) == len(fine)
    worst = 0.0
    for a, b in zip(coarse, fine):
        assert a[-1] == b[-1]
        worst = max(worst, max(abs(x - y) for x, y in zip(a[:-1], b[:-1])))
    assert worst <= 1e-10


def test_deviation_kernel_matches_the_composition(monkeypatch):
    """The golden closed loop with the full deviation path, on the one-kernel
    deviation tilt and on the composition it replaced: every traced column
    within 1e-13 (1.3e-14 measured), the flags equal."""
    cfg, scenario = tilted_plane_with_waveform()
    kernel = run_closed_loop(cfg, PlantConfig(), scenario).records
    monkeypatch.setattr(controller, "deviation_tilt", composed_deviation_tilt)
    composed = run_closed_loop(cfg, PlantConfig(), scenario).records
    assert len(kernel) == len(composed) == 500
    worst = 0.0
    for a, b in zip(kernel, composed):
        assert a[-1] == b[-1]
        worst = max(worst, max(abs(x - y) for x, y in zip(a[:-1], b[:-1])))
    assert 0.0 < worst <= 1e-13


def test_default_substep_keeps_the_fall_results():
    """Controller on and off, over a ladder across both fall edges: the same
    fall results as with a 1 ms step."""
    ladder = (1.0, 1.4, 2.0, 6.0, 9.0, 12.0)
    for enabled in (True, False):
        results = [
            push_battery(ControllerConfig(), plant, ladder, 2, seed=7, controller_enabled=enabled)
            for plant in (PlantConfig(), PlantConfig(substep_dt=1e-3))
        ]
        assert results[0] == results[1]
        assert 0 < sum(n for _, n in results[0]) < 2 * len(ladder)
