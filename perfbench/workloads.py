"""Seeded inputs, the three workloads and their output checks.

Every input is made here from the benchmark seed with `random.Random`
(whose streams are stable across Python versions); the package only ever
sees the generated scenarios, IMU log and push-battery seeds.

A workload is a fixed list of units. `run(u)` is the timed call into the
package; `inspect(u, result)` runs afterwards, untimed, and checks the
outputs. One pass over all units is the deterministic body of a run: the
quality metrics come from the first pass, and a unit that runs again must
give the same digest.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

import tiltphase.harness as H
import tiltphase.trace as T
from tiltphase.config import ControllerConfig, PlantConfig
from tiltphase.controller import GaitCommand
from tiltphase.estimator import GRAVITY
from tiltphase.plant import Disturbance

CYCLE_DT = 0.01
GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


@dataclass
class Outcome:
    """What one unit did, as seen from its outputs."""

    cycles: int = 0  # trace records produced
    trials: int = 0  # harness runs: scenarios, replays or push trials
    failed: int = 0  # harness runs whose outputs failed a check
    ctrl_cycles: int = 0  # records produced with the controller on
    dev_rms: list = field(default_factory=list)  # RMS deviation tilt of each such run
    swing_out_active: int = 0
    deviation_full_path: int = 0
    trace_bytes: int = 0
    trace_records: int = 0
    on_trials: int = 0
    on_withstood: int = 0
    off_trials: int = 0
    off_withstood: int = 0

    def add(self, other: "Outcome") -> None:
        """Sum counts and concatenate lists, field by field."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


# -- output checks -------------------------------------------------------------

_COL = {name: i for i, name in enumerate(T.FIELDS)}


def _columns(records, names):
    cols = [_COL[n] for n in names]
    return np.array([[r[c] for c in cols] for r in records], dtype=float).reshape(-1, len(cols))


def check_records(records, cfg: ControllerConfig):
    """Errors in a run's trace records: non-finite values, or an action
    outside its configured ellipsoid or interval."""
    numeric = [n for n in T.FIELDS if n != "flags"]
    a = _columns(records, numeric)
    errors = []
    if not np.isfinite(a).all():
        errors.append("non-finite value in trace records")
        return errors
    col = {n: a[:, i] for i, n in enumerate(numeric)}
    ellipses = (
        ("arm tilt", "pxa", "pya", cfg.arm_limit_x, cfg.arm_limit_y),
        ("support foot tilt", "pxs", "pys", cfg.foot_limit_x, cfg.foot_limit_y),
        ("continuous foot tilt", "pxc", "pyc",
         cfg.i_cft_gain * cfg.i_bound_x, cfg.i_cft_gain * cfg.i_bound_y),
        ("hip shift", "sx", "sy", cfg.i_hip_gain * cfg.i_bound_x, cfg.i_hip_gain * cfg.i_bound_y),
        ("swing out", "pxo", "pyo", cfg.so_limit_x, cfg.so_limit_y),
        ("swing ground plane", "pxS", "pyS", cfg.sp_limit_x, cfg.sp_limit_y),
    )
    tol = 1e-9
    for label, nx, ny, ax, ay in ellipses:
        r = (col[nx] / ax) ** 2 + (col[ny] / ay) ** 2
        if (r > 1.0 + tol).any():
            errors.append(f"{label} outside its ellipsoid (max ratio {r.max():.6g})")
    if (col["pxl"] != 0.0).any() or (np.abs(col["pyl"]) > cfg.lean_limit + tol).any():
        errors.append("lean tilt outside its limit")
    if ((col["fg"] < cfg.f_min - tol) | (col["fg"] > cfg.f_max + tol)).any():
        errors.append("gait frequency outside [f_min, f_max]")
    if ((col["hmax"] < cfg.hh_height_lo - tol) | (col["hmax"] > cfg.hh_height_hi + tol)).any():
        errors.append("maximum hip height outside [hh_height_lo, hh_height_hi]")
    return errors


def controller_quality(records, cfg: ControllerConfig) -> Outcome:
    """Deviation and activity counts of one run made with the controller on."""
    c = _columns(records, ("pxd", "pyd", "pxo", "pyo", "pxE", "pyE"))
    full = (c[:, 4] != 0.0) | (c[:, 5] != 0.0) | (cfg.py_nominal != 0.0)
    return Outcome(
        ctrl_cycles=len(records),
        dev_rms=[float(np.sqrt((c[:, 0] ** 2 + c[:, 1] ** 2).mean()))],
        swing_out_active=int(((c[:, 2] != 0.0) | (c[:, 3] != 0.0)).sum()),
        deviation_full_path=int(full.sum()),
    )


def _file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class _Workload:
    name = ""
    trials_per_unit = 1
    plant = None  # PlantConfig, for workloads that run the plant

    def __init__(self):
        self._digests = {}
        self.errors = []

    def _note_digest(self, u: int, digest: str, out: Outcome) -> None:
        first = self._digests.setdefault(u, digest)
        if digest != first:
            out.failed = out.trials
            self.errors.append(f"unit {u}: digest {digest[:12]} differs from first run {first[:12]}")

    def _fail(self, u: int, out: Outcome, errors) -> None:
        if errors:
            out.failed = out.trials
            self.errors.extend(f"unit {u}: {e}" for e in errors)

    def digest(self) -> str:
        """SHA-256 over the unit digests, in unit order."""
        h = hashlib.sha256()
        for u in sorted(self._digests):
            h.update(self._digests[u].encode())
        return h.hexdigest()


# -- walk_push -------------------------------------------------------------------


def command_schedule(rng: random.Random, duration: float):
    """Gait commands that change every 1-3 s, as (time, GaitCommand) pairs."""
    out = []
    t = 0.5
    while t < duration:
        out.append((t, GaitCommand(
            rng.uniform(-0.4, 0.4), rng.uniform(-0.2, 0.2), rng.uniform(-0.3, 0.3))))
        t += rng.uniform(1.0, 3.0)
    return out


def push_series(rng: random.Random, duration: float):
    """Sub-fall impulses every 3.5-4.5 s.

    Directions advance by the golden angle from a seeded start, and the
    magnitudes cycle through 0.8, 1.0 and 1.2. Pushes that land in phase
    with the slow I-feedback wander can excite a lateral limit cycle of
    about 0.3 rad that swing out keeps re-triggering; with independent
    random directions and magnitudes, how often that happened set the RMS
    deviation of a run, and its spread across seeds was about 50%. The
    even coverage keeps that spread near 3% without hiding the cycle.
    """
    out = []
    t = 2.0
    direction = rng.uniform(-math.pi, math.pi)
    magnitudes = (0.8, 1.0, 1.2)
    while t < duration - 2.0:
        out.append(Disturbance(
            "impulse", direction=direction,
            magnitude=magnitudes[len(out) % len(magnitudes)], start_time=t))
        direction += GOLDEN_ANGLE
        t += rng.uniform(3.5, 4.5)
    return out


class WalkPush(_Workload):
    """Closed loop with shipped defaults, a long command schedule and pushes."""

    name = "walk_push"

    def __init__(self, seed: int, out_dir: Path, scenarios: int = 10, duration: float = 60.0):
        super().__init__()
        rng = random.Random(f"walk_push/{seed}")
        self.ctrl = ControllerConfig()
        self.plant = PlantConfig()
        self.scenarios = [
            H.Scenario(
                duration=duration, seed=seed,
                commands=command_schedule(rng, duration),
                disturbances=push_series(rng, duration),
            )
            for _ in range(scenarios)
        ]
        self.n_units = scenarios
        self.path = out_dir / f"walk_push-{seed}.trace"

    def run(self, u: int):
        result = H.run_closed_loop(self.ctrl, self.plant, self.scenarios[u])
        T.write_trace(self.path, result.records)
        return result

    def inspect(self, u: int, result) -> Outcome:
        records = result.records
        out = controller_quality(records, self.ctrl)
        out.cycles = out.trace_records = len(records)
        out.trials = 1
        out.trace_bytes = self.path.stat().st_size
        errors = check_records(records, self.ctrl)
        if result.fallen:
            errors.append("plant fell")
        if u not in self._digests and len(T.read_trace(self.path)) != len(records):
            errors.append("trace does not read back with the same number of records")
        self._fail(u, out, errors)
        self._note_digest(u, _file_sha256(self.path), out)
        return out


# -- replay_fitted ---------------------------------------------------------------

# The log generator keeps its own quaternion helpers, so that a change to the
# package's rotation code cannot change the benchmark's inputs.


def _qmul(a, b):
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def _tilt_quat(px, py):
    alpha = math.hypot(px, py)
    if alpha == 0.0:
        return (1.0, 0.0, 0.0, 0.0)
    s = math.sin(0.5 * alpha) / alpha
    return (math.cos(0.5 * alpha), s * px, s * py, 0.0)


def imu_log(rng: random.Random, duration: float, f_gait: float):
    """A 100 Hz IMU log of a body swaying with the gait, plus the true tilt.

    The true tilt is a per-axis sinusoid in the nominal gait phase, plus a
    slow wander of three sinusoids per axis. Gyro rates are the exact body
    rates between samples and the accelerometer reads gravity in the body
    frame; both get Gaussian noise. About 2% of accelerometer samples are
    spikes outside the estimator's 0.5-1.5 g trust gate.

    Returns (rows of t, gx, gy, gz, ax, ay, az; rows of mu, px, py).
    """
    amp = (rng.uniform(0.05, 0.06), rng.uniform(0.025, 0.035))
    phase = (rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi))
    offset = (rng.uniform(-0.01, 0.01), rng.uniform(-0.01, 0.01))
    # Fixed wander amplitudes keep the deviation's RMS, which the wander
    # sets, steady across seeds; frequencies and phases are drawn
    wander = [
        [(0.01, 2.0 * math.pi * rng.uniform(0.05, 0.3), rng.uniform(-math.pi, math.pi))
         for _ in range(3)]
        for _ in range(2)
    ]
    rows, truth = [], []
    q_prev = None
    for k in range(int(round(duration / CYCLE_DT))):
        t = (k + 1) / 100.0
        mu = f_gait * k * CYCLE_DT
        p = [
            amp[i] * math.sin(mu + phase[i]) + offset[i]
            + sum(a * math.sin(w * t + ph) for a, w, ph in wander[i])
            for i in range(2)
        ]
        q = _tilt_quat(p[0], p[1])
        if q_prev is None:
            gyro = [0.0, 0.0, 0.0]
        else:
            w, x, y, z = _qmul((q_prev[0], -q_prev[1], -q_prev[2], -q_prev[3]), q)
            s = math.sqrt(x * x + y * y + z * z)
            k_rate = 2.0 * math.atan2(s, w) / (s * CYCLE_DT) if s > 0.0 else 0.0
            gyro = [k_rate * x, k_rate * y, k_rate * z]
        q_prev = q
        # Gravity in the body frame: the z column of R(q), read as a row
        w, x, y, z = q
        accel = [
            2.0 * (x * z - w * y) * GRAVITY,
            2.0 * (y * z + w * x) * GRAVITY,
            (1.0 - 2.0 * (x * x + y * y)) * GRAVITY,
        ]
        gyro = [g + rng.gauss(0.0, 0.01) for g in gyro]
        accel = [a + rng.gauss(0.0, 0.05) for a in accel]
        if rng.random() < 0.02:
            scale = rng.uniform(1.7, 2.5) if rng.random() < 0.5 else rng.uniform(0.1, 0.4)
            accel = [a * scale for a in accel]
        rows.append((t, *gyro, *accel))
        truth.append((math.remainder(mu, 2.0 * math.pi), p[0], p[1]))
    return rows, truth


def write_imu_log(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,gx,gy,gz,ax,ay,az\n")
        for row in rows:
            fh.write(",".join(repr(v) for v in row) + "\n")


class ReplayFitted(_Workload):
    """Controller over a noisy IMU log, with a fitted non-zero expected waveform."""

    name = "replay_fitted"

    def __init__(self, seed: int, out_dir: Path, duration: float = 60.0):
        super().__init__()
        rng = random.Random(f"replay_fitted/{seed}")
        f_nom = ControllerConfig().f_nom
        rows, truth = imu_log(rng, duration, f_nom)
        log_path = out_dir / f"replay_fitted-{seed}.imu.csv"
        write_imu_log(log_path, rows)
        self.samples = H.load_imu_log(log_path)
        mu, px, py = zip(*truth)
        wave, _ = H.fit_waveform(mu, px, py)
        self.ctrl = ControllerConfig(
            wave_amp_x=wave.amp_x, wave_amp_y=wave.amp_y,
            wave_phase_x=wave.phase_x, wave_phase_y=wave.phase_y,
            wave_offset_x=wave.offset_x, wave_offset_y=wave.offset_y,
        )
        self.commands = [(0.0, GaitCommand(rng.uniform(0.1, 0.4), 0.0, rng.uniform(0.0, 0.2)))]
        self.n_units = 1
        self.path = out_dir / f"replay_fitted-{seed}.trace"

    def run(self, u: int):
        records = H.run_replay(self.ctrl, self.samples, self.commands)
        T.write_trace(self.path, records)
        return records

    def inspect(self, u: int, records) -> Outcome:
        out = controller_quality(records, self.ctrl)
        out.cycles = out.trace_records = len(records)
        out.trials = 1
        out.trace_bytes = self.path.stat().st_size
        errors = check_records(records, self.ctrl)
        if len(records) != len(self.samples):
            errors.append(f"{len(records)} records for {len(self.samples)} IMU samples")
        if u not in self._digests and len(T.read_trace(self.path)) != len(records):
            errors.append("trace does not read back with the same number of records")
        self._fail(u, out, errors)
        self._note_digest(u, _file_sha256(self.path), out)
        return out


# -- push_battery ----------------------------------------------------------------

# Spans the controller-off edge (about 1.35) and the controller-on edge
# (withstood fractions of about 0.75, 0.4 and 0.1 at 7, 8 and 9).
PUSH_LADDER = (1.0, 1.3, 1.4, 1.5, 3.0, 5.0, 6.0, 7.0, 8.0, 9.0)


class PushBattery(_Workload):
    """Paired controller-on and controller-off push batteries.

    Each unit is one `push_battery` call per side over the whole ladder with
    one push per level; its battery seed, drawn from the benchmark seed,
    sets the push directions. The trials' trace records are captured by
    wrapping `run_closed_loop`, so they can be checked after the timed call.
    """

    name = "push_battery"

    def __init__(self, seed: int, out_dir: Path, units: int = 8, ladder=PUSH_LADDER):
        super().__init__()
        rng = random.Random(f"push_battery/{seed}")
        self.ctrl = ControllerConfig()
        self.plant = PlantConfig()
        self.ladder = tuple(ladder)
        self.battery_seeds = [rng.randrange(1, 1 << 30) for _ in range(units)]
        self.n_units = units
        self.trials_per_unit = 2 * len(self.ladder)
        self.captured = []

    def capture_targets(self):
        """(owner, attribute, wrapper factory) for the run-time record capture."""
        keep = self.captured.append

        def factory(run_closed_loop):
            def capturing(ctrl_cfg, plant_cfg, scenario):
                result = run_closed_loop(ctrl_cfg, plant_cfg, scenario)
                keep((scenario.controller_enabled, result))
                return result
            return capturing

        return [(H, "run_closed_loop", factory)]

    def run(self, u: int):
        self.captured.clear()
        seed = self.battery_seeds[u]
        on = H.push_battery(self.ctrl, self.plant, self.ladder, 1, seed, controller_enabled=True)
        off = H.push_battery(self.ctrl, self.plant, self.ladder, 1, seed, controller_enabled=False)
        return on, off, list(self.captured)

    def inspect(self, u: int, result) -> Outcome:
        on, off, trials = result
        out = Outcome(trials=len(trials))
        errors = []
        h = hashlib.sha256()
        for enabled, run in trials:
            errors += check_records(run.records, self.ctrl)
            if enabled:
                out.add(controller_quality(run.records, self.ctrl))
            out.cycles += len(run.records)
            h.update(repr(run.records).encode())
        h.update(repr((on, off)).encode())
        n_on = sum(1 for enabled, _ in trials if enabled)
        out.on_trials = n_on
        out.off_trials = len(trials) - n_on
        out.on_withstood = sum(w for _, w in on)
        out.off_withstood = sum(w for _, w in off)
        if n_on != len(self.ladder) or out.off_trials != len(self.ladder):
            errors.append(f"captured {n_on}+{out.off_trials} trials, expected {len(self.ladder)} per side")
        upright = sum(1 for enabled, run in trials if enabled and not run.fallen)
        if upright != out.on_withstood:
            errors.append("withstood count disagrees with the captured trials")
        self._fail(u, out, errors)
        self._note_digest(u, h.hexdigest(), out)
        return out


WORKLOADS = {w.name: w for w in (WalkPush, ReplayFitted, PushBattery)}
