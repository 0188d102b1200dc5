"""Acceptance gate: one test per headline requirement, at stated tolerance.

Each test prints a single PASS line on success; a failing requirement shows
up as a normal pytest failure for that test.
"""

import json
import math
import random
import time

import numpy as np
import pytest
from reference import (
    axis_rotation,
    composed_deviation,
    fused_yaw,
    pendulum_invariant,
    quat_angle_dist,
    random_quat,
    tilt_phase_from_quat,
)

from tiltphase.cli import EXIT_OK, main
from tiltphase.config import ControllerConfig, PlantConfig
from tiltphase.controller import (
    ActivationSet,
    GaitCommand,
    TiltPhaseController,
    crossing_energy,
    support_indicator,
)
from tiltphase.deviation import deviation_tilt
from tiltphase.estimator import ImuSample
from tiltphase.filters import (
    BoundedIntegrator,
    MeanFilter,
    WlbfFilter,
    hard_coerce2,
    one_sided_deadband,
    smooth_deadband2,
    smooth_deadband_mag,
    soft_coerce2,
    soft_coerce_1d,
)
from tiltphase.harness import Scenario, push_battery, push_threshold, run_closed_loop
from tiltphase.plant import Disturbance, SurrogatePlant
from tiltphase.rotation import quat_from_tilt_phase, quat_mul

G = 9.81


def test_rotation_round_trips():
    rng = random.Random(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100_000):
        q = random_quat(rng)
        p = tilt_phase_from_quat(q)
        if math.hypot(p.px, p.py) > math.pi - 1e-6:
            continue
        q2 = quat_mul(axis_rotation("z", p.pz), quat_from_tilt_phase(p[:2]))
        worst = max(worst, quat_angle_dist(q, q2))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-10
    assert elapsed < 5.0
    print(f"PASS rotation round trips: max error {worst:.2e} in {elapsed:.2f}s")


def test_filter_oracle_equivalence():
    rng = random.Random(99)
    worst = 0.0
    for _ in range(10_000):
        n = rng.randint(2, 25)
        f = WlbfFilter(1, n, 0.01)
        t0 = rng.uniform(-5.0, 5.0)
        buf = []
        slope = mean = None
        for k in range(n):
            t = t0 + 0.01 * k + rng.uniform(0.0, 0.005)
            x = rng.uniform(-2.0, 2.0)
            buf.append((t, x))
            slope, mean = f.step(t, (x,))
        if n < 2:
            continue
        w = np.arange(1, n + 1, dtype=float)
        w /= w.sum()
        # Shift time so the newest sample sits at 0: identical regression,
        # well-conditioned normal equations for the oracle solve
        tt = np.array([b[0] for b in buf]) - buf[-1][0]
        xx = np.array([b[1] for b in buf])
        A = np.stack([np.ones(n), tt], axis=1)
        W = np.diag(w)
        beta = np.linalg.solve(A.T @ W @ A, A.T @ W @ xx)
        worst = max(
            worst,
            abs(slope[0] - beta[1]),
            abs(mean[0] - (beta[0] + beta[1] * float(w @ tt))),
        )
    assert worst < 1e-9

    worst_mean = 0.0
    m = MeanFilter(7)
    window = []
    for _ in range(2000):
        x = (rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        window.append(x)
        got = m.step(x)
        for i in (0, 1):
            want = sum(w[i] for w in window[-7:]) / len(window[-7:])
            worst_mean = max(worst_mean, abs(got[i] - want))
    assert worst_mean < 1e-12
    print(f"PASS filter oracle equivalence: wlbf {worst:.2e}, mean {worst_mean:.2e}")


def test_coercion_and_deadband_geometry():
    rng = random.Random(4242)
    for _ in range(10_000):
        a = (rng.uniform(0.05, 2.0), rng.uniform(0.05, 2.0))
        x = (rng.uniform(-6.0, 6.0), rng.uniform(-6.0, 6.0))
        b = rng.uniform(0.01, 0.9 * min(a))
        y = soft_coerce2(*x, *a, b)
        assert (y[0] / a[0]) * (y[0] / a[0]) + (y[1] / a[1]) * (y[1] / a[1]) <= 1.0
        y = hard_coerce2(*x, *a)
        assert (y[0] / a[0]) * (y[0] / a[0]) + (y[1] / a[1]) * (y[1] / a[1]) <= 1.0 + 1e-9
        d = smooth_deadband2(*x, *a)
        assert math.hypot(*d) <= math.hypot(*x) + 1e-12
        # Off-axis directional radius (the length of a far input clamped onto
        # the ellipse) strictly below the max semi-axis
        ang = rng.uniform(0.05, math.pi / 2 - 0.05)
        r = math.hypot(*hard_coerce2(10.0 * math.cos(ang), 10.0 * math.sin(ang), *a))
        if abs(a[0] - a[1]) > 1e-9:
            assert r < max(a)

    # C1 junctions by central vs one-sided finite differences
    h = 1e-6
    worst = 0.0
    for fn, x0 in (
        (lambda m: soft_coerce_1d(m, 1.0, 0.2), 0.8),  # coercion onset
        (lambda m: smooth_deadband_mag(m, 0.3), 0.6),  # deadband blend end
        (lambda m: one_sided_deadband(m, 0.5, 0.1), 0.5),  # threshold onset
    ):
        d_plus = (fn(x0 + h) - fn(x0)) / h
        d_minus = (fn(x0) - fn(x0 - h)) / h
        worst = max(worst, abs(d_plus - d_minus))
    assert worst < 1e-4
    print(f"PASS coercion/deadband geometry: junction mismatch {worst:.2e}")


def test_deviation_tilt_zero_yaw():
    rng = random.Random(321)
    worst = 0.0
    for _ in range(10_000):
        p_b = (rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
        p_e = (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        pyn = rng.uniform(-0.4, 0.4)
        res = deviation_tilt(p_b, p_e, pyn)
        if not res.converged:
            continue
        psi_e = composed_deviation(p_b, p_e, pyn)[1]
        qy = axis_rotation("y", pyn)
        qb = quat_from_tilt_phase(p_b)
        qe = quat_from_tilt_phase(p_e)
        q_d = quat_mul(
            quat_mul(qy, (qb[0], -qb[1], -qb[2], -qb[3])),
            quat_mul(quat_mul(axis_rotation("z", psi_e), qe), axis_rotation("y", -pyn)),
        )
        worst = max(worst, abs(fused_yaw(q_d)))
    assert worst <= 1e-10

    rng2 = random.Random(654)
    for _ in range(1000):
        p_b = (rng2.uniform(-1.5, 1.5), rng2.uniform(-1.5, 1.5))
        res = deviation_tilt(p_b, (0.0, 0.0), 0.0)
        assert res.px == p_b[0] and res.py == p_b[1]  # exact
        same = deviation_tilt(p_b, p_b, 0.0)
        assert math.hypot(same.px, same.py) < 1e-10
    print(f"PASS deviation tilt: max |fused yaw| {worst:.2e}, identity cases exact")


def test_crossing_energy_properties():
    assert crossing_energy(0.0, 0.0, 2.0) == 0.0

    # Invariant conservation along an undisturbed surrogate trajectory with
    # the pivot moved to the crossing phase (no stepping, no activation)
    cfg = PlantConfig(pivot_x_right=0.7, fall_angle=1e9)
    plant = SurrogatePlant(cfg)
    plant.state.px = 0.7
    plant.state.vx = 0.2
    g0 = pendulum_invariant(0.0, 0.2, cfg.pendulum_c)
    worst = 0.0
    dt = 1e-3
    idle = ActivationSet()
    for k in range(5000):
        plant.step(idle, 0.5, k * dt, dt)
        g = pendulum_invariant(
            plant.state.px - 0.7, plant.state.vx, cfg.pendulum_c
        )
        worst = max(worst, abs(g - g0))
    rel = worst / abs(g0)
    assert rel < 1e-3

    # C1 continuity across both sign boundaries
    h = 1e-6
    c = 2.0
    mismatches = []
    for phi in (-0.5, 0.4):
        d_p = (crossing_energy(phi, h, c) - crossing_energy(phi, 0.0, c)) / h
        d_m = (crossing_energy(phi, 0.0, c) - crossing_energy(phi, -h, c)) / h
        mismatches.append(abs(d_p - d_m))
    for phidot in (-0.8, 0.8):
        d_p = (crossing_energy(h, phidot, c) - crossing_energy(0.0, phidot, c)) / h
        d_m = (crossing_energy(0.0, phidot, c) - crossing_energy(-h, phidot, c)) / h
        mismatches.append(abs(d_p - d_m))
    assert max(mismatches) < 1e-4
    print(
        f"PASS crossing energy: invariant drift {rel:.2e} rel, "
        f"C1 mismatch {max(mismatches):.2e}"
    )


def test_integrator_anti_windup():
    dt = 0.01
    u = (0.4, 0.3)
    integ = BoundedIntegrator(1.0, 1.0, 0.1)
    prev = (math.inf, math.inf)
    for _ in range(20_000):
        y = integ.step(u, dt)
        if math.hypot(y[0] - prev[0], y[1] - prev[1]) < 1e-15:
            break
        prev = y
    y_sat = integ.value
    # Trapezoidal update: the flip step itself averages to zero input, the
    # following step is the first full reversed step and must move inward
    # essentially as fast as integration ever moves, with no unwinding lag.
    rev = (-u[0], -u[1])
    y1 = integ.step(rev, dt)
    y2 = integ.step(rev, dt)
    moved = math.hypot(y2[0] - y1[0], y2[1] - y1[1])
    inward = math.hypot(y1[0], y1[1]) - math.hypot(y2[0], y2[1])
    assert moved >= 0.95 * dt * math.hypot(*u)
    assert inward >= 0.95 * dt * math.hypot(*u)
    print(
        f"PASS anti-windup: first full reversed step moved {moved:.6f} "
        f">= {0.95 * dt * math.hypot(*u):.6f}"
    )


def _bias_run(i_gain_on: bool) -> float:
    overrides = {} if i_gain_on else {"controller.i_gain": 0.0}
    sc = Scenario(
        duration=30.0,
        seed=2,
        disturbances=[Disturbance("bias", 0.0, 0.08, start_time=2.0, duration=60.0)],
        overrides=overrides,
    )
    res = run_closed_loop(ControllerConfig(), PlantConfig(), sc)
    assert not res.fallen
    tail = [r for r in res.records if r[0] > 20.0]
    mx = sum(r[6] for r in tail) / len(tail)
    my = sum(r[7] for r in tail) / len(tail)
    return math.hypot(mx, my)


def test_i_feedback_bias_rejection():
    on = _bias_run(True)
    off = _bias_run(False)
    ratio = on / off
    assert ratio <= 0.20
    print(f"PASS bias rejection: steady |mean deviation| on {on:.4f} vs off {off:.4f} (ratio {ratio:.3f})")


def test_push_recovery_improvement():
    t0 = time.perf_counter()
    ctrl, plant = ControllerConfig(), PlantConfig()
    th_on = push_threshold(ctrl, plant, True, direction=0.0, hi=6.0)
    th_off = push_threshold(ctrl, plant, False, direction=0.0, hi=6.0)
    assert th_on >= 1.5 * th_off

    levels = [0.5, 1.0, 1.5, 2.0, 2.5]
    on = push_battery(ctrl, plant, levels, 20, seed=7, controller_enabled=True)
    off = push_battery(ctrl, plant, levels, 20, seed=7, controller_enabled=False)
    for (lvl, n_on), (_, n_off) in zip(on, off):
        assert n_on >= n_off, f"level {lvl}: on {n_on} < off {n_off}"
    assert any(n_on > n_off for (_, n_on), (_, n_off) in zip(on, off))
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    ladder = ", ".join(f"{lvl:g}: {a}/{b}" for (lvl, a), (_, b) in zip(on, off))
    print(
        f"PASS push recovery: threshold on {th_on:.2f} vs off {th_off:.2f}, "
        f"ladder on/off [{ladder}] in {elapsed:.0f}s"
    )


def test_step_timing_behavior():
    cfg = ControllerConfig()
    sc = Scenario(
        duration=8.0,
        seed=1,
        disturbances=[Disturbance("impulse", 0.0, 1.2, start_time=2.0)],
        overrides={"controller.i_gain": 0.0},  # isolate timing from slow I wander
    )
    res = run_closed_loop(cfg, PlantConfig(), sc)
    assert not res.fallen

    slowed = 0
    for r in res.records:
        sig = support_indicator(r[1], cfg.double_support_width)
        if r[6] * sig > cfg.tim_deadband + 0.02:
            assert r[23] < cfg.f_nom, f"t={r[0]}: f={r[23]} not below nominal"
            slowed += 1
    assert slowed > 10

    last_out = max(
        r[0]
        for r in res.records
        if r[0] > 2.0
        and abs(r[6] * support_indicator(r[1], cfg.double_support_width)) > cfg.tim_deadband
    )
    step_time = math.pi / cfg.f_nom
    tol = cfg.tim_gain * cfg.tim_deadband / 4.0  # max in-band frequency offset
    back = [
        r[0]
        for r in res.records
        if r[0] > last_out and abs(r[23] - cfg.f_nom) <= tol
    ]
    assert back and back[0] - last_out <= step_time
    print(
        f"PASS step timing: {slowed} slowed cycles, nominal again "
        f"{back[0] - last_out:.2f}s after recrossing (step {step_time:.2f}s)"
    )


def test_max_hip_height_behavior():
    from tiltphase.rotation import quat_conj, quat_rotate

    cfg = ControllerConfig()
    ctrl = TiltPhaseController(cfg)
    dt = cfg.cycle_dt
    amp, w = 0.25, 2.0 * math.pi
    q_prev = (1.0, 0.0, 0.0, 0.0)
    insts, heights = [], []
    for k in range(1, 2001):
        t = k * dt
        q = quat_from_tilt_phase((amp * math.sin(w * t), amp * math.cos(w * t)))
        dq = quat_mul(quat_conj(q_prev), q)
        qw, x, y, z = dq
        s = math.sqrt(x * x + y * y + z * z)
        gyro = (
            (0.0, 0.0, 0.0)
            if s < 1e-15
            else tuple(2.0 * math.atan2(s, qw) / (s * dt) * v for v in (x, y, z))
        )
        accel = quat_rotate(quat_conj(q), (0.0, 0.0, G))
        act = ctrl.step(ImuSample(t, gyro, accel), GaitCommand(), dt)
        insts.append(act.instability)
        heights.append(act.max_hip_height)
        q_prev = q
    assert all(b >= a - 1e-12 for a, b in zip(insts, insts[1:]))  # monotone rise
    assert heights[-1] == pytest.approx(cfg.hh_height_lo, abs=1e-9)
    max_dh = max(abs(b - a) for a, b in zip(heights, heights[1:]))
    assert max_dh <= cfg.hh_height_rate * dt + 1e-12
    print(
        f"PASS max hip height: instability rose to {insts[-1]:.2f}, height at "
        f"{heights[-1]:.2f}, max slope {max_dh / dt:.3f}/s (limit {cfg.hh_height_rate}/s)"
    )


def test_performance_selftest(capsys):
    rc = main(["selftest", "--cycles", "20000"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    line = next(l for l in out.splitlines() if "latency" in l)
    mean_us = float(line.split("mean=")[1].split("us")[0])
    p99_us = float(line.split("p99=")[1].split("us")[0])
    assert mean_us < 50.0
    assert p99_us < 200.0
    print(f"PASS performance: mean {mean_us:.1f}us (<50), p99 {p99_us:.1f}us (<200)")


def test_replay_determinism(tmp_path):
    log = tmp_path / "log.csv"
    rng = random.Random(17)
    rows = ["t,gx,gy,gz,ax,ay,az"]
    for k in range(1, 500):
        g = [rng.uniform(-0.5, 0.5) for _ in range(3)]
        a = [rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), G]
        rows.append(",".join(repr(v) for v in [0.01 * k] + g + a))
    log.write_text("\n".join(rows) + "\n")

    t1, t2 = tmp_path / "a.trace", tmp_path / "b.trace"
    assert main(["replay", str(log), "--out", str(t1)]) == EXIT_OK
    assert main(["replay", str(log), "--out", str(t2)]) == EXIT_OK
    b1, b2 = t1.read_bytes(), t2.read_bytes()
    assert b1 == b2 and len(b1) > 0
    print(f"PASS determinism: two replays produced identical {len(b1)}-byte traces")
