import math
import random

import pytest

from tiltphase.config import ControllerConfig
from tiltphase.controller import (
    ActivationSet,
    GaitCommand,
    TiltPhaseController,
    crossing_energy,
    directional_gain,
    pendulum_invariant,
    support_indicator,
    timing_law,
)
from tiltphase.estimator import ImuSample
from tiltphase.filters import Ellipsoid, smooth_deadband_ellip, soft_coerce_ellip
from tiltphase.rotation import quat_conj, quat_from_tilt_phase, quat_mul, quat_rotate

G = 9.81


def imu_for_tilt(p, p_prev, t, dt):
    """Synthesize an exact IMU sample moving the body tilt from p_prev to p."""
    q = quat_from_tilt_phase(p)
    dq = quat_mul(quat_conj(quat_from_tilt_phase(p_prev)), q)
    w, x, y, z = dq
    s = math.sqrt(x * x + y * y + z * z)
    if s < 1e-15:
        gyro = (0.0, 0.0, 0.0)
    else:
        k = 2.0 * math.atan2(s, w) / (s * dt)
        gyro = (k * x, k * y, k * z)
    accel = quat_rotate(quat_conj(q), (0.0, 0.0, G))
    return ImuSample(t, gyro, accel)


class TestCrossingEnergy:
    def test_zero_at_verge_rest(self):
        assert crossing_energy(0.0, 0.0, 2.0) == 0.0

    def test_negative_at_safe_rest(self):
        # Resting short of the verge: no crossing tendency at all
        assert crossing_energy(-0.5, 0.0, 2.0) < 0.0

    def test_positive_past_verge(self):
        assert crossing_energy(0.3, 0.0, 2.0) > 0.0
        assert crossing_energy(0.3, 0.5, 2.0) > 0.0

    def test_matches_invariant_on_inside_approach(self):
        # Approaching the verge from the safe side with positive rate, the
        # severity equals the conserved pendulum quantity, so it is constant
        # along any undisturbed trajectory segment of that kind.
        rng = random.Random(11)
        for _ in range(200):
            phi = rng.uniform(-1.2, -1e-3)
            phidot = rng.uniform(1e-3, 2.0)
            c = rng.uniform(0.5, 3.0)
            assert crossing_energy(phi, phidot, c) == pytest.approx(
                pendulum_invariant(phi, phidot, c), abs=1e-12
            )

    def test_zero_on_critical_trajectory(self):
        # A trajectory that comes to rest exactly on the verge has zero
        # invariant, hence zero severity everywhere on its inside approach.
        c = 2.0
        for phi in (-1.0, -0.5, -0.1, -1e-4):
            phidot = c * math.sqrt(2.0 * (1.0 - math.cos(phi)))
            assert crossing_energy(phi, phidot, c) == pytest.approx(0.0, abs=1e-12)

    def test_c1_across_phidot_zero(self):
        c, phi, h = 2.0, -0.4, 1e-6
        d_plus = (crossing_energy(phi, h, c) - crossing_energy(phi, 0.0, c)) / h
        d_minus = (crossing_energy(phi, 0.0, c) - crossing_energy(phi, -h, c)) / h
        assert d_plus == pytest.approx(d_minus, abs=1e-4)

    def test_c1_across_phi_zero(self):
        c, phidot, h = 2.0, 0.7, 1e-6
        d_plus = (crossing_energy(h, phidot, c) - crossing_energy(0.0, phidot, c)) / h
        d_minus = (crossing_energy(0.0, phidot, c) - crossing_energy(-h, phidot, c)) / h
        assert d_plus == pytest.approx(d_minus, abs=1e-4)

    def test_monotone_in_rate_toward_crossing(self):
        c, phi = 2.0, -0.3
        vals = [crossing_energy(phi, v, c) for v in (-1.0, -0.5, 0.0, 0.5, 1.0)]
        assert vals == sorted(vals)

    def test_rejects_bad_constant(self):
        with pytest.raises(ValueError):
            crossing_energy(0.0, 0.0, 0.0)


class TestSupportIndicator:
    def test_plateaus(self):
        d = 0.6
        assert support_indicator(d + 0.1, d) == 1.0
        assert support_indicator(math.pi - 0.01, d) == 1.0
        assert support_indicator(-math.pi + d + 0.01, d) == -1.0
        assert support_indicator(-0.01, d) == -1.0

    def test_linear_blends(self):
        d = 0.6
        assert support_indicator(0.0, d) == pytest.approx(-1.0)
        assert support_indicator(d / 2, d) == pytest.approx(0.0)
        assert support_indicator(d, d) == pytest.approx(1.0)
        assert support_indicator(-math.pi + d / 2, d) == pytest.approx(0.0, abs=1e-12)

    def test_bounded(self):
        rng = random.Random(5)
        for _ in range(2000):
            mu = rng.uniform(-math.pi, math.pi)
            d = rng.uniform(0.1, 3.0)
            assert -1.0 <= support_indicator(mu, d) <= 1.0


class TestTimingLaw:
    def test_slows_when_tilted_over_support(self):
        cfg = ControllerConfig()
        mu = 2.0  # right support
        assert support_indicator(mu, cfg.double_support_width) == 1.0
        f = timing_law(0.3, mu, cfg)
        assert f < cfg.f_nom

    def test_speeds_when_tilted_over_swing(self):
        cfg = ControllerConfig()
        f = timing_law(-0.3, 2.0, cfg)
        assert f > cfg.f_nom

    def test_near_nominal_inside_deadband(self):
        # The deadband is the smooth quadratic law, so small tilts produce a
        # quadratically suppressed (not exactly zero) frequency offset
        cfg = ControllerConfig()
        x = cfg.tim_deadband * 0.4
        expect = cfg.f_nom - cfg.tim_gain * x * x / (4.0 * cfg.tim_deadband)
        assert timing_law(x, 2.0, cfg) == pytest.approx(expect, abs=1e-12)
        assert abs(timing_law(x, 2.0, cfg) - cfg.f_nom) < cfg.tim_gain * cfg.tim_deadband / 4.0

    def test_clamped_to_frequency_band(self):
        cfg = ControllerConfig(tim_gain=100.0)
        assert timing_law(1.0, 2.0, cfg) == cfg.f_min
        assert timing_law(-1.0, 2.0, cfg) == cfg.f_max


class TestDirectionalGain:
    def test_principal_axes(self):
        assert directional_gain((1.0, 0.0), 2.0, 0.5) == pytest.approx(2.0)
        assert directional_gain((0.0, -1.0), 2.0, 0.5) == pytest.approx(0.5)

    def test_interpolates_between(self):
        g = directional_gain((1.0, 1.0), 2.0, 0.5)
        assert 0.5 < g < 2.0

    def test_zero_vector(self):
        assert directional_gain((0.0, 0.0), 2.0, 0.5) == 0.5


class TestControllerStep:
    def test_rest_produces_no_actions(self):
        cfg = ControllerConfig()
        ctrl = TiltPhaseController(cfg)
        dt = cfg.cycle_dt
        act = None
        for k in range(1, 300):
            imu = ImuSample(k * dt, (0.0, 0.0, 0.0), (0.0, 0.0, G))
            act = ctrl.step(imu, GaitCommand(), dt)
        assert act.arm_tilt == (0.0, 0.0)
        assert act.support_foot_tilt == (0.0, 0.0)
        assert act.continuous_foot_tilt == (0.0, 0.0)
        assert act.swing_out_tilt == (0.0, 0.0)
        assert act.swing_ground_plane == (0.0, 0.0)
        assert act.gait_frequency == pytest.approx(cfg.f_nom)
        assert act.max_hip_height == pytest.approx(cfg.hh_height_hi)

    def test_impulse_spikes_pd_within_three_cycles(self):
        cfg = ControllerConfig()
        ctrl = TiltPhaseController(cfg)
        dt = cfg.cycle_dt
        p_prev = (0.0, 0.0)
        for k in range(1, 200):
            ctrl.step(imu_for_tilt(p_prev, p_prev, k * dt, dt), GaitCommand(), dt)
        # Sudden tilt jump: the D path must respond within a few cycles
        arm_mag = []
        p = (0.25, 0.0)
        for j in range(3):
            t = (200 + j) * dt
            act = ctrl.step(imu_for_tilt(p, p_prev, t, dt), GaitCommand(), dt)
            p_prev = p
            arm_mag.append(math.hypot(*act.arm_tilt))
        assert max(arm_mag) > 0.05

    def test_d_term_sign_tracks_tilt_rate(self):
        cfg = ControllerConfig(pd_deadband_p_x=1.0, pd_deadband_p_y=1.0)
        ctrl = TiltPhaseController(cfg)
        dt = cfg.cycle_dt
        p_prev = (0.0, 0.0)
        act = None
        for k in range(1, 100):
            # Steady positive x tilt rate, position deadbanded away
            p = (0.004 * k, 0.0)
            act = ctrl.step(imu_for_tilt(p, p_prev, k * dt, dt), GaitCommand(), dt)
            p_prev = p
        assert act.arm_tilt[0] > 0.0
        assert act.support_foot_tilt[0] > 0.0

    def test_outputs_stay_inside_limits_fuzz(self):
        cfg = ControllerConfig()
        ctrl = TiltPhaseController(cfg)
        dt = cfg.cycle_dt
        rng = random.Random(42)
        for k in range(1, 2000):
            gyro = tuple(rng.uniform(-6.0, 6.0) for _ in range(3))
            accel = tuple(rng.uniform(-12.0, 12.0) for _ in range(3))
            cmd = GaitCommand(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
            act = ctrl.step(ImuSample(k * dt, gyro, accel), cmd, dt)
            def inside(v, ax, ay):
                return (v[0] / ax) ** 2 + (v[1] / ay) ** 2 <= 1.0 + 1e-9
            assert inside(act.arm_tilt, cfg.arm_limit_x, cfg.arm_limit_y)
            assert inside(act.support_foot_tilt, cfg.foot_limit_x, cfg.foot_limit_y)
            assert inside(act.swing_out_tilt, cfg.so_limit_x, cfg.so_limit_y)
            assert inside(act.swing_ground_plane, cfg.sp_limit_x, cfg.sp_limit_y)
            assert abs(act.lean_tilt[1]) <= cfg.lean_limit
            assert cfg.f_min <= act.gait_frequency <= cfg.f_max
            assert cfg.hh_height_lo <= act.max_hip_height <= cfg.hh_height_hi

    def test_deterministic_and_resettable(self):
        cfg = ControllerConfig()
        ctrl = TiltPhaseController(cfg)
        dt = cfg.cycle_dt
        rng = random.Random(7)
        samples = [
            ImuSample(
                k * dt,
                tuple(rng.uniform(-1, 1) for _ in range(3)),
                (0.1, -0.2, G),
            )
            for k in range(1, 400)
        ]
        first = [ctrl.step(s, GaitCommand(0.2, 0.0, 0.1), dt) for s in samples]
        ctrl.reset()
        second = [ctrl.step(s, GaitCommand(0.2, 0.0, 0.1), dt) for s in samples]
        assert first == second

    def test_pd_feedback_matches_helper_composition(self):
        # pd_feedback uses the scalar 2D deadband and coercion kernels; it
        # must equal the public ellipsoid helpers composed, bit for bit.
        cfg = ControllerConfig()
        ctrl = TiltPhaseController(cfg)
        rng = random.Random(3)

        db_p_ellipsoid = Ellipsoid((cfg.pd_deadband_p_x, cfg.pd_deadband_p_y))
        db_d_ellipsoid = Ellipsoid((cfg.pd_deadband_d_x, cfg.pd_deadband_d_y))

        def reference(pd_mean, pd_slope):
            db_p = smooth_deadband_ellip(pd_mean, db_p_ellipsoid)
            db_d = smooth_deadband_ellip(pd_slope, db_d_ellipsoid)
            out = []
            for part, limits, buffer in (
                ("arm", (cfg.arm_limit_x, cfg.arm_limit_y), cfg.arm_buffer),
                ("foot", (cfg.foot_limit_x, cfg.foot_limit_y), cfg.foot_buffer),
            ):
                gp = directional_gain(
                    db_p, getattr(cfg, part + "_p_gain_lat"), getattr(cfg, part + "_p_gain_sag")
                )
                gd = directional_gain(
                    db_d, getattr(cfg, part + "_d_gain_lat"), getattr(cfg, part + "_d_gain_sag")
                )
                v = (gp * db_p[0] + gd * db_d[0], gp * db_p[1] + gd * db_d[1])
                out.append(soft_coerce_ellip(v, Ellipsoid(limits), buffer))
            return tuple(out)

        for k in range(3000):
            scale = 10.0 ** rng.uniform(-4.0, 0.5)
            pd_mean = (rng.gauss(0.0, scale), rng.gauss(0.0, scale))
            pd_slope = (rng.gauss(0.0, 10 * scale), rng.gauss(0.0, 10 * scale))
            if k % 10 == 0:
                pd_mean = (0.0, 0.0)
            if k % 15 == 0:
                pd_slope = (0.0, 0.0)
            assert ctrl.pd_feedback(pd_mean, pd_slope) == reference(pd_mean, pd_slope)

    def test_activation_fields_carry_their_stage(self):
        # Every stage returns distinct values; each must land in its own field.
        ctrl = TiltPhaseController(ControllerConfig())
        ctrl.pd_feedback = lambda pd_mean, pd_slope: ((1.0, 1.5), (2.0, 2.5))
        ctrl.i_feedback_step = lambda p_d, dt: ((3.0, 3.5), (4.0, 4.5))
        ctrl.leaning = lambda cmd, t, dt: (0.0, 5.0)
        ctrl.swing_out_step = lambda p_xb, t, mu, pd_mean: ((6.0, 6.5), 7.0, 8.0)
        ctrl.swing_ground_plane = lambda p_b, p_e: ((9.0, 9.5), (0.0, 0.0))
        ctrl.max_hip_height_step = lambda pd_mean, dt: (0.75, 10.0, 11.0)
        dt = 0.01
        act = ctrl.step(ImuSample(dt, (0.3, -0.2, 0.0), (0.0, 0.0, G)), GaitCommand(), dt)
        assert act.arm_tilt == (1.0, 1.5)
        assert act.support_foot_tilt == (2.0, 2.5)
        assert act.continuous_foot_tilt == (3.0, 3.5)
        assert act.hip_shift == (4.0, 4.5)
        assert act.max_hip_height == 0.75
        assert act.lean_tilt == (0.0, 5.0)
        assert act.swing_out_tilt == (6.0, 6.5)
        assert act.swing_ground_plane == (9.0, 9.5)
        assert act.crossing_energy_left == 7.0
        assert act.crossing_energy_right == 8.0
        assert act.instability == 10.0
        assert act.deviation_speed == 11.0
        assert act.mu == 0.0 and ctrl.mu > 0.0
        assert act.gait_frequency == pytest.approx(ctrl.mu / dt)
        assert act.expected_tilt == (0.0, 0.0)
        assert act.body_tilt == act.deviation != (0.0, 0.0)
        assert act.deviation_mean == act.deviation
        assert act.flags == ()

    def test_rejects_bad_dt(self):
        ctrl = TiltPhaseController(ControllerConfig())
        with pytest.raises(ValueError):
            ctrl.step(ImuSample(0.01, (0, 0, 0), (0, 0, G)), GaitCommand(), 0.0)


class TestSwingOut:
    def test_fires_away_from_left_crossing(self):
        cfg = ControllerConfig()
        ctrl = TiltPhaseController(cfg)
        dt = cfg.cycle_dt
        ctrl.mu = -2.0  # left support
        # Body racing toward the left crossing point
        p_prev = (0.0, 0.0)
        act = None
        for k in range(1, 60):
            p = (-0.025 * k, 0.0)
            act = ctrl.step(imu_for_tilt(p, p_prev, k * dt, dt), GaitCommand(), dt)
            ctrl.mu = -2.0
            p_prev = p
        assert act.crossing_energy_left > cfg.so_energy_min
        # Swing leg lifts away from the crossing: negative x during left support
        assert act.swing_out_tilt[0] < 0.0

    def test_quiet_below_energy_threshold(self):
        cfg = ControllerConfig()
        ctrl = TiltPhaseController(cfg)
        dt = cfg.cycle_dt
        act = None
        for k in range(1, 200):
            imu = ImuSample(k * dt, (0.0, 0.0, 0.0), (0.0, 0.0, G))
            act = ctrl.step(imu, GaitCommand(), dt)
        assert act.swing_out_tilt == (0.0, 0.0)
        assert act.crossing_energy_left < cfg.so_energy_min


class TestLeaning:
    def test_steady_forward_command_leans_forward(self):
        cfg = ControllerConfig()
        ctrl = TiltPhaseController(cfg)
        dt = cfg.cycle_dt
        act = None
        for k in range(1, 500):
            imu = ImuSample(k * dt, (0.0, 0.0, 0.0), (0.0, 0.0, G))
            act = ctrl.step(imu, GaitCommand(vx=1.0), dt)
        assert act.lean_tilt[0] == 0.0
        assert act.lean_tilt[1] == pytest.approx(cfg.lean_gain_vx * 1.0, abs=1e-6)

    def test_velocity_step_transient_exceeds_steady_state(self):
        cfg = ControllerConfig()
        ctrl = TiltPhaseController(cfg)
        dt = cfg.cycle_dt
        quiet = ImuSample(0.0, (0.0, 0.0, 0.0), (0.0, 0.0, G))
        for k in range(1, 200):
            ctrl.step(ImuSample(k * dt, quiet.gyro, quiet.accel), GaitCommand(), dt)
        peak = 0.0
        last = 0.0
        for k in range(200, 900):
            act = ctrl.step(
                ImuSample(k * dt, quiet.gyro, quiet.accel), GaitCommand(vx=1.0), dt
            )
            peak = max(peak, act.lean_tilt[1])
            last = act.lean_tilt[1]
        assert peak > last + 1e-6
