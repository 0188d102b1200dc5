import math
import pickle
import random
import sys

import pytest
from reference import decimal_ellipse_radius, pendulum_invariant
from test_filters import (
    BOUNDARY_Q,
    BOUNDARY_Y,
    generic_smooth_deadband_ellip,
    generic_soft_coerce_ellip,
)

from tiltphase.config import ControllerConfig, PlantConfig
from tiltphase.controller import (
    ActivationSet,
    GaitCommand,
    TiltPhaseController,
    crossing_energy,
    directional_gain,
    support_indicator,
    timing_law,
)
from tiltphase.estimator import ImuSample
from tiltphase.harness import Scenario, run_closed_loop
from tiltphase.rotation import quat_conj, quat_from_tilt_phase, quat_mul, quat_rotate
from tiltphase.trace import COLUMNS, record_values

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

    @pytest.mark.parametrize("phidot, c, kin", [
        (2e154, 2.0, 1e308),  # phidot squared overflows, (phidot / c) squared does not
        (1e160, 1e155, 1e10),  # c squared overflows too
        (1e154, 1e-3, sys.float_info.max),  # the kinetic term itself overflows
    ])
    def test_overflowing_kinetic_term_stays_finite(self, phidot, c, kin):
        assert crossing_energy(0.0, phidot, c) == pytest.approx(kin, rel=1e-15)
        assert crossing_energy(0.0, -phidot, c) == pytest.approx(-kin, rel=1e-15)


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
        sigma = support_indicator(2.0, cfg.double_support_width)
        assert sigma == 1.0  # right support
        f = timing_law(0.3, sigma, cfg)
        assert f < cfg.f_nom

    def test_speeds_when_tilted_over_swing(self):
        cfg = ControllerConfig()
        f = timing_law(-0.3, 1.0, cfg)
        assert f > cfg.f_nom

    def test_near_nominal_inside_deadband(self):
        # The deadband is the smooth quadratic law, so small tilts produce a
        # quadratically suppressed (not exactly zero) frequency offset
        cfg = ControllerConfig()
        x = cfg.tim_deadband * 0.4
        expect = cfg.f_nom - cfg.tim_gain * x * x / (4.0 * cfg.tim_deadband)
        assert timing_law(x, 1.0, cfg) == pytest.approx(expect, abs=1e-12)
        assert abs(timing_law(x, 1.0, cfg) - cfg.f_nom) < cfg.tim_gain * cfg.tim_deadband / 4.0

    def test_clamped_to_frequency_band(self):
        cfg = ControllerConfig(tim_gain=100.0)
        assert timing_law(1.0, 1.0, cfg) == cfg.f_min
        assert timing_law(-1.0, 1.0, cfg) == cfg.f_max


class TestDirectionalGain:
    def test_principal_axes(self):
        assert directional_gain((1.0, 0.0), 2.0, 0.5) == pytest.approx(2.0)
        assert directional_gain((0.0, -1.0), 2.0, 0.5) == pytest.approx(0.5)

    def test_interpolates_between(self):
        g = directional_gain((1.0, 1.0), 2.0, 0.5)
        assert 0.5 < g < 2.0

    def test_zero_vector(self):
        assert directional_gain((0.0, 0.0), 2.0, 0.5) == 0.5

    def test_zero_gain_switches_its_axis_off(self):
        assert directional_gain((0.3, 0.0), 0.0, 0.5) == 0.0
        assert directional_gain((0.0, 0.3), 0.0, 0.5) == 0.5
        assert directional_gain((0.3, 0.1), 0.0, 0.5) == 0.0
        assert directional_gain((0.3, 0.0), 2.0, 0.0) == 2.0
        assert directional_gain((0.3, 0.1), 2.0, 0.0) == 0.0

    def test_exact_square_on_the_boundary(self):
        # (v / gain) squared by products sums to 1.0, so the gain is |v|
        v = (BOUNDARY_Q, 0.5 * BOUNDARY_Y)
        assert directional_gain(v, 1.0, 0.5) == math.sqrt(v[0] * v[0] + v[1] * v[1])

    @pytest.mark.parametrize("v", [(0.013, 0.021), (1.1, -0.3), (0.7, 0.7)])
    def test_equal_gains_give_that_gain(self, v):
        # Along these v the ellipse formula rounds 0.15 off by an ulp
        assert directional_gain(v, 0.15, 0.15) == 0.15

    def test_tiny_gain_does_not_overflow(self):
        assert directional_gain((0.3, 0.0), 1e-300, 0.5) == 1e-300
        assert directional_gain((0.0, 0.3), 1e-300, 0.5) == 0.5
        # Off the axes, the radius itself: about 1.054e-300
        g = directional_gain((0.3, 0.1), 1e-300, 0.5)
        assert 1e-300 <= g <= 0.5
        assert g == pytest.approx(float(decimal_ellipse_radius(0.3, 0.1, 1e-300, 0.5)), rel=1e-14)

    def test_subnormal_squares_take_the_scaled_form(self):
        # The sum of v's squares is subnormal and has lost its digits: the
        # plain formula gave 0.02096, not the radius 0.015076
        v = (-1.5986725343413916e-162, -2.682556222291249e-298)
        a0, a1 = 0.015075959787654263, 0.02440355718473092
        want = float(decimal_ellipse_radius(*v, a0, a1))
        assert directional_gain(v, a0, a1) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("v", [(0.3, 0.0), (-1e-300, -0.0), (1e300, 0.0), (0.0, -5e-324)])
    def test_axis_gives_that_gain_exactly(self, v):
        want = 0.2 if v[0] == 0.0 else 0.15
        assert directional_gain(v, 0.15, 0.2) == want


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
                return (v[0] / ax) * (v[0] / ax) + (v[1] / ay) * (v[1] / ay) <= 1.0 + 1e-9
            assert inside(act.arm_tilt, cfg.arm_limit_x, cfg.arm_limit_y)
            assert inside(act.support_foot_tilt, cfg.foot_limit_x, cfg.foot_limit_y)
            assert inside(act.swing_out_tilt, cfg.so_limit_x, cfg.so_limit_y)
            assert inside(act.swing_ground_plane, cfg.sp_limit_x, cfg.sp_limit_y)
            assert abs(act.lean_tilt[1]) <= cfg.lean_limit
            assert cfg.f_min <= act.gait_frequency <= cfg.f_max
            assert cfg.hh_height_lo <= act.max_hip_height <= cfg.hh_height_hi

    def test_deterministic(self):
        # est_ki > 0 gives the estimator a bias state, which a second
        # controller must build up the same way
        for cfg in (ControllerConfig(), ControllerConfig(est_ki=0.5, hh_sagittal_only=True)):
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
            assert (ctrl.estimator.bias != (0.0, 0.0, 0.0)) == (cfg.est_ki > 0.0)
            ctrl = TiltPhaseController(cfg)
            second = [ctrl.step(s, GaitCommand(0.2, 0.0, 0.1), dt) for s in samples]
            assert first == second

    def test_pd_feedback_matches_helper_composition(self):
        # pd_feedback composes the 2D deadband and coercion kernels; it must
        # equal their generic n-dim references composed, bit for bit.
        cfg = ControllerConfig()
        ctrl = TiltPhaseController(cfg)
        rng = random.Random(3)

        def reference(pd_mean, pd_slope):
            db_p = generic_smooth_deadband_ellip(pd_mean, (cfg.pd_deadband_p_x, cfg.pd_deadband_p_y))
            db_d = generic_smooth_deadband_ellip(pd_slope, (cfg.pd_deadband_d_x, cfg.pd_deadband_d_y))
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
                out.append(generic_soft_coerce_ellip(v, limits, buffer))
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
        # The controller has __slots__, so its methods take no stub; a
        # subclass without __slots__ has a __dict__ that does
        class Stubbed(TiltPhaseController):
            pass

        ctrl = Stubbed(ControllerConfig())
        ctrl.pd_feedback = lambda pd_mean, pd_slope: ((1.0, 1.5), (2.0, 2.5))
        ctrl.i_feedback_step = lambda p_d, dt: ((3.0, 3.5), (4.0, 4.5))
        ctrl.leaning = lambda cmd, t, dt: (0.0, 5.0)
        ctrl.swing_out_step = lambda p_xb, t, sigma, pd_mean: ((6.0, 6.5), 7.0, 8.0)
        ctrl.swing_ground_plane = lambda p_ns: (9.0, 9.5)
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
        assert act.flags == ()
        # Each field but the flags has trace columns: the loop keeps nothing untraced
        assert set(ActivationSet._fields) - {"flags"} == set(COLUMNS)

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


    def test_gain_times_an_overflowing_energy_holds_finite(self):
        """Over 3e-155 s gaps a 1.3e154 rad/s gyro drives the crossing
        energies near the largest float; the largest gain, 1000, times them
        overflows, and the hold filters keep the largest float instead."""
        cfg = ControllerConfig(so_gain=1000.0)
        ctrl = TiltPhaseController(cfg)
        for k in range(1, 14):
            imu = ImuSample(k * 3e-155, (1.3e154 if k >= 3 else 0.0, 0.0, 0.0), (0.0, 0.0, G))
            act = ctrl.step(imu, GaitCommand(), 3e-155)
            assert all(map(math.isfinite, record_values(k * 3e-155, act)[:-1])), act
            held = [x for hold in (ctrl.so_hold_l, ctrl.so_hold_r) for _, x in hold._buf]
            assert all(map(math.isfinite, held)), held
        assert max(held) == sys.float_info.max


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

    def test_huge_command_stays_finite(self):
        # A commanded vx of 1e306 or 5e305 is finite, so the scenario takes
        # it, but the leaning WLBF's moments overflow: those steps take the
        # direct sums, and every record stays finite
        commands = [(0.0, GaitCommand(1e306)), (1.0, GaitCommand(5e305)), (1.5, GaitCommand(0.2))]
        result = run_closed_loop(
            ControllerConfig(), PlantConfig(), Scenario(duration=2.0, commands=commands))
        assert len(result.records) == 200
        for rec in result.records:
            assert all(map(math.isfinite, rec[:-1])), rec[0]

    @pytest.mark.parametrize("vx", [
        lambda k: -1e308,
        lambda k: 1e308 if k < 5 else 0.0,
        lambda k: (-1e308, 1e308)[k % 2],
    ], ids=["constant", "step", "alternating"])
    def test_command_whose_direct_sums_overflow_keeps_the_lean_state_finite(self, vx):
        # A vx of 1e308 overflows the leaning WLBF's direct sums; its fit,
        # refit at a power of two scale, and the lean held with it stay
        # finite, also where the refit slope lies beyond the float range
        cfg = ControllerConfig()
        ctrl = TiltPhaseController(cfg)
        for k in range(1, 60):
            ctrl.step(ImuSample(k * cfg.cycle_dt, (0.0, 0.0, 0.0), (0.0, 0.0, G)),
                      GaitCommand(vx(k)), cfg.cycle_dt)
            (slope, mean), wz, lean = ctrl._lean
            assert all(map(math.isfinite, (*slope, *mean, wz, *lean))), k

    @pytest.mark.parametrize("cmd, gains", [
        (GaitCommand(-1e308, 0.0, 1e308), (2.0, 2.0)),
        (GaitCommand(1e300, 0.0, -1e300), (1e10, -1e10)),
    ])
    def test_opposing_overflowing_terms_stay_finite(self, cmd, gains):
        # The vx and wz terms overflow to infinities of opposite signs,
        # whose sum is nan: each is taken at the largest float instead
        cfg = ControllerConfig(lean_gain_vx=gains[0], lean_gain_wz=gains[1])
        result = run_closed_loop(
            cfg, PlantConfig(), Scenario(duration=0.5, commands=[(0.0, cmd)]))
        for rec in result.records:
            assert all(map(math.isfinite, rec[:-1])), rec[0]
        # At the first step the acceleration term is 0: the capped terms cancel
        ctrl = TiltPhaseController(cfg)
        act = ctrl.step(ImuSample(0.01, (0.0, 0.0, 0.0), (0.0, 0.0, G)), cmd, cfg.cycle_dt)
        assert act.lean_tilt == (0.0, 0.0)

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


class TestNonFiniteInput:
    """A non-finite IMU or command value is replaced by the last finite one
    and flagged; it never reaches controller state."""

    def run(self, inputs, n=500):
        """Steps a controller at rest with walking commands; inputs maps a
        cycle to (gyro, accel, cmd) overrides, None keeping the default."""
        ctrl = TiltPhaseController(ControllerConfig())
        dt = 0.01
        acts = []
        for k in range(1, n + 1):
            gyro, accel, cmd = inputs.get(k, (None, None, None))
            imu = ImuSample(k * dt, gyro or (0.01, -0.02, 0.0), accel or (0.1, 0.0, G))
            acts.append(ctrl.step(imu, cmd or GaitCommand(vx=0.3, wz=0.1), dt))
        return ctrl, acts

    def test_nan_command_is_held_and_flagged(self):
        _, acts = self.run({20: (None, None, GaitCommand(vx=math.nan))})
        _, clean = self.run({})
        assert acts[19].flags == ("cmd_nonfinite",)
        assert all(a.flags == () for i, a in enumerate(acts) if i != 19)
        # vx was 0.3 on every other cycle, so holding it is the clean run
        assert acts[-1].lean_tilt == clean[-1].lean_tilt
        assert all(math.isfinite(v) for v in acts[-1].lean_tilt)

    @pytest.mark.parametrize("gyro, accel", [
        ((math.nan, -0.02, 0.0), None),
        (None, (0.1, math.inf, G)),
        ((0.01, -0.02, -math.inf), (math.nan, 0.0, G)),
        # Finite, but |gyro| ** 2 overflows: the gyro is held whole
        ((1e200, -0.02, 0.0), None),
        ((0.01, -1.7e308, 0.0), None),
        ((1e154, 1e154, 1e154), None),
        ((math.nan, 1e300, 0.0), None),
    ])
    def test_non_finite_imu_is_held_and_flagged(self, gyro, accel):
        # Every finite value equals the clean run's, so holding is the clean run
        _, acts = self.run({30: (gyro, accel, None)})
        _, clean = self.run({})
        assert acts[29].flags == ("imu_nonfinite",)
        assert all(a.flags == () for i, a in enumerate(acts) if i != 29)
        assert acts == [a if i != 29 else a._replace(flags=("imu_nonfinite",))
                        for i, a in enumerate(clean)]

    def test_each_value_is_held_alone(self):
        # Only the bad component is replaced: the clean gyro y differs from
        # the held one, so holding the whole vector would show
        ctrl = TiltPhaseController(ControllerConfig())
        ref = TiltPhaseController(ControllerConfig())
        ctrl.step(ImuSample(0.01, (0.01, 0.0, 0.0), (0.0, 0.0, G)), GaitCommand(vx=0.2), 0.01)
        ref.step(ImuSample(0.01, (0.01, 0.0, 0.0), (0.0, 0.0, G)), GaitCommand(vx=0.2), 0.01)
        got = ctrl.step(ImuSample(math.nan, (math.nan, 0.5, 0.0), (0.0, 0.0, G)),
                        GaitCommand(vx=0.2, vy=math.inf), 0.01)
        want = ref.step(ImuSample(0.02, (0.01, 0.5, 0.0), (0.0, 0.0, G)),
                        GaitCommand(vx=0.2), 0.01)
        assert got.flags == ("imu_nonfinite", "cmd_nonfinite")
        assert got._replace(flags=()) == want

    def test_first_sample_non_finite_holds_rest(self):
        ctrl = TiltPhaseController(ControllerConfig())
        act = ctrl.step(ImuSample(0.01, (math.nan,) * 3, (math.nan,) * 3),
                        GaitCommand(math.nan, math.nan, math.nan), 0.01)
        assert act.flags == ("imu_nonfinite", "cmd_nonfinite")
        rest = TiltPhaseController(ControllerConfig()).step(
            ImuSample(0.01, (0.0, 0.0, 0.0), (0.0, 0.0, G)), GaitCommand(), 0.01)
        assert act._replace(flags=()) == rest

    def test_finite_overflowing_sum_is_not_flagged(self):
        ctrl = TiltPhaseController(ControllerConfig())
        act = ctrl.step(ImuSample(0.01, (0.0, 0.0, 0.0), (0.0, 0.0, G)),
                        GaitCommand(1e308, 1e308, 0.0), 0.01)
        assert act.flags == ()

    @pytest.mark.parametrize("t", [0.02, 0.015])
    def test_non_increasing_time_leaves_the_controller_untouched(self, t):
        """A sample at or before the last one's time is refused before any
        state changes: the controller pickles to the same bytes, and its
        next step equals that of a twin that never saw the sample."""
        ctrl = TiltPhaseController(ControllerConfig())
        twin = TiltPhaseController(ControllerConfig())
        for k in (1, 2):
            imu = ImuSample(0.01 * k, (0.01, 0.02 * k, 0.0), (0.1, 0.0, G))
            ctrl.step(imu, GaitCommand(vx=0.1 * k), 0.01)
            twin.step(imu, GaitCommand(vx=0.1 * k), 0.01)
        before = pickle.dumps(ctrl)
        with pytest.raises(ValueError, match=f"non-increasing time {t} "):
            ctrl.step(ImuSample(t, (0.5, -0.3, 0.1), (0.4, -0.2, G)), GaitCommand(vx=0.5), 0.01)
        assert pickle.dumps(ctrl) == before
        imu = ImuSample(0.03, (0.02, 0.01, 0.0), (0.1, 0.05, G))
        assert repr(ctrl.step(imu, GaitCommand(vx=0.3), 0.01)) == \
            repr(twin.step(imu, GaitCommand(vx=0.3), 0.01))

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_dt(self, dt):
        ctrl = TiltPhaseController(ControllerConfig())
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            ctrl.step(ImuSample(0.01, (0, 0, 0), (0, 0, G)), GaitCommand(), dt)


@pytest.mark.parametrize("fields, flat", [
    ({}, True),
    ({"wave_phase_x": 2.5, "wave_phase_y": -1.0, "wave_amp_y": -0.0}, True),
    ({"wave_offset_x": -0.0}, False),
    ({"wave_offset_y": -0.0}, False),
    ({"wave_amp_x": 5e-324}, False),
    ({"wave_offset_y": 0.004}, False),
])
def test_flat_waveform_is_a_constant(fields, flat):
    """Zero amplitudes and +0.0 offsets make the expected tilt a constant
    +0.0 pair, taken without evaluating the waveform: each step equals, in
    its repr (which tells -0.0 from 0.0), a twin's that evaluates it."""
    cfg = ControllerConfig(**fields)
    ctrl = TiltPhaseController(cfg)
    twin = TiltPhaseController(cfg)
    twin._flat = None
    assert (ctrl._flat is not None) == flat
    p_prev = (0.0, 0.0)
    for k in range(1, 300):
        t = k * cfg.cycle_dt
        p = (0.04 * math.sin(3.0 * t), 0.02 * math.cos(2.0 * t))
        imu = imu_for_tilt(p, p_prev, t, cfg.cycle_dt)
        p_prev = p
        cmd = GaitCommand(0.1, 0.0, 0.0)
        assert repr(ctrl.step(imu, cmd, cfg.cycle_dt)) == repr(twin.step(imu, cmd, cfg.cycle_dt))
