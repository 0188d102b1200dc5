"""The tilt phase controller: nine corrective actions from one IMU.

Feedback pipeline per 100 Hz cycle: attitude estimation -> expected tilt
phase -> deviation tilt -> PD feedback (arm tilt, support foot tilt) ->
I feedback (continuous foot tilt, hip shift) -> feedforward leaning ->
swing out -> swing ground plane -> step timing -> maximum hip height ->
gait phase update.

The controller is model-free: every output is derived from the 2D tilt
phase deviation, the gait phase and the commanded gait velocity, scaled by
dimensionless configuration constants. The hot path is pure float/tuple
arithmetic so one cycle stays in the tens-of-microseconds range.
"""

from __future__ import annotations

from math import atan2, copysign, cos, inf, isfinite, pi, remainder, sin, sqrt
from sys import float_info
from typing import NamedTuple, Tuple

from tiltphase.config import ControllerConfig
from tiltphase.deviation import ExpectedWaveform, deviation_tilt, gait_phase_step
from tiltphase.estimator import GRAVITY, AttitudeEstimator, ImuSample
from tiltphase.filters import (
    BoundedIntegrator,
    HoldFilter,
    LowPassFilter,
    MeanFilter,
    SlopeLimiter,
    WlbfFilter,
    coerced_interp,
    ellipse_radius,
    hard_coerce2,
    one_sided_deadband,
    smooth_deadband2,
    smooth_deadband_1d,
    soft_coerce2,
    soft_coerce_1d,
)
from tiltphase.rotation import tilt_of_quat


# tuple.__new__(ActivationSet, fields) skips the generated keyword
# constructor, which costs about 1 us per cycle for this 18-field tuple.
_new_tuple = tuple.__new__


class GaitCommand(NamedTuple):
    """Commanded gait velocity: sagittal, lateral, turning (dimensionless)."""

    vx: float = 0.0
    vy: float = 0.0
    wz: float = 0.0


class ActivationSet(NamedTuple):
    """The nine corrective action outputs of one controller cycle."""

    arm_tilt: Tuple[float, float] = (0.0, 0.0)
    support_foot_tilt: Tuple[float, float] = (0.0, 0.0)
    continuous_foot_tilt: Tuple[float, float] = (0.0, 0.0)
    hip_shift: Tuple[float, float] = (0.0, 0.0)
    max_hip_height: float = 1.0
    lean_tilt: Tuple[float, float] = (0.0, 0.0)
    swing_out_tilt: Tuple[float, float] = (0.0, 0.0)
    swing_ground_plane: Tuple[float, float] = (0.0, 0.0)
    gait_frequency: float = 2.0 * pi
    # Diagnostics (carried, never thrown)
    mu: float = 0.0
    body_tilt: Tuple[float, float] = (0.0, 0.0)
    expected_tilt: Tuple[float, float] = (0.0, 0.0)
    deviation: Tuple[float, float] = (0.0, 0.0)
    crossing_energy_left: float = 0.0
    crossing_energy_right: float = 0.0
    instability: float = 0.0
    deviation_speed: float = 0.0
    flags: Tuple[str, ...] = ()


def crossing_energy(phi: float, phidot: float, c: float) -> float:
    """Signed pendulum crossing severity.

    phi < 0 is the safe side of the verge, phi > 0 is past it; phidot > 0
    moves toward/over the verge. The kinetic term counts positively when
    contributing to crossing, and the potential deficit counts negatively
    while it still hinders crossing (phi < 0) but positively once the fall
    is past the peak (phi > 0). The result is zero everywhere along a
    trajectory that comes to rest exactly on the verge, negative for
    trajectories that fall back, and more positive the more severe the
    crossing. C1 in both arguments. Finite for finite arguments: a kinetic
    term that overflows is taken as the square of phidot / c, at most the largest float.
    """
    if c <= 0.0:
        raise ValueError("pendulum constant must be positive")
    kin = (phidot * phidot) / (c * c)
    if not kin < inf:  # inf, or nan where c * c overflows too
        kin = min((phidot / c) * (phidot / c), float_info.max)
    if phidot < 0.0:
        kin = -kin
    pot = 2.0 * (cos(phi) - 1.0)
    if phi > 0.0:
        pot = -pot
    return kin + pot


def support_indicator(mu: float, double_support_width: float) -> float:
    """Expected support in [-1 (left), +1 (right)] with linear double-support blends.

    mu = 0 starts the double support transition to right support; the wrap
    at +-pi starts the transition back to left support.
    """
    d = double_support_width
    if mu >= 0.0:
        if mu <= d:
            return -1.0 + 2.0 * (mu / d)
        return 1.0
    lo = -pi + d
    if mu <= lo:
        return 1.0 - 2.0 * ((mu + pi) / d)
    return -1.0


def directional_gain(v: Tuple[float, float], gain_lat: float, gain_sag: float) -> float:
    """Elliptical interpolation of lateral (x) and sagittal (y) gains along v:
    the radius along v of the ellipse whose semi-axes are the gains.

    v on an axis gets that axis's gain, exactly, and v = 0 the smaller gain.
    A zero gain switches its axis off: v off the other axis gets 0.0.
    """
    if gain_lat == gain_sag:  # a circle: that gain along any v
        return gain_lat
    x, y = v
    if y == 0.0:
        return gain_lat if x else min(gain_lat, gain_sag)
    if x == 0.0:
        return gain_sag
    if not (gain_lat and gain_sag):
        return 0.0
    return ellipse_radius(x, y, gain_lat, gain_sag)


def timing_law(
    p_xd: float, sigma: float, cfg: ControllerConfig
) -> float:
    """Gait frequency from the lateral deviation tilt and the support
    indicator sigma (`support_indicator`).

    Leaning over the current support foot slows the stepping (the step is
    delayed until the lateral tilt returns); leaning toward the swing side
    speeds it up. Output clamped to [f_min, f_max].
    """
    f = cfg.f_nom - cfg.tim_gain * smooth_deadband_1d(p_xd * sigma, cfg.tim_deadband)
    if f < cfg.f_min:
        return cfg.f_min
    if f > cfg.f_max:
        return cfg.f_max
    return f


class TiltPhaseController:
    """Stateful controller; `step` is strictly sequential and deterministic."""

    __slots__ = (
        "cfg", "waveform", "estimator", "p_mean", "d_wlbf", "integrator", "ripple_mean",
        "lean_wlbf", "lean_slope", "so_wlbf", "so_hold_l", "so_hold_r", "sp_mean",
        "hh_lowpass", "hh_islope", "hh_hslope", "mu", "_pd_mean_prev", "_held", "_flat",
        "_pd_gains", "_lean",
    )

    def __init__(self, cfg: ControllerConfig):
        cfg.validate()
        self.cfg = cfg
        self.waveform = ExpectedWaveform(
            cfg.wave_amp_x, cfg.wave_amp_y,
            cfg.wave_phase_x, cfg.wave_phase_y,
            cfg.wave_offset_x, cfg.wave_offset_y,
        )
        # A flat waveform (zero amplitudes, +0.0 offsets) is +0.0 on both
        # axes at every mu: amp * sin(...) is a signed zero and adding +0.0
        # makes it +0.0. Its expected tilt is this constant, not evaluated.
        flat = (
            cfg.wave_amp_x == 0.0 and cfg.wave_amp_y == 0.0
            and copysign(1.0, cfg.wave_offset_x) == 1.0 and cfg.wave_offset_x == 0.0
            and copysign(1.0, cfg.wave_offset_y) == 1.0 and cfg.wave_offset_y == 0.0
        )
        self._flat = (0.0, 0.0) if flat else None
        self.estimator = AttitudeEstimator(
            kp=cfg.est_kp, ki=cfg.est_ki, bias_limit=cfg.est_bias_limit,
            acc_min_g=cfg.est_acc_min_g, acc_max_g=cfg.est_acc_max_g,
        )
        # Equal lateral and sagittal gains are circles, and directional_gain
        # returns each along any deviation: the PD gains are then these
        lat = (cfg.arm_p_gain_lat, cfg.arm_d_gain_lat, cfg.foot_p_gain_lat, cfg.foot_d_gain_lat)
        sag = (cfg.arm_p_gain_sag, cfg.arm_d_gain_sag, cfg.foot_p_gain_sag, cfg.foot_d_gain_sag)
        self._pd_gains = lat if lat == sag else None
        self.p_mean = MeanFilter(cfg.pd_mean_order)
        self.d_wlbf = WlbfFilter(2, cfg.pd_wlbf_size, cfg.cycle_dt)
        self.integrator = BoundedIntegrator(cfg.i_bound_x, cfg.i_bound_y, cfg.i_buffer)
        # Ripple filter spans an even number of steps at the nominal frequency
        step_cycles = pi / (cfg.f_nom * cfg.cycle_dt)
        self.ripple_mean = MeanFilter(max(1, round(cfg.i_ripple_steps * step_cycles)))
        self.lean_wlbf = WlbfFilter(1, cfg.lean_wlbf_size, cfg.cycle_dt)
        self.lean_slope = SlopeLimiter(cfg.lean_slope_rate)
        # The last step's leaning fit, wz and output
        self._lean = (None, 0.0, None)
        self.so_wlbf = WlbfFilter(1, cfg.so_wlbf_size, cfg.cycle_dt)
        self.so_hold_l = HoldFilter(cfg.so_hold_time)
        self.so_hold_r = HoldFilter(cfg.so_hold_time)
        self.sp_mean = MeanFilter(cfg.sp_mean_order)
        self.hh_lowpass = LowPassFilter(cfg.hh_settle_time)
        self.hh_islope = SlopeLimiter(cfg.hh_slope_rate)
        self.hh_hslope = SlopeLimiter(cfg.hh_height_rate, initial=cfg.hh_height_hi)

        self.mu = 0.0
        self._pd_mean_prev: Tuple[float, float] | None = None
        # The last finite inputs, which stand in for non-finite ones; before
        # the first step, an IMU at rest and no command
        self._held = (ImuSample(0.0, (0.0, 0.0, 0.0), (0.0, 0.0, GRAVITY)), GaitCommand())

    # -- individual corrective action computations --------------------------

    def pd_feedback(self, pd_mean, pd_slope):
        cfg = self.cfg
        m0, m1 = pd_mean
        s0, s1 = pd_slope
        p0, p1 = smooth_deadband2(m0, m1, cfg.pd_deadband_p_x, cfg.pd_deadband_p_y)
        d0, d1 = smooth_deadband2(s0, s1, cfg.pd_deadband_d_x, cfg.pd_deadband_d_y)

        ap, ad, fp, fd = self._pd_gains or (
            directional_gain((p0, p1), cfg.arm_p_gain_lat, cfg.arm_p_gain_sag),
            directional_gain((d0, d1), cfg.arm_d_gain_lat, cfg.arm_d_gain_sag),
            directional_gain((p0, p1), cfg.foot_p_gain_lat, cfg.foot_p_gain_sag),
            directional_gain((d0, d1), cfg.foot_d_gain_lat, cfg.foot_d_gain_sag),
        )
        arm = soft_coerce2(ap * p0 + ad * d0, ap * p1 + ad * d1,
                           cfg.arm_limit_x, cfg.arm_limit_y, cfg.arm_buffer)
        foot = soft_coerce2(fp * p0 + fd * d0, fp * p1 + fd * d1,
                            cfg.foot_limit_x, cfg.foot_limit_y, cfg.foot_buffer)
        return arm, foot

    def i_feedback_step(self, p_d, dt):
        cfg = self.cfg
        cx, cy = hard_coerce2(p_d[0], p_d[1], cfg.i_clamp_x, cfg.i_clamp_y)
        y = self.integrator.step((cfg.i_gain * cx, cfg.i_gain * cy), dt)
        z0, z1 = self.ripple_mean.step(y)
        return ((cfg.i_cft_gain * z0, cfg.i_cft_gain * z1),
                (cfg.i_hip_gain * z0, cfg.i_hip_gain * z1))

    def leaning(self, cmd: GaitCommand, t: float, dt: float):
        fit = self.lean_wlbf.step(t, (cmd.vx,))
        last_fit, last_wz, lean = self._lean
        # The held fit means vx and the slope are the last step's, bit for
        # bit; with wz too, and the limiter at rest, the output is the
        # last one. The limiter's value is never -0.0 (it starts at +0.0,
        # and v + d is -0.0 only for two -0.0s), so a step at rest keeps it.
        if fit is last_fit and cmd.wz == last_wz and self.lean_slope.value == fit[0][0]:
            return lean
        cfg = self.cfg
        a_gx = self.lean_slope.step(fit[0][0], dt)
        raw = (
            cfg.lean_gain_vx * cmd.vx
            + cfg.lean_gain_wz * abs(cmd.wz)
            + cfg.lean_gain_ax * a_gx
        )
        if raw != raw:  # products that overflow with opposite signs: each capped
            raw = sum(max(-float_info.max, min(g * v, float_info.max)) for g, v in (
                (cfg.lean_gain_vx, cmd.vx), (cfg.lean_gain_wz, abs(cmd.wz)),
                (cfg.lean_gain_ax, a_gx)))
        lean = (0.0, soft_coerce_1d(raw, cfg.lean_limit, cfg.lean_buffer))
        self._lean = fit, cmd.wz, lean
        return lean

    def swing_out_step(self, p_xb: float, t: float, sigma: float, pd_mean):
        cfg = self.cfg
        (pdot_sync,), (p_sync,) = self.so_wlbf.step(t, (p_xb,))

        # Crossing angles per support foot (lambda = -1 for L, +1 for R)
        c = cfg.so_pendulum_c
        e_l = crossing_energy(-(p_sync - cfg.so_crossing_px_l), -pdot_sync, c)
        e_r = crossing_energy(p_sync - cfg.so_crossing_px_r, pdot_sync, c)

        raw_l = cfg.so_gain * one_sided_deadband(e_l, cfg.so_energy_min, cfg.so_deadband)
        raw_r = cfg.so_gain * one_sided_deadband(e_r, cfg.so_energy_min, cfg.so_deadband)
        if raw_l + raw_r == inf:  # an so_gain above 1 times an energy near the largest float
            raw_l, raw_r = min(raw_l, float_info.max), min(raw_r, float_info.max)
        h_l = self.so_hold_l.step(raw_l, t)
        h_r = self.so_hold_r.step(raw_r, t)
        # Nothing held: p_xo is 0. A p_xo of 0 from held values ends at the
        # same (0.0, 0.0) below, in soft_coerce2
        if not (h_l or h_r):
            return (0.0, 0.0), e_l, e_r

        p_xo = 0.5 * (1.0 + sigma) * h_r - 0.5 * (1.0 - sigma) * h_l

        # Rotate toward the deviation direction, within the configured limits
        mag = abs(p_xo)
        theta0 = 0.0 if p_xo > 0.0 else pi
        pdx, pdy = pd_mean
        if pdx != 0.0 or pdy != 0.0:
            want = atan2(pdy, pdx)
            delta = remainder(want - theta0, 2.0 * pi)
            lim = cfg.so_max_rotation
            if delta > lim:
                delta = lim
            elif delta < -lim:
                delta = -lim
        else:
            delta = 0.0
        vx = mag * cos(theta0 + delta)
        vy = mag * sin(theta0 + delta)
        sag_max = cfg.so_sagittal_max
        if vy > sag_max:
            vy = sag_max
        elif vy < -sag_max:
            vy = -sag_max
        return soft_coerce2(vx, vy, cfg.so_limit_x, cfg.so_limit_y, cfg.so_buffer), e_l, e_r

    def swing_ground_plane(self, p_ns):
        """Swing ground plane tilt from P_NS, which `deviation_tilt` returns:
        P_q( q_y(pyN) * q_P(P_B)^* * q_P(P_E) * q_y(-pyN) )."""
        cfg = self.cfg
        m0, m1 = self.sp_mean.step(p_ns)
        v0, v1 = smooth_deadband2(m0, m1, cfg.sp_deadband_x, cfg.sp_deadband_y)
        return soft_coerce2(cfg.sp_gain * v0, cfg.sp_gain * v1,
                            cfg.sp_limit_x, cfg.sp_limit_y, cfg.sp_buffer)

    def max_hip_height_step(self, pd_mean, dt):
        cfg = self.cfg
        prev = self._pd_mean_prev
        if prev is None:
            s_d = 0.0
        else:
            dx = pd_mean[0] - prev[0]
            dy = pd_mean[1] - prev[1]
            if cfg.hh_sagittal_only:
                s_d = abs(dy) / dt
            else:
                s_d = sqrt(dx * dx + dy * dy) / dt
        self._pd_mean_prev = pd_mean
        instability = self.hh_islope.step(self.hh_lowpass.step(s_d, dt), dt)
        h_raw = coerced_interp(
            instability,
            cfg.hh_instability_lo, cfg.hh_instability_hi,
            cfg.hh_height_hi, cfg.hh_height_lo,
        )
        return self.hh_hslope.step(h_raw, dt), instability, s_d

    # -- one full control cycle ---------------------------------------------

    def _hold_non_finite(self, imu: ImuSample, cmd: GaitCommand, dt: float):
        """(imu, cmd, flags) with each non-finite value replaced by its held one.

        A gyro whose squared norm overflows (|gyro| above about 1.3e154) is
        held whole, as the estimator cannot integrate it; `step` also flags
        `imu_nonfinite` when the rotation |rate| * dt overflows, and then
        the estimate holds its attitude. A held timestamp
        advances by dt. Flags `imu_nonfinite` and `cmd_nonfinite` name the
        input that had one.
        """
        held_imu, held_cmd = self._held
        flags = ()
        t, gyro, accel = imu
        if not all(map(isfinite, (t, sum(v * v for v in gyro), *accel))):
            flags = ("imu_nonfinite",)
            gyro = tuple(v if isfinite(v) else h for v, h in zip(gyro, held_imu.gyro))
            if not isfinite(sum(v * v for v in gyro)):
                gyro = held_imu.gyro
            imu = ImuSample(
                t if isfinite(t) else held_imu.t + dt,
                gyro,
                tuple(v if isfinite(v) else h for v, h in zip(accel, held_imu.accel)),
            )
        if not all(map(isfinite, cmd)):
            flags += ("cmd_nonfinite",)
            cmd = GaitCommand(*(v if isfinite(v) else h for v, h in zip(cmd, held_cmd)))
        return imu, cmd, flags

    def step(self, imu: ImuSample, cmd: GaitCommand, dt: float) -> ActivationSet:
        if not 0.0 < dt < inf:
            raise ValueError("dt must be positive and finite")
        cfg = self.cfg
        mu = self.mu
        flags = ()

        # One sum covers every input, the gyro by its squares; only a
        # non-finite (or overflowing) sum is scanned
        t, gyro, accel = imu
        if not isfinite(
            t + gyro[0] * gyro[0] + gyro[1] * gyro[1] + gyro[2] * gyro[2]
            + accel[0] + accel[1] + accel[2] + cmd[0] + cmd[1] + cmd[2]
        ):
            imu, cmd, flags = self._hold_non_finite(imu, cmd, dt)
            t, gyro, accel = imu
        # First: its WLBF refuses a non-increasing time before any state changes
        lean = self.leaning(cmd, t, dt)
        self._held = imu, cmd

        try:
            p_b = self.estimator.step(gyro, accel, dt)
        except OverflowError:
            # |rate| * dt overflows: the estimate holds its attitude
            p_b = tilt_of_quat(self.estimator.q)
            if "imu_nonfinite" not in flags:
                flags = ("imu_nonfinite",) + flags
        p_e = self._flat
        if p_e is None:
            p_e = self.waveform.evaluate(mu)
        p_dx, p_dy, converged, ns_px, ns_py = deviation_tilt(p_b, p_e, cfg.py_nominal)
        if not converged:
            flags += ("deviation_degenerate",)
        p_d = (p_dx, p_dy)

        pd_mean = self.p_mean.step(p_d)
        pd_slope, _ = self.d_wlbf.step(t, p_d)

        arm, foot = self.pd_feedback(pd_mean, pd_slope)
        cft, hip = self.i_feedback_step(p_d, dt)
        sigma = support_indicator(mu, cfg.double_support_width)
        swing_out, e_l, e_r = self.swing_out_step(p_b[0], t, sigma, pd_mean)
        plane = self.swing_ground_plane((ns_px, ns_py))
        f_g = timing_law(p_dx, sigma, cfg)
        h_max, instability, s_d = self.max_hip_height_step(pd_mean, dt)

        self.mu = gait_phase_step(mu, f_g, dt)

        # Every field in declaration order (see _new_tuple): the nine actions,
        # then mu, the body, expected and deviation tilts and the diagnostics
        return _new_tuple(ActivationSet, (
            arm, foot, cft, hip, h_max, lean, swing_out, plane, f_g,
            mu, p_b, p_e, p_d, e_l, e_r, instability, s_d, flags,
        ))

