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

import math
from typing import NamedTuple, Tuple

from tiltphase.config import ControllerConfig
from tiltphase.deviation import ExpectedWaveform, deviation_tilt, gait_phase_step
from tiltphase.estimator import AttitudeEstimator, ImuSample
from tiltphase.filters import (
    BoundedIntegrator,
    Ellipsoid,
    HoldFilter,
    LowPassFilter,
    MeanFilter,
    SlopeLimiter,
    WlbfFilter,
    coerced_interp,
    hard_coerce_ellip,
    one_sided_deadband,
    smooth_deadband2,
    smooth_deadband_1d,
    soft_coerce2,
    soft_coerce_1d,
)


# tuple.__new__(ActivationSet, fields) skips the generated keyword
# constructor, which costs about 1 us per cycle for this 19-field tuple.
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
    gait_frequency: float = 2.0 * math.pi
    # Diagnostics (carried, never thrown)
    mu: float = 0.0
    body_tilt: Tuple[float, float] = (0.0, 0.0)
    expected_tilt: Tuple[float, float] = (0.0, 0.0)
    deviation: Tuple[float, float] = (0.0, 0.0)
    deviation_mean: Tuple[float, float] = (0.0, 0.0)
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
    crossing. C1 in both arguments.
    """
    if c <= 0.0:
        raise ValueError("pendulum constant must be positive")
    kin = (phidot * phidot) / (c * c)
    if phidot < 0.0:
        kin = -kin
    pot = 2.0 * (math.cos(phi) - 1.0)
    if phi > 0.0:
        pot = -pot
    return kin + pot


def pendulum_invariant(phi: float, phidot: float, c: float) -> float:
    """Conserved quantity of the undisturbed tilt pendulum."""
    return (phidot * phidot) / (c * c) + 2.0 * (math.cos(phi) - 1.0)


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
    lo = -math.pi + d
    if mu <= lo:
        return 1.0 - 2.0 * ((mu + math.pi) / d)
    return -1.0


def directional_gain(v: Tuple[float, float], gain_lat: float, gain_sag: float) -> float:
    """Elliptical interpolation of lateral (x) and sagittal (y) gains along v."""
    x, y = v
    m2 = x * x + y * y
    if m2 == 0.0:
        return min(gain_lat, gain_sag)
    s = (x / gain_lat) ** 2 + (y / gain_sag) ** 2
    return math.sqrt(m2 / s)


def timing_law(
    p_xd: float, mu: float, cfg: ControllerConfig
) -> float:
    """Gait frequency from the lateral deviation tilt.

    Leaning over the current support foot slows the stepping (the step is
    delayed until the lateral tilt returns); leaning toward the swing side
    speeds it up. Output clamped to [f_min, f_max].
    """
    sigma = support_indicator(mu, cfg.double_support_width)
    f = cfg.f_nom - cfg.tim_gain * smooth_deadband_1d(p_xd * sigma, cfg.tim_deadband)
    if f < cfg.f_min:
        return cfg.f_min
    if f > cfg.f_max:
        return cfg.f_max
    return f


class TiltPhaseController:
    """Stateful controller; `step` is strictly sequential and deterministic."""

    def __init__(self, cfg: ControllerConfig):
        cfg.validate()
        self.cfg = cfg
        self.waveform = ExpectedWaveform(
            cfg.wave_amp_x, cfg.wave_amp_y,
            cfg.wave_phase_x, cfg.wave_phase_y,
            cfg.wave_offset_x, cfg.wave_offset_y,
        )
        self.estimator = AttitudeEstimator(
            kp=cfg.est_kp, ki=cfg.est_ki, bias_limit=cfg.est_bias_limit,
            acc_min_g=cfg.est_acc_min_g, acc_max_g=cfg.est_acc_max_g,
        )

        self._db_p = Ellipsoid((cfg.pd_deadband_p_x, cfg.pd_deadband_p_y))
        self._db_d = Ellipsoid((cfg.pd_deadband_d_x, cfg.pd_deadband_d_y))
        self._arm_out = Ellipsoid((cfg.arm_limit_x, cfg.arm_limit_y))
        self._foot_out = Ellipsoid((cfg.foot_limit_x, cfg.foot_limit_y))
        self._i_clamp = Ellipsoid((cfg.i_clamp_x, cfg.i_clamp_y))
        self._so_out = Ellipsoid((cfg.so_limit_x, cfg.so_limit_y))
        self._sp_db = Ellipsoid((cfg.sp_deadband_x, cfg.sp_deadband_y))
        self._sp_out = Ellipsoid((cfg.sp_limit_x, cfg.sp_limit_y))

        self.p_mean = MeanFilter(2, cfg.pd_mean_order)
        self.d_wlbf = WlbfFilter(2, cfg.pd_wlbf_size)
        self.integrator = BoundedIntegrator(
            Ellipsoid((cfg.i_bound_x, cfg.i_bound_y)), cfg.i_buffer
        )
        # Ripple filter spans an even number of steps at the nominal frequency
        step_cycles = math.pi / (cfg.f_nom * cfg.cycle_dt)
        self.ripple_mean = MeanFilter(
            2, max(1, round(cfg.i_ripple_steps * step_cycles))
        )
        self.lean_wlbf = WlbfFilter(1, cfg.lean_wlbf_size)
        self.lean_slope = SlopeLimiter(cfg.lean_slope_rate)
        self.so_wlbf = WlbfFilter(1, cfg.so_wlbf_size)
        self.so_hold_l = HoldFilter(cfg.so_hold_time)
        self.so_hold_r = HoldFilter(cfg.so_hold_time)
        self.sp_mean = MeanFilter(2, cfg.sp_mean_order)
        self.hh_lowpass = LowPassFilter(cfg.hh_settle_time)
        self.hh_islope = SlopeLimiter(cfg.hh_slope_rate)
        self.hh_hslope = SlopeLimiter(cfg.hh_height_rate, initial=cfg.hh_height_hi)

        self.mu = 0.0
        self._pd_mean_prev: Tuple[float, float] | None = None

    def reset(self) -> None:
        self.estimator.reset()
        self.p_mean.reset()
        self.d_wlbf.reset()
        self.integrator.reset()
        self.ripple_mean.reset()
        self.lean_wlbf.reset()
        self.lean_slope.reset()
        self.so_wlbf.reset()
        self.so_hold_l.reset()
        self.so_hold_r.reset()
        self.sp_mean.reset()
        self.hh_lowpass.reset()
        self.hh_islope.reset()
        self.hh_hslope.reset(self.cfg.hh_height_hi)
        self.mu = 0.0
        self._pd_mean_prev = None

    # -- individual corrective action computations --------------------------

    def pd_feedback(self, pd_mean, pd_slope):
        cfg = self.cfg
        a0, a1 = self._db_p.semi_axes
        db_p = p0, p1 = smooth_deadband2(pd_mean[0], pd_mean[1], a0, a1)
        a0, a1 = self._db_d.semi_axes
        db_d = d0, d1 = smooth_deadband2(pd_slope[0], pd_slope[1], a0, a1)

        gp = directional_gain(db_p, cfg.arm_p_gain_lat, cfg.arm_p_gain_sag)
        gd = directional_gain(db_d, cfg.arm_d_gain_lat, cfg.arm_d_gain_sag)
        a0, a1 = self._arm_out.semi_axes
        arm = soft_coerce2(gp * p0 + gd * d0, gp * p1 + gd * d1, a0, a1, cfg.arm_buffer)
        gp = directional_gain(db_p, cfg.foot_p_gain_lat, cfg.foot_p_gain_sag)
        gd = directional_gain(db_d, cfg.foot_d_gain_lat, cfg.foot_d_gain_sag)
        a0, a1 = self._foot_out.semi_axes
        foot = soft_coerce2(gp * p0 + gd * d0, gp * p1 + gd * d1, a0, a1, cfg.foot_buffer)
        return arm, foot

    def i_feedback_step(self, p_d, dt):
        cfg = self.cfg
        cx, cy = hard_coerce_ellip(p_d, self._i_clamp)
        y = self.integrator.step((cfg.i_gain * cx, cfg.i_gain * cy), dt)
        z = self.ripple_mean.step(y)
        cft = (cfg.i_cft_gain * z[0], cfg.i_cft_gain * z[1])
        hip = (cfg.i_hip_gain * z[0], cfg.i_hip_gain * z[1])
        return cft, hip

    def leaning(self, cmd: GaitCommand, t: float, dt: float):
        cfg = self.cfg
        _, slope, _ = self.lean_wlbf.step(t, (cmd.vx,))
        a_gx = self.lean_slope.step(slope[0], dt)
        raw = (
            cfg.lean_gain_vx * cmd.vx
            + cfg.lean_gain_wz * abs(cmd.wz)
            + cfg.lean_gain_ax * a_gx
        )
        return (0.0, soft_coerce_1d(raw, cfg.lean_limit, cfg.lean_buffer))

    def swing_out_step(self, p_xb: float, t: float, mu: float, pd_mean):
        cfg = self.cfg
        _, slope, mtv = self.so_wlbf.step(t, (p_xb,))
        p_sync = mtv[0]
        pdot_sync = slope[0]

        # Crossing angles per support foot (lambda = -1 for L, +1 for R)
        c = cfg.so_pendulum_c
        e_l = crossing_energy(-(p_sync - cfg.so_crossing_px_l), -pdot_sync, c)
        e_r = crossing_energy(p_sync - cfg.so_crossing_px_r, pdot_sync, c)

        raw_l = cfg.so_gain * one_sided_deadband(e_l, cfg.so_energy_min, cfg.so_deadband)
        raw_r = cfg.so_gain * one_sided_deadband(e_r, cfg.so_energy_min, cfg.so_deadband)
        h_l = self.so_hold_l.step(raw_l, t)
        h_r = self.so_hold_r.step(raw_r, t)

        u = support_indicator(mu, cfg.double_support_width)
        p_xo = 0.5 * (1.0 + u) * h_r - 0.5 * (1.0 - u) * h_l
        if p_xo == 0.0:
            return (0.0, 0.0), e_l, e_r

        # Rotate toward the deviation direction, within the configured limits
        mag = abs(p_xo)
        theta0 = 0.0 if p_xo > 0.0 else math.pi
        pdx, pdy = pd_mean
        if pdx != 0.0 or pdy != 0.0:
            want = math.atan2(pdy, pdx)
            delta = math.remainder(want - theta0, 2.0 * math.pi)
            lim = cfg.so_max_rotation
            if delta > lim:
                delta = lim
            elif delta < -lim:
                delta = -lim
        else:
            delta = 0.0
        vx = mag * math.cos(theta0 + delta)
        vy = mag * math.sin(theta0 + delta)
        sag_max = cfg.so_sagittal_max
        if vy > sag_max:
            vy = sag_max
        elif vy < -sag_max:
            vy = -sag_max
        a0, a1 = self._so_out.semi_axes
        return soft_coerce2(vx, vy, a0, a1, cfg.so_buffer), e_l, e_r

    def swing_ground_plane(self, p_b, p_e):
        cfg = self.cfg
        # P_NS = P_q( q_y(pyN) * q_P(P_B)^* * q_P(P_E) * q_y(-pyN) )
        pyn = cfg.py_nominal
        if pyn == 0.0 and p_e[0] == 0.0 and p_e[1] == 0.0:
            # Conjugating a pure tilt rotation negates its tilt phase
            p_ns = (-p_b[0], -p_b[1])
        else:
            hy = 0.5 * pyn
            cy_, sy_ = math.cos(hy), math.sin(hy)
            qb = _quat_from_tilt2(p_b)
            qe = _quat_from_tilt2(p_e)
            a = _qmul((cy_, 0.0, sy_, 0.0), (qb[0], -qb[1], -qb[2], -qb[3]))
            q = _qmul(_qmul(a, qe), (cy_, 0.0, -sy_, 0.0))
            p_ns = _tilt2_of_quat(q)
        m = self.sp_mean.step(p_ns)
        a0, a1 = self._sp_db.semi_axes
        v0, v1 = smooth_deadband2(m[0], m[1], a0, a1)
        a0, a1 = self._sp_out.semi_axes
        return soft_coerce2(cfg.sp_gain * v0, cfg.sp_gain * v1, a0, a1, cfg.sp_buffer), p_ns

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
                s_d = math.sqrt(dx * dx + dy * dy) / dt
        self._pd_mean_prev = (pd_mean[0], pd_mean[1])
        instability = self.hh_islope.step(self.hh_lowpass.step(s_d, dt), dt)
        h_raw = coerced_interp(
            instability,
            cfg.hh_instability_lo, cfg.hh_instability_hi,
            cfg.hh_height_hi, cfg.hh_height_lo,
        )
        return self.hh_hslope.step(h_raw, dt), instability, s_d

    # -- one full control cycle ---------------------------------------------

    def step(self, imu: ImuSample, cmd: GaitCommand, dt: float) -> ActivationSet:
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        cfg = self.cfg
        mu = self.mu
        flags = ()

        p_b = self.estimator.step(imu.gyro, imu.accel, dt)
        p_e = self.waveform.evaluate(mu)
        dev = deviation_tilt(p_b, p_e, cfg.py_nominal)
        if not dev.converged:
            flags = ("deviation_degenerate",)
        p_d = (dev.px, dev.py)

        pd_mean = self.p_mean.step(p_d)
        _, pd_slope, _ = self.d_wlbf.step(imu.t, p_d)

        arm, foot = self.pd_feedback(pd_mean, pd_slope)
        cft, hip = self.i_feedback_step(p_d, dt)
        lean = self.leaning(cmd, imu.t, dt)
        swing_out, e_l, e_r = self.swing_out_step(p_b[0], imu.t, mu, pd_mean)
        plane, _ = self.swing_ground_plane(p_b, p_e)
        f_g = timing_law(p_d[0], mu, cfg)
        h_max, instability, s_d = self.max_hip_height_step(pd_mean, dt)

        self.mu = gait_phase_step(mu, f_g, dt)

        # Fields in declaration order, see _new_tuple.
        return _new_tuple(ActivationSet, (
            arm,  # arm_tilt
            foot,  # support_foot_tilt
            cft,  # continuous_foot_tilt
            hip,  # hip_shift
            h_max,  # max_hip_height
            lean,  # lean_tilt
            swing_out,  # swing_out_tilt
            plane,  # swing_ground_plane
            f_g,  # gait_frequency
            mu,  # mu
            (p_b[0], p_b[1]),  # body_tilt
            (p_e[0], p_e[1]),  # expected_tilt
            p_d,  # deviation
            pd_mean,  # deviation_mean
            e_l,  # crossing_energy_left
            e_r,  # crossing_energy_right
            instability,  # instability
            s_d,  # deviation_speed
            flags,  # flags
        ))


# -- inlined 2D tilt quaternion helpers (hot path) ---------------------------

def _quat_from_tilt2(p):
    px, py = p[0], p[1]
    alpha = math.sqrt(px * px + py * py)
    if alpha < 1e-300:
        return (1.0, 0.0, 0.0, 0.0)
    s = math.sin(0.5 * alpha) / alpha
    return (math.cos(0.5 * alpha), s * px, s * py, 0.0)


def _qmul(a, b):
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def _tilt2_of_quat(q):
    w, x, y, z = q
    s = math.sqrt(x * x + y * y)
    if s < 1e-300:
        return (0.0, 0.0)
    h = math.sqrt(w * w + z * z)
    alpha = 2.0 * math.atan2(s, h)
    if h < 1e-12:
        k = alpha / s
        return (k * x, k * y)
    k = alpha / (h * s)
    return (k * (w * x + z * y), k * (w * y - z * x))
