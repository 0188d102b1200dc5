import math
import random

import pytest
from reference import estimator, fused_yaw, remove_fused_yaw, tilt_phase_from_quat

from tiltphase.estimator import GRAVITY, ImuSample
from tiltphase.rotation import quat_conj, quat_from_tilt_phase, quat_mul, quat_normalize, quat_rotate


def ideal_imu(q_prev, q_now, dt):
    """Exact body rates and accelerometer reading for a rotation step."""
    dq = quat_mul(quat_conj(q_prev), q_now)
    w, x, y, z = quat_normalize(dq)
    s = math.sqrt(x * x + y * y + z * z)
    if s < 1e-15:
        gyro = (0.0, 0.0, 0.0)
    else:
        ang = 2.0 * math.atan2(s, w)
        k = ang / (s * dt)
        gyro = (k * x, k * y, k * z)
    accel = quat_rotate(quat_conj(q_now), (0.0, 0.0, GRAVITY))
    return gyro, accel


def tilt_trajectory(t):
    """Known sinusoidal tilt trajectory used as ground truth."""
    px = 0.15 * math.sin(2.0 * t)
    py = 0.10 * math.sin(1.3 * t + 0.4)
    return quat_from_tilt_phase((px, py))


class TestEquilibrium:
    def test_stationary_upright(self):
        est = estimator()
        for _ in range(500):
            p = est.step((0.0, 0.0, 0.0), (0.0, 0.0, GRAVITY), 0.01)
        assert p == pytest.approx((0.0, 0.0), abs=1e-12)

    def test_yaw_only_motion(self):
        est = estimator()
        for _ in range(500):
            p = est.step((0.0, 0.0, 1.0), (0.0, 0.0, GRAVITY), 0.01)
        assert p == pytest.approx((0.0, 0.0), abs=1e-9)

    def test_accel_trust_window_gates_correction(self):
        est = estimator()
        # Garbage accel far outside [0.5g, 1.5g] must be ignored entirely.
        for _ in range(100):
            p = est.step((0.0, 0.0, 0.0), (50.0, 0.0, 1.0), 0.01)
        assert p == pytest.approx((0.0, 0.0), abs=1e-12)

    def test_rejects_bad_dt(self):
        est = estimator()
        with pytest.raises(ValueError):
            est.step((0, 0, 0), (0, 0, GRAVITY), 0.0)


class TestTracking:
    def test_synthetic_trace_tracking(self):
        est = estimator(kp=2.0)
        dt = 0.01
        q_prev = tilt_trajectory(0.0)
        worst = 0.0
        for k in range(1, 1001):
            t = k * dt
            q_now = tilt_trajectory(t)
            gyro, accel = ideal_imu(q_prev, q_now, dt)
            px, py = est.step(gyro, accel, dt)
            if t > 1.0:
                tp = tilt_phase_from_quat(q_now)
                err = math.hypot(px - tp.px, py - tp.py)
                worst = max(worst, err)
            q_prev = q_now
        assert worst < 0.01

    def test_gyro_only_integration(self):
        # kp = ki = 0: pure kinematic integration reproduces ground truth tilt.
        est = estimator(kp=0.0, ki=0.0)
        dt = 0.001
        q_prev = tilt_trajectory(0.0)
        est.q = quat_normalize(q_prev)
        for k in range(1, 2001):
            q_now = tilt_trajectory(k * dt)
            gyro, accel = ideal_imu(q_prev, q_now, dt)
            px, py = est.step(gyro, accel, dt)
            q_prev = q_now
        tp = tilt_phase_from_quat(q_prev)
        assert math.hypot(px - tp.px, py - tp.py) < 1e-6

    def test_converges_from_wrong_init(self):
        est = estimator(kp=2.0)
        est.q = quat_normalize(quat_from_tilt_phase((0.4, -0.3)))
        for _ in range(1000):
            p = est.step((0.0, 0.0, 0.0), (0.0, 0.0, GRAVITY), 0.01)
        assert math.hypot(*p) < 1e-3

    def test_bias_estimation(self):
        est = estimator(kp=2.0, ki=0.5, bias_limit=0.1)
        bias = (0.02, -0.01, 0.0)
        for _ in range(20000):
            p = est.step(bias, (0.0, 0.0, GRAVITY), 0.01)
        assert est.bias[0] == pytest.approx(0.02, abs=5e-3)
        assert est.bias[1] == pytest.approx(-0.01, abs=5e-3)
        assert math.hypot(*p) < 0.02

    def test_rotation_overflow_leaves_state_unchanged(self):
        est = estimator(kp=2.0, ki=0.5, bias_limit=0.1)
        for _ in range(50):
            est.step((0.03, -0.02, 0.01), (1.0, 0.5, GRAVITY), 0.01)
        q, bias = est.q, est.bias
        # A tilted accelerometer alone gives a rate of about kp, and
        # 2 * 1e308 overflows
        with pytest.raises(OverflowError):
            est.step((0.0, 0.0, 0.0), (GRAVITY, 0.0, 0.0), 1e308)
        assert (est.q, est.bias) == (q, bias)


class TestInvariants:
    def test_norm_drift(self):
        est = estimator(kp=2.0)
        rng = random.Random(4)
        for _ in range(200_000):
            gyro = tuple(rng.gauss(0.0, 1.0) for _ in range(3))
            accel = (rng.gauss(0, 0.5), rng.gauss(0, 0.5), GRAVITY + rng.gauss(0, 0.5))
            est.step(gyro, accel, 0.01)
            w, x, y, z = est.q
        n = math.sqrt(w * w + x * x + y * y + z * z)
        assert abs(n - 1.0) < 1e-9

    def test_output_is_yaw_free(self):
        est = estimator(kp=2.0)
        rng = random.Random(8)
        for _ in range(2000):
            gyro = tuple(rng.gauss(0.0, 0.5) for _ in range(3))
            p = est.step(gyro, (0.0, 0.0, GRAVITY), 0.01)
            # The reported tilt phase corresponds to a zero-yaw rotation.
            q_used = quat_from_tilt_phase(p)
            assert abs(fused_yaw(q_used)) < 1e-12
            # And matches the de-yawed estimate.
            pt = tilt_phase_from_quat(remove_fused_yaw(est.q))
            assert p.px == pytest.approx(pt.px, abs=1e-10)
            assert p.py == pytest.approx(pt.py, abs=1e-10)


class TestImuSample:
    def test_fields(self):
        s = ImuSample(0.5, (0.1, 0.2, 0.3), (0.0, 0.0, GRAVITY))
        assert s.t == 0.5
        assert s.gyro == (0.1, 0.2, 0.3)
        assert s.accel == (0.0, 0.0, GRAVITY)
