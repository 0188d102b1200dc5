import math
import random

import numpy as np
import pytest

from tiltphase.rotation import (
    FusedAngles,
    axis_rotation,
    fused_angles_from_quat,
    fused_yaw,
    quat_conj,
    quat_from_tilt_phase,
    quat_mul,
    quat_normalize,
    quat_rotate,
    remove_fused_yaw,
    tilt_angles_from_quat,
    tilt_phase_from_quat,
    wrap_pi,
)


def random_quat(rng):
    """Uniform random rotation (Shoemake via normalized Gaussian 4-vector)."""
    v = [rng.gauss(0.0, 1.0) for _ in range(4)]
    return quat_normalize(v)


def quat_angle_dist(a, b):
    """Sign-free distance between two unit quaternions (2*asin of chord/2)."""
    dm = math.sqrt(sum((ai - bi) ** 2 for ai, bi in zip(a, b)))
    dp = math.sqrt(sum((ai + bi) ** 2 for ai, bi in zip(a, b)))
    return 2.0 * math.asin(min(1.0, 0.5 * min(dm, dp)))


def quat_to_matrix(q):
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


class TestWrap:
    def test_wrap_boundaries(self):
        assert wrap_pi(math.pi) == pytest.approx(math.pi)
        assert wrap_pi(-math.pi) == pytest.approx(math.pi)
        assert wrap_pi(3 * math.pi) == pytest.approx(math.pi)
        assert wrap_pi(0.3) == pytest.approx(0.3)
        assert wrap_pi(math.pi + 0.1) == pytest.approx(-math.pi + 0.1)


class TestAxisRotation:
    def test_identity(self):
        assert axis_rotation("y", 0.0) == pytest.approx((1, 0, 0, 0))

    def test_half_turn_z(self):
        assert axis_rotation("z", math.pi) == pytest.approx((0, 0, 0, 1), abs=1e-15)

    def test_half_angle_construction(self):
        q = axis_rotation("y", 0.4)
        assert q == pytest.approx((math.cos(0.2), 0, math.sin(0.2), 0))

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            axis_rotation("w", 0.1)


class TestTiltPhaseConversion:
    def test_identity_round_trip(self):
        assert quat_from_tilt_phase((0.0, 0.0, 0.0)) == pytest.approx((1, 0, 0, 0))
        assert tilt_phase_from_quat((1.0, 0.0, 0.0, 0.0)) == pytest.approx((0, 0, 0))

    def test_pure_x_tilt(self):
        q = quat_from_tilt_phase((0.3, 0.0, 0.0))
        assert q == pytest.approx((math.cos(0.15), math.sin(0.15), 0, 0))

    def test_two_tuple_input(self):
        assert quat_from_tilt_phase((0.3, 0.0)) == pytest.approx(
            quat_from_tilt_phase((0.3, 0.0, 0.0))
        )

    def test_yaw_only(self):
        q = axis_rotation("z", 0.7)
        assert tilt_phase_from_quat(q) == pytest.approx((0, 0, 0.7))

    def test_fused_yaw_of_yawed_tilt(self):
        # Fused yaw of q_z(psi) * (pure tilt) is psi by construction.
        q = quat_mul(axis_rotation("z", 0.7), axis_rotation("y", 0.4))
        assert tilt_phase_from_quat(q).pz == pytest.approx(0.7, abs=1e-12)

    def test_round_trip_fuzz(self):
        rng = random.Random(1234)
        for _ in range(100_000):
            q = random_quat(rng)
            p = tilt_phase_from_quat(q)
            alpha = math.hypot(p.px, p.py)
            if alpha > math.pi - 1e-6:
                continue
            q2 = quat_from_tilt_phase(p)
            assert quat_angle_dist(q, q2) < 1e-10

    def test_alpha_pi_branch(self):
        # Half-turn tilt about an axis at gamma = 0.8: w = z = 0.
        g = 0.8
        q = (0.0, math.cos(g), math.sin(g), 0.0)
        p = tilt_phase_from_quat(q)
        assert math.hypot(p.px, p.py) == pytest.approx(math.pi)
        assert math.atan2(p.py, p.px) == pytest.approx(g)
        assert p.pz == 0.0

    def test_tilt_magnitude_is_alpha(self):
        rng = random.Random(7)
        for _ in range(2000):
            q = random_quat(rng)
            p = tilt_phase_from_quat(q)
            psi, gamma, alpha = tilt_angles_from_quat(q)
            assert math.hypot(p.px, p.py) == pytest.approx(alpha, abs=1e-10)


class TestFusedYaw:
    def test_pure_z(self):
        for psi in [-3.0, -0.5, 0.0, 1.0, math.pi]:
            assert fused_yaw(axis_rotation("z", psi)) == pytest.approx(psi, abs=1e-12)

    def test_pure_tilt_has_zero_yaw(self):
        rng = random.Random(5)
        for _ in range(1000):
            p = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            assert abs(fused_yaw(quat_from_tilt_phase(p))) < 1e-12

    def test_self_consistency(self):
        rng = random.Random(9)
        for _ in range(10_000):
            q = random_quat(rng)
            psi = fused_yaw(q)
            q0 = quat_mul(axis_rotation("z", -psi), q)
            assert abs(fused_yaw(q0)) <= 1e-10

    def test_singularity_returns_zero(self):
        assert fused_yaw((0.0, 0.6, 0.8, 0.0)) == 0.0

    def test_yaw_of_yawed_pure_tilt(self):
        rng = random.Random(11)
        for _ in range(2000):
            psi = rng.uniform(-math.pi, math.pi)
            t = quat_from_tilt_phase((rng.uniform(-2, 2), rng.uniform(-2, 2)))
            q = quat_mul(axis_rotation("z", psi), t)
            assert fused_yaw(q) == pytest.approx(psi, abs=1e-10)


class TestRemoveFusedYaw:
    def test_pure_tilt_unchanged(self):
        q = quat_from_tilt_phase((0.4, -0.2))
        assert remove_fused_yaw(q) == pytest.approx(q, abs=1e-14)

    def test_pure_yaw_gives_identity(self):
        assert remove_fused_yaw(axis_rotation("z", 0.5)) == pytest.approx(
            (1, 0, 0, 0), abs=1e-14
        )

    def test_decomposition_fuzz(self):
        rng = random.Random(21)
        for _ in range(10_000):
            q = random_quat(rng)
            t = remove_fused_yaw(q)
            pt = tilt_phase_from_quat(t)
            pq = tilt_phase_from_quat(q)
            assert abs(pt.pz) < 1e-12
            assert pt.px == pytest.approx(pq.px, abs=1e-10)
            assert pt.py == pytest.approx(pq.py, abs=1e-10)


class TestFusedAngles:
    def test_cross_identities(self):
        # sin(phi) = sin(alpha) cos(gamma), sin(theta) = sin(alpha) sin(gamma)
        rng = random.Random(33)
        for _ in range(10_000):
            q = random_quat(rng)
            psi, gamma, alpha = tilt_angles_from_quat(q)
            fa = fused_angles_from_quat(q)
            assert math.sin(fa.phi) == pytest.approx(
                math.sin(alpha) * math.cos(gamma), abs=1e-12
            )
            assert math.sin(fa.theta) == pytest.approx(
                math.sin(alpha) * math.sin(gamma), abs=1e-12
            )

    def test_hemisphere(self):
        assert fused_angles_from_quat(quat_from_tilt_phase((0.3, 0.0))).hemisphere == 1
        assert fused_angles_from_quat(quat_from_tilt_phase((2.5, 0.0))).hemisphere == -1

    def test_matches_rotation_matrix(self):
        # Fused roll/pitch relate to the gravity column of the rotation matrix.
        rng = random.Random(44)
        for _ in range(500):
            q = random_quat(rng)
            fa = fused_angles_from_quat(q)
            R = quat_to_matrix(q)
            # z-row of R^T: gravity direction in body frame
            assert math.sin(fa.theta) == pytest.approx(-R[2, 0], abs=1e-9)
            assert math.sin(fa.phi) == pytest.approx(R[2, 1], abs=1e-9)


class TestTiltVectorAdd:
    def test_colinear_tilts_add_angles(self):
        qs = quat_from_tilt_phase((0.2 + 0.3, 0.0))
        qc = quat_mul(quat_from_tilt_phase((0.2, 0.0)), quat_from_tilt_phase((0.3, 0.0)))
        assert qs == pytest.approx(qc, abs=1e-12)


class TestQuatOps:
    def test_mul_conj_is_identity(self):
        rng = random.Random(66)
        for _ in range(1000):
            q = random_quat(rng)
            r = quat_normalize(quat_mul(q, quat_conj(q)))
            assert r == pytest.approx((1, 0, 0, 0), abs=1e-12)

    def test_rotate_matches_matrix(self):
        rng = random.Random(77)
        for _ in range(500):
            q = random_quat(rng)
            v = np.array([rng.uniform(-2, 2) for _ in range(3)])
            got = np.array(quat_rotate(q, v))
            want = quat_to_matrix(q) @ v
            assert np.allclose(got, want, atol=1e-12)

    def test_canonical_w_nonnegative(self):
        q = quat_normalize((-0.5, 0.5, 0.5, 0.5))
        assert q.w >= 0.0
        assert q == pytest.approx((0.5, -0.5, -0.5, -0.5))
