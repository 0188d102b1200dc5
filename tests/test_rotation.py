import math
import random
import types

import numpy as np
import pytest
from reference import (
    axis_rotation,
    fused_yaw,
    quat_angle_dist,
    random_quat,
    remove_fused_yaw,
    tilt_phase_from_quat,
)

import tiltphase
from tiltphase import rotation
from tiltphase.rotation import (
    quat_conj,
    quat_from_tilt_phase,
    quat_mul,
    quat_normalize,
    quat_rotate,
    tilt_of_quat,
    wrap_pi,
)


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
        assert quat_from_tilt_phase((0.0, 0.0)) == pytest.approx((1, 0, 0, 0))
        assert tilt_phase_from_quat((1.0, 0.0, 0.0, 0.0)) == pytest.approx((0, 0, 0))

    def test_pure_x_tilt(self):
        q = quat_from_tilt_phase((0.3, 0.0))
        assert q == pytest.approx((math.cos(0.15), math.sin(0.15), 0, 0))

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
            q2 = quat_mul(axis_rotation("z", p.pz), quat_from_tilt_phase(p[:2]))
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
        # alpha is the angle between the body z-axis and the world z-axis
        rng = random.Random(7)
        for _ in range(2000):
            q = random_quat(rng)
            R = quat_to_matrix(q)
            alpha = math.atan2(math.hypot(R[2, 0], R[2, 1]), R[2, 2])
            assert math.hypot(*tilt_of_quat(q)) == pytest.approx(alpha, abs=1e-10)


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
    """The 2D tilt phase against the fused angles of the rotation matrix.

    The world z-row of R is (-sin(theta), sin(phi), cos(alpha)) for fused
    pitch theta, fused roll phi and tilt angle alpha, and the hemisphere is
    the sign of cos(alpha) (Allgeuer & Behnke, IROS 2015).
    """

    def test_cross_identities(self):
        # Fused roll, pitch and hemisphere give back the tilt:
        # sin(alpha) = |(sin(phi), sin(theta))|, gamma = atan2(sin(theta), sin(phi))
        rng = random.Random(33)
        for _ in range(10_000):
            q = random_quat(rng)
            R = quat_to_matrix(q)
            phi = math.asin(R[2, 1])
            theta = math.asin(-R[2, 0])
            hemisphere = 1.0 if R[2, 2] >= 0.0 else -1.0
            sa = math.hypot(math.sin(phi), math.sin(theta))
            alpha = math.atan2(sa, hemisphere * math.sqrt(max(0.0, 1.0 - sa * sa)))
            gamma = math.atan2(math.sin(theta), math.sin(phi))
            px, py = tilt_of_quat(q)
            assert px == pytest.approx(alpha * math.cos(gamma), abs=1e-9)
            assert py == pytest.approx(alpha * math.sin(gamma), abs=1e-9)

    def test_hemisphere(self):
        assert math.cos(math.hypot(*tilt_of_quat(quat_from_tilt_phase((0.3, 0.0))))) > 0.0
        assert math.cos(math.hypot(*tilt_of_quat(quat_from_tilt_phase((2.5, 0.0))))) < 0.0
        rng = random.Random(55)
        for _ in range(1000):
            q = random_quat(rng)
            alpha = math.hypot(*tilt_of_quat(q))
            assert (math.cos(alpha) >= 0.0) == (quat_to_matrix(q)[2, 2] >= 0.0)

    def test_matches_rotation_matrix(self):
        # sin(alpha) cos(gamma) = sin(phi) = R[2, 1], sin(alpha) sin(gamma) = sin(theta) = -R[2, 0]
        rng = random.Random(44)
        for _ in range(500):
            q = random_quat(rng)
            px, py = tilt_of_quat(q)
            alpha = math.hypot(px, py)
            sinc = math.sin(alpha) / alpha if alpha > 0.0 else 1.0
            R = quat_to_matrix(q)
            assert sinc * py == pytest.approx(-R[2, 0], abs=1e-9)
            assert sinc * px == pytest.approx(R[2, 1], abs=1e-9)


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
        assert q[0] >= 0.0
        assert q == pytest.approx((0.5, -0.5, -0.5, -0.5))


class TestSurface:
    """The package holds what the control loop runs, and nothing more."""

    def test_rotation_holds_the_loop_kernels(self):
        public = {
            name for name, obj in vars(rotation).items()
            if not name.startswith("_") and callable(obj)
            and getattr(obj, "__module__", None) == rotation.__name__
        }
        loop = {"wrap_pi", "quat_normalize", "tilt_quat", "tilt_of_quat", "quat_from_tilt_phase",
                "imu_of_motion"}
        # The traced benchmark wraps these on the plant module
        wrap_points = {"quat_mul", "quat_conj", "quat_rotate"}
        assert public == loop | wrap_points

    def test_package_exports_only_its_version(self):
        exported = {
            name for name, obj in vars(tiltphase).items()
            if not name.startswith("_") and not isinstance(obj, types.ModuleType)
        }
        assert exported == set()
        assert tiltphase.__version__

    def test_quat_from_tilt_phase_refuses_a_3_tuple(self):
        with pytest.raises(ValueError):
            quat_from_tilt_phase((0.3, 0.0, 0.7))
