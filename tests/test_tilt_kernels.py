"""The shared tilt phase <-> quaternion kernels against the code they replaced.

The controller's ground plane, the estimator's output, the deviation tilt
and the plant's measured orientation each used to carry a private copy of
the tilt math. The copies are kept below as references. Every caller of
`rotation.tilt_quat` and `rotation.tilt_of_quat` must reproduce them bit
for bit (IEEE bytes, so -0.0 != 0.0), including signed zeros, subnormal
tilts, tilts near and past pi, the h < 1e-12 branch and a tilted nominal
ground plane. The stated exceptions are tested as such:

- `quat_from_tilt_phase` may differ in the sign of a zero component;
- the de-yawed rotation `quat_from_tilt_phase(tilt_of_quat(q))` moves by
  rounding, and on the singular set by up to |(w, z)|, which the old code
  dropped;
- the ground plane tilt P_NS now comes from `deviation_tilt`'s A * B
  product instead of the ground plane's own chain of rotation calls. It
  moves by rounding: within 1e-14 where |P_NS| < 3, and within 1e-9 (the
  trace epoch bound) everywhere. The residue near the half turn, about
  1e-11, is the tilt direction's sensitivity there;
- `deviation_tilt` is one kernel over local floats with both conversions
  written out. It is tested against `reference.composed_deviation_tilt`,
  the composition of the kernels it replaced, within the per-call bounds
  of `assert_kernel_matches_composition`.

The plant's IMU emission was a chain of rotation calls after
`quat_from_tilt_phase`; `rotation.imu_of_motion` must match a copy of that
chain bit for bit.
"""

import math
import random

import pytest
from reference import (
    TiltPhase3D,
    bits,
    composed_deviation,
    composed_deviation_tilt,
    estimator,
    remove_fused_yaw,
    tilt_phase_from_quat,
)
from test_plant import IDLE

from tiltphase.config import ControllerConfig, PlantConfig
from tiltphase.controller import TiltPhaseController
from tiltphase.deviation import deviation_tilt
from tiltphase.estimator import ImuSample
from tiltphase.filters import smooth_deadband2, soft_coerce2
from tiltphase.plant import SurrogatePlant
from tiltphase.rotation import (
    imu_of_motion,
    quat_from_tilt_phase,
    quat_normalize,
    tilt_of_quat,
    tilt_quat,
    wrap_pi,
)

try:  # Hypothesis is the `test` extra; only the IMU kernel property needs it
    from hypothesis import example, given, settings
    from hypothesis import strategies as hs
except ImportError:
    hs = None

# -- reference copies of the replaced conversions -----------------------------


def ref_quat_from_tilt2(p):
    px, py = p[0], p[1]
    alpha = math.sqrt(px * px + py * py)
    if alpha < 1e-300:
        return (1.0, 0.0, 0.0, 0.0)
    s = math.sin(0.5 * alpha) / alpha
    return (math.cos(0.5 * alpha), s * px, s * py, 0.0)


def ref_qmul(a, b):
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def ref_tilt2_of_quat(q):
    """The controller's and the estimator's trig-free tail (same operations)."""
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


def ref_ground_plane_tilt(p_b, p_e, pyn):
    """P_NS as `swing_ground_plane` computed it with its private helpers."""
    if pyn == 0.0 and p_e[0] == 0.0 and p_e[1] == 0.0:
        return (-p_b[0], -p_b[1])
    hy = 0.5 * pyn
    cy_, sy_ = math.cos(hy), math.sin(hy)
    qb = ref_quat_from_tilt2(p_b)
    qe = ref_quat_from_tilt2(p_e)
    a = ref_qmul((cy_, 0.0, sy_, 0.0), (qb[0], -qb[1], -qb[2], -qb[3]))
    q = ref_qmul(ref_qmul(a, qe), (cy_, 0.0, -sy_, 0.0))
    return ref_tilt2_of_quat(q)


class ReferenceGroundPlane(TiltPhaseController):
    """`swing_ground_plane` as it was, on its private helpers."""

    def ref_swing_ground_plane(self, p_b, p_e):
        cfg = self.cfg
        p_ns = ref_ground_plane_tilt(p_b, p_e, cfg.py_nominal)
        m = self.sp_mean.step(p_ns)
        a0, a1 = cfg.sp_deadband_x, cfg.sp_deadband_y
        v0, v1 = smooth_deadband2(m[0], m[1], a0, a1)
        a0, a1 = cfg.sp_limit_x, cfg.sp_limit_y
        return soft_coerce2(cfg.sp_gain * v0, cfg.sp_gain * v1, a0, a1, cfg.sp_buffer), p_ns


def ref_tilt_phase_from_quat(q):
    """`tilt_phase_from_quat` with gamma from atan2 and px, py from cos/sin."""
    w, x, y, z = q
    h = math.sqrt(w * w + z * z)
    s = math.sqrt(x * x + y * y)
    alpha = 2.0 * math.atan2(s, h)
    if h < 1e-12:
        gamma = math.atan2(y, x)
        return TiltPhase3D(alpha * math.cos(gamma), alpha * math.sin(gamma), 0.0)
    psi = wrap_pi(2.0 * math.atan2(z, w))
    if s < 1e-300:
        return TiltPhase3D(0.0, 0.0, psi)
    gamma = math.atan2(w * y - z * x, w * x + z * y)
    return TiltPhase3D(alpha * math.cos(gamma), alpha * math.sin(gamma), psi)


def ref_quat_from_tilt_phase(p):
    """`quat_from_tilt_phase` as it was, with its own alpha and half-angle
    math; a 2D tilt phase has zero yaw, cos(0) = 1 and sin(0) = 0."""
    px, py = p
    cz = 1.0
    sz = 0.0
    alpha = math.sqrt(px * px + py * py)
    if alpha < 1e-300:
        return quat_normalize((cz, 0.0, 0.0, sz))
    ha = 0.5 * alpha
    ca = math.cos(ha)
    sa = math.sin(ha) / alpha
    tx = sa * px
    ty = sa * py
    return quat_normalize((cz * ca, cz * tx - sz * ty, cz * ty + sz * tx, sz * ca))


def ref_remove_fused_yaw(q):
    """`remove_fused_yaw` with its own de-yaw math."""
    w, x, y, z = q
    h = math.sqrt(w * w + z * z)
    if h < 1e-12:
        return quat_normalize((0.0, x, y, 0.0))
    return quat_normalize((h, (w * x + z * y) / h, (w * y - z * x) / h, 0.0))


# -- inputs ---------------------------------------------------------------------

_SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-300, 1e-160, -1e-160)


def random_tilt(rng):
    """A 2D tilt phase: signed zeros, subnormal and tiny, ordinary, near and past pi."""
    kind = rng.randrange(5)
    if kind == 0:
        return (rng.choice(_SPECIAL), rng.choice(_SPECIAL))
    if kind == 1:
        return (rng.choice(_SPECIAL), rng.uniform(-0.4, 0.4))
    if kind == 2:
        return (rng.uniform(-0.4, 0.4), rng.choice(_SPECIAL))
    if kind == 3:
        alpha = math.pi + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-15, -1)
    else:
        alpha = rng.uniform(0.0, 4.0)
    gamma = rng.uniform(-math.pi, math.pi)
    return (alpha * math.cos(gamma), alpha * math.sin(gamma))


def random_pyn(rng):
    return rng.choice((0.0, -0.0, 1e-310, rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)))


def half_turn_pairs(rng):
    """(P_B, P_E, p_yN) whose deviation is a half turn, so h ~ 0 in the tail.

    Tilts about y commute with the nominal plane's y rotation, so
    P_E - P_B = pi along y gives q_d = q_y(pi) to rounding.
    """
    b = rng.uniform(-1.0, 1.0)
    pyn = random_pyn(rng)
    yield (0.0, b), (0.0, b + math.pi), pyn
    yield (0.0, b), (-0.0, b - math.pi), pyn
    yield (b, 0.0), (b + math.pi, 0.0), 0.0
    yield (b, -0.0), (b - math.pi, 0.0), -0.0


def random_quat_special(rng):
    """A quaternion: uniform rotation, near or at the half turn, or a near-identity."""
    kind = rng.randrange(4)
    if kind == 0:
        v = [rng.gauss(0.0, 1.0) for _ in range(4)]
    elif kind == 1:
        eps = 10.0 ** rng.uniform(-17, -10)
        v = [rng.choice((eps, -eps, 0.0, -0.0)), rng.gauss(0.0, 1.0),
             rng.gauss(0.0, 1.0), rng.choice((eps, -eps, 0.0, -0.0))]
    elif kind == 2:
        v = [1.0, rng.choice(_SPECIAL), rng.choice(_SPECIAL), rng.choice(_SPECIAL)]
    else:
        v = [rng.choice((0.0, -0.0)), rng.gauss(0.0, 1.0), rng.choice(_SPECIAL), 0.0]
    n = math.sqrt(sum(c * c for c in v))
    return tuple(c / n for c in v)


def singular_quat(rng):
    """A quaternion with 0 < |(w, z)| < 1e-12: a tilt within 2e-12 of the half turn."""
    h = 10.0 ** rng.uniform(-300.0, -12.01)
    psi = rng.uniform(-math.pi, math.pi)
    gamma = rng.uniform(-math.pi, math.pi)
    return (h * math.cos(0.5 * psi), math.cos(gamma), math.sin(gamma), h * math.sin(0.5 * psi))


def yaw_norm(q):
    return math.sqrt(q[0] * q[0] + q[3] * q[3])


def assert_equal_up_to_zero_sign(got, want, msg):
    assert got == want, msg
    for g, w in zip(got, want):
        assert bits(g) == bits(w) or g == 0.0, msg


# -- tests ----------------------------------------------------------------------


class TestBitExactTiltKernels:
    @pytest.mark.parametrize("seed", [4, 5])
    def test_estimator_tilt_phase(self, seed):
        rng = random.Random(seed)
        est = estimator()
        for _ in range(5000):
            est.q = random_quat_special(rng)
            # No rotation and a gated-out accelerometer: step reports the
            # tilt phase of q as it stands
            p = est.step((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 0.01)
            assert bits(p) == bits(ref_tilt2_of_quat(est.q)), est.q

    @pytest.mark.parametrize("seed", [6, 7])
    @pytest.mark.parametrize("pyn", [0.0, -0.0, 0.12, -0.2])
    def test_swing_ground_plane(self, seed, pyn):
        """P_NS from `deviation_tilt` and the plane made from it, against the
        old chain: P_NS bit for bit on the P_NS = -P_B fast path, and both
        within the bounds in the module docstring."""
        rng = random.Random(seed)
        cfg = ControllerConfig(py_nominal=pyn)
        ctrl = TiltPhaseController(cfg)
        ref = ReferenceGroundPlane(cfg)
        cases = [(random_tilt(rng), random_tilt(rng)) for _ in range(1000)]
        cases += [(p_b, p_e) for _ in range(50) for p_b, p_e, _ in half_turn_pairs(rng)]
        for p_b, p_e in cases:
            p_ns = deviation_tilt(p_b, p_e, pyn)[3:]
            want_ns = ref_ground_plane_tilt(p_b, p_e, pyn)
            got = ctrl.swing_ground_plane(p_ns)
            want, _ = ref.ref_swing_ground_plane(p_b, p_e)
            if pyn == 0.0 and p_e[0] == 0.0 and p_e[1] == 0.0:
                assert bits(p_ns) == bits(want_ns), (p_b, p_e, pyn)
            # The planes share the ground plane's mean filter, which holds
            # the rounding of earlier cases
            tol = 1e-14 if math.hypot(*want_ns) < 3.0 else 1e-9
            for g, w in zip(p_ns + got, want_ns + want):
                assert abs(g - w) <= tol, (p_b, p_e, pyn)


# Found by bisecting z2(P_E) for these P_B and scanning the ulps around the
# root: z2 == 0 exactly and z1 != 0, so psi_E = pi. Mirroring py flips z1.
Z2_ZERO = [
    ((1.490870174183882, 0.5595928518309905), (1.6150471567498057, 0.0)),
    ((1.803185945445526, 0.8309786809084105), (1.245886244965902, 0.0)),
    ((0.6877191735484698, 0.22267798121760507), (2.451085037468854, 0.0)),
    # Half-turn deviations, |w| < 1e-12: on this singular set the sign of
    # (cz, sz) decides the direction of P_d
    ((1.9415926535897932, 1e-13), (1.2, 0.0)),
    ((1.1415926535897933, 3e-13), (2.0, 0.0)),
]


def z1_z2(p_b, p_e):
    """z1 and z2 of a level nominal plane, A = q_P(P_B)^* and B = q_P(P_E)."""
    bw, bx, by, _ = tilt_quat(*p_b)
    ew, ex, ey, _ = tilt_quat(*p_e)
    return -bx * ey + by * ex, -by * ey - bx * ex + bw * ew


def assert_kernel_matches_composition(p_b, p_e, pyn):
    """The one-kernel deviation tilt against the composition it replaced:
    the same flag, P_NS equal up to the sign of a zero, and P_d within
    4e-15 / h, where h = |cos(|P_d| / 2)| is the w component of q_d. The
    composition's q_d carries a rounded z component, which tilts its P_d's direction by
    about that over h; the kernel takes the z component as the zero it is
    (against a 40-digit evaluation, the kernel's P_d was within 3.7e-13
    where the composition's was 8.6e-5 off, near the half turn)."""
    got = deviation_tilt(p_b, p_e, pyn)
    want = composed_deviation_tilt(p_b, p_e, pyn)
    case = (p_b, p_e, pyn)
    assert got[2] == want.converged, case
    assert_equal_up_to_zero_sign(got[3:], want[3:], case)
    h = abs(math.cos(0.5 * math.hypot(want.px, want.py)))
    assert max(abs(got[0] - want.px), abs(got[1] - want.py)) * h <= 4e-15, case


class TestDeviationKernel:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_deviation_tilt(self, seed):
        rng = random.Random(seed)
        cases = [(random_tilt(rng), random_tilt(rng), random_pyn(rng)) for _ in range(3000)]
        for _ in range(100):
            cases.extend(half_turn_pairs(rng))
        for p_b, p_e, pyn in cases:
            assert_kernel_matches_composition(p_b, p_e, pyn)

    def test_zero_tilts_of_both_signs(self):
        zeros = [(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)]
        for p_b in zeros + [(0.1, -0.2)]:
            for p_e in zeros + [(-0.03, 0.02)]:
                for pyn in (0.0, -0.0, 0.05, -0.3):
                    assert_kernel_matches_composition(p_b, p_e, pyn)

    def test_degenerate_pairs_fall_back(self):
        """A zero or subnormal body tilt against a half-turn expected tilt,
        where z1 and z2 vanish: the flag down, with P_d the
        tilt of (A * B)^*, as the composition gives it, bit for bit up to
        the sign of a zero."""
        cases = [((0.0, 0.0), (math.pi, 0.0), 0.0), ((-0.0, 0.0), (0.0, -math.pi), -0.0),
                 ((5e-324, -1e-160), (2.4331240035479555, -1.9873379140066012), 0.0),
                 ((1.5553493640173743, -2.729559077385964), (-1e-300, -1e-160), -0.0),
                 ((-0.8217107424955716, -3.0322262212369107), (5e-324, 1e-160), 1e-310)]
        for p_b, p_e, pyn in cases:
            got = deviation_tilt(p_b, p_e, pyn)
            assert not got[2]
            assert_equal_up_to_zero_sign(got, composed_deviation_tilt(p_b, p_e, pyn), p_b)

    @pytest.mark.parametrize("flip", [1.0, -1.0], ids=["z1_positive", "z1_negative"])
    def test_z2_zero_boundary(self, flip):
        """z2 == 0: the kernel takes psi_E = pi, not -pi, as the composition
        does, for either sign of z1; P_d matches the composition's."""
        for p_b, p_e in Z2_ZERO:
            p_b = (p_b[0], flip * p_b[1])
            z1, z2 = z1_z2(p_b, p_e)
            assert z2 == 0.0 and (z1 > 0.0) == (flip > 0.0)
            assert composed_deviation(p_b, p_e, 0.0)[1] == math.pi
            assert_kernel_matches_composition(p_b, p_e, 0.0)


class TestTiltPhaseFromQuat:
    def test_within_1e14_of_trig_formula(self):
        rng = random.Random(8)
        for _ in range(20000):
            q = random_quat_special(rng)
            got = tilt_phase_from_quat(q)
            want = ref_tilt_phase_from_quat(q)
            assert abs(got.px - want.px) <= 1e-14, q
            assert abs(got.py - want.py) <= 1e-14, q
            assert bits(got.pz) == bits(want.pz), q


class TestRotationCompositions:
    """The public conversions, now compositions of the kernels, against their old bodies."""

    @pytest.mark.parametrize("seed", [9, 10])
    def test_quat_from_tilt_phase_2d(self, seed):
        rng = random.Random(seed)
        for _ in range(20000):
            p = random_tilt(rng)
            assert_equal_up_to_zero_sign(quat_from_tilt_phase(p), ref_quat_from_tilt_phase(p), p)

    def test_tilt_of_quat_bytes(self):
        rng = random.Random(12)
        qs = [random_quat_special(rng) for _ in range(10000)]
        qs += [singular_quat(rng) for _ in range(2000)]
        for q in qs:
            assert bits(tilt_of_quat(q)) == bits(ref_tilt2_of_quat(q)), q

    def test_remove_fused_yaw(self):
        rng = random.Random(15)
        qs = [random_quat_special(rng) for _ in range(10000)]
        qs += [singular_quat(rng) for _ in range(2000)]
        for q in qs:
            got = remove_fused_yaw(q)
            want = ref_remove_fused_yaw(q)
            diff = max(abs(g - w) for g, w in zip(got, want))
            h = yaw_norm(q)
            if h >= 1e-12:
                assert diff <= 1e-15, q
            else:
                # The old code set w to 0 on the singular set; w is now about
                # h, whose rounding may flip the canonical sign (q ~ -q).
                flipped = max(abs(g + w) for g, w in zip(got, want))
                assert min(diff, flipped) <= h + 1e-15, q


# -- the plant's IMU emission ---------------------------------------------------


def ref_quat_conj(q):
    w, x, y, z = q
    return (w, -x, -y, -z)


def ref_quat_normalize(q):
    w, x, y, z = q
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if n <= 1e-300:
        return (1.0, 0.0, 0.0, 0.0)
    if w < 0.0:
        n = -n
    return (w / n, x / n, y / n, z / n)


def ref_quat_rotate(q, v):
    w, x, y, z = q
    vx, vy, vz = v
    tx = 2.0 * (y * vz - z * vy)
    ty = 2.0 * (z * vx - x * vz)
    tz = 2.0 * (x * vy - y * vx)
    return (
        vx + w * tx + y * tz - z * ty,
        vy + w * ty + z * tx - x * tz,
        vz + w * tz + x * ty - y * tx,
    )


def ref_emit_imu(q_prev, q_meas, dt, g):
    """The plant's six-call emission chain that `imu_of_motion` replaced, after
    its first call (`quat_from_tilt_phase`, which made q_meas)."""
    w, x, y, z = ref_quat_normalize(ref_qmul(ref_quat_conj(q_prev), q_meas))
    s = math.sqrt(x * x + y * y + z * z)
    if s < 1e-15:
        gx = gy = gz = 0.0
    else:
        k = 2.0 * math.atan2(s, w) / (s * dt)
        gx = k * x
        gy = k * y
        gz = k * z
    return (gx, gy, gz, *ref_quat_rotate(ref_quat_conj(q_meas), (0.0, 0.0, g)))


_CYCLE_DT = ControllerConfig().cycle_dt


def test_imu_outputs_keep_their_types():
    assert type(quat_normalize((2.0, 0.0, 0.0, -2.0))) is tuple
    plant = SurrogatePlant(PlantConfig())
    plant.state.px = 0.1
    sample = plant.step(IDLE, 0.0, 0.0, _CYCLE_DT)
    assert type(sample) is ImuSample
    assert sample.t == _CYCLE_DT and len(sample.gyro) == len(sample.accel) == 3


if hs is None:
    def test_imu_of_motion_is_the_six_call_chain():
        pytest.skip("needs Hypothesis (the `test` extra)")
else:
    # Zero, signed zero, subnormal (s * px rounds to a signed zero) and tilts
    # past pi, where quat_normalize flips the sign to make w >= 0
    _TILT = hs.one_of(
        hs.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-160, math.pi, 3.5, -4.0]),
        hs.floats(-10.0, 10.0),
    )
    # What the plant passes (q_meas of a tilt phase, and the identity it starts
    # from) and any 4-tuple, zero and non-unit ones included
    _QUAT = hs.one_of(
        hs.just((1.0, 0.0, 0.0, 0.0)),
        hs.builds(lambda px, py: quat_from_tilt_phase((px, py)), _TILT, _TILT),
        hs.tuples(*[hs.sampled_from([0.0, -0.0, 5e-324, -1.0]) | hs.floats(-2.0, 2.0)] * 4),
    )
    _DT = hs.one_of(hs.just(_CYCLE_DT), hs.floats(0.1 * _CYCLE_DT, 10.0 * _CYCLE_DT))

    _Q0 = quat_from_tilt_phase((0.0, 0.0))
    _Q_SUB = quat_from_tilt_phase((5e-324, -5e-324))
    _Q_WIDE = quat_from_tilt_phase((3.5, -1.0))  # alpha > pi

    @settings(max_examples=1000, deadline=None)
    @given(q_prev=_QUAT, q=_QUAT, same=hs.booleans(), dt=_DT,
           g=hs.sampled_from([9.81, 9.80665, 0.0, -0.0, -9.81]))
    @example(q_prev=(1.0, 0.0, 0.0, 0.0), q=_Q0, same=False, dt=_CYCLE_DT, g=9.81)
    @example(q_prev=_Q0, q=_Q_SUB, same=False, dt=_CYCLE_DT, g=9.81)
    @example(q_prev=_Q_SUB, q=_Q_SUB, same=True, dt=_CYCLE_DT, g=9.81)
    @example(q_prev=_Q0, q=_Q_WIDE, same=False, dt=_CYCLE_DT, g=9.81)
    @example(q_prev=_Q_WIDE, q=_Q_WIDE, same=True, dt=_CYCLE_DT, g=9.81)
    @example(q_prev=(0.0, 0.0, 0.0, 0.0), q=(-0.0, 0.0, -0.0, 0.0), same=False, dt=_CYCLE_DT,
             g=9.81)
    def test_imu_of_motion_is_the_six_call_chain(q_prev, q, same, dt, g):
        if same:
            q_prev = q
        got = imu_of_motion(q_prev, q, dt, g)
        assert [v.hex() for v in got] == [v.hex() for v in ref_emit_imu(q_prev, q, dt, g)]
