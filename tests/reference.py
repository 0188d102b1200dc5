"""Independent oracles and shared helpers for the tests.

The package computes only what the control loop runs: the 2D tilt phase and
the plant's IMU emission. The fused yaw, the 3D tilt phase and the free
pendulum invariant below are not on that path; the tests use them to check
the kept code from a second formula. `composed_deviation_tilt` is the
deviation tilt as a composition of the rotation kernels, the oracle of the
one-kernel `deviation.deviation_tilt`; `composed_deviation` also gives the
yaw psi_E it composed with, which the kernel never forms. Definitions
follow Allgeuer & Behnke, *Fused Angles: A Representation of Body
Orientation for Balance* (IROS 2015).
`wlbf_direct_sums` is the WLBF's direct moment sums as they were written out
once per dimension, the bit-exact oracle of `WlbfFilter`'s direct path.
`decimal_ellipse_radius` is the directional radius of an ellipse to 80
digits, the oracle of `filters.ellipse_radius`.
"""

import math
import struct
from decimal import Decimal, localcontext
from typing import NamedTuple, Tuple

from tiltphase.config import ControllerConfig
from tiltphase.estimator import AttitudeEstimator
from tiltphase.rotation import (
    quat_from_tilt_phase,
    quat_normalize,
    tilt_of_quat,
    tilt_quat,
    wrap_pi,
)


class TiltPhase3D(NamedTuple):
    px: float
    py: float
    pz: float


class DeviationResult(NamedTuple):
    """The fields of `deviation.deviation_tilt`'s tuple, by name."""

    px: float
    py: float
    converged: bool
    # P_NS, the ground plane tilt phase P_q(A * B)
    ns_px: float
    ns_py: float


def axis_rotation(axis: str, angle: float) -> Tuple[float, float, float, float]:
    """Unit quaternion for a pure rotation about the x, y or z axis."""
    h = 0.5 * angle
    c = math.cos(h)
    s = math.sin(h)
    if c < 0.0:
        c, s = -c, -s
    if axis == "x":
        return (c, s, 0.0, 0.0)
    if axis == "y":
        return (c, 0.0, s, 0.0)
    if axis == "z":
        return (c, 0.0, 0.0, s)
    raise ValueError(f"unknown axis {axis!r}")


def fused_yaw(q) -> float:
    """Fused yaw of a rotation, in (-pi, pi]; 0 on the singular set |(w, z)| < 1e-12."""
    w, _, _, z = q
    if math.sqrt(w * w + z * z) < 1e-12:
        return 0.0
    return wrap_pi(2.0 * math.atan2(z, w))


def tilt_phase_from_quat(q) -> TiltPhase3D:
    """3D tilt phase (alpha*cos(gamma), alpha*sin(gamma), psi) of a unit quaternion."""
    return TiltPhase3D(*tilt_of_quat(q), fused_yaw(q))


def remove_fused_yaw(q) -> Tuple[float, float, float, float]:
    """Pure tilt rotation with the same 2D tilt phase as q (fused yaw removed)."""
    return quat_from_tilt_phase(tilt_of_quat(q))


def pendulum_invariant(phi: float, phidot: float, c: float) -> float:
    """Conserved quantity of the undisturbed tilt pendulum."""
    return (phidot * phidot) / (c * c) + 2.0 * (math.cos(phi) - 1.0)


def random_quat(rng):
    """Uniform random rotation (Shoemake via normalized Gaussian 4-vector)."""
    return quat_normalize([rng.gauss(0.0, 1.0) for _ in range(4)])


def quat_angle_dist(a, b):
    """Sign-free distance between two unit quaternions (2*asin of chord/2)."""
    dm = math.sqrt(sum((ai - bi) ** 2 for ai, bi in zip(a, b)))
    dp = math.sqrt(sum((ai + bi) ** 2 for ai, bi in zip(a, b)))
    return 2.0 * math.asin(min(1.0, 0.5 * min(dm, dp)))


def decimal_ellipse_radius(x0: float, x1: float, a0: float, a1: float) -> Decimal:
    """Radius along (x0, x1) != 0 of the ellipse with semi-axes (a0, a1),
    |x| / |(x0 / a0, x1 / a1)|, in 80-digit decimal arithmetic, whose
    exponent range holds every square of a float."""
    with localcontext() as ctx:
        ctx.prec = 80
        x0, x1, a0, a1 = map(Decimal, (x0, x1, a0, a1))
        return ((x0 * x0 + x1 * x1) / ((x0 / a0) ** 2 + (x1 / a1) ** 2)).sqrt()


def bits(value):
    """value with every float replaced by its IEEE 754 bytes, so -0.0 != 0.0."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    return value


def composed_deviation_tilt(p_b, p_e, p_yn: float) -> DeviationResult:
    """`deviation.deviation_tilt` as it was before it became one kernel: the
    same rotation composition through `tilt_quat`, `wrap_pi` and two
    `tilt_of_quat` calls, with psi_E = wrap_pi(2*atan2(-z1, z2)) and its
    cosine and sine taken afresh."""
    return composed_deviation(p_b, p_e, p_yn)[0]


def composed_deviation(p_b, p_e, p_yn: float) -> Tuple[DeviationResult, float]:
    """`composed_deviation_tilt` and the psi_E it composed q_d with, the yaw
    that zeroes q_d's fused yaw (0.0 where z1 and z2 vanish); the kernel
    never forms psi_E."""
    if p_yn == 0.0 and p_e[0] == 0.0 and p_e[1] == 0.0:
        return DeviationResult(p_b[0], p_b[1], True, -p_b[0], -p_b[1]), 0.0

    hy = 0.5 * p_yn
    cyn = math.cos(hy)
    syn = math.sin(hy)
    bw, bxq, byq, bzq = tilt_quat(p_b[0], p_b[1])
    ew, exq, eyq, ezq = tilt_quat(p_e[0], p_e[1])

    # A = q_y(p_yN) * q_P(P_B)^*: multiply (cyn, 0, syn, 0) by the conjugate
    a0 = cyn * bw + syn * byq
    a1 = -cyn * bxq - syn * bzq
    a2 = -cyn * byq + syn * bw
    a3 = -cyn * bzq + syn * bxq
    # B = q_P(P_E) * q_y(-p_yN): multiply qe by (cyn, 0, -syn, 0)
    b0 = ew * cyn + eyq * syn
    b1 = exq * cyn + ezq * syn
    b2 = -ew * syn + eyq * cyn
    b3 = -exq * syn + ezq * cyn

    # z components of A*B and (A*k)*B where k = (0, 0, 0, 1)
    z1 = a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0
    k0, k1, k2, k3 = -a3, a2, -a1, a0
    z2 = k0 * b3 + k1 * b2 - k2 * b1 + k3 * b0
    converged = True
    if z1 * z1 + z2 * z2 < 1e-28:
        psi_e = 0.0
        converged = False
    else:
        psi_e = wrap_pi(2.0 * math.atan2(-z1, z2))

    hz = 0.5 * psi_e
    cz = math.cos(hz)
    sz = math.sin(hz)
    # q_d = A * q_z(psi_E) * B, with A * q_z = cz*A + sz*(A*k)
    c0 = cz * a0 + sz * k0
    c1 = cz * a1 + sz * k1
    c2 = cz * a2 + sz * k2
    c3 = cz * a3 + sz * k3
    # P_d = P_q(q_d^*): 2D tilt phase of the conjugate
    px, py = tilt_of_quat((
        c0 * b0 - c1 * b1 - c2 * b2 - c3 * b3,
        -(c0 * b1 + c1 * b0 + c2 * b3 - c3 * b2),
        -(c0 * b2 - c1 * b3 + c2 * b0 + c3 * b1),
        -(c0 * b3 + c1 * b2 - c2 * b1 + c3 * b0),
    ))
    nx, ny = tilt_of_quat((
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        z1,
    ))
    return DeviationResult(px, py, converged, nx, ny), psi_e


def estimator(**changes) -> AttitudeEstimator:
    """An AttitudeEstimator with the est_* defaults of ControllerConfig, some changed."""
    cfg = ControllerConfig()
    args = dict(kp=cfg.est_kp, ki=cfg.est_ki, bias_limit=cfg.est_bias_limit,
                acc_min_g=cfg.est_acc_min_g, acc_max_g=cfg.est_acc_max_g)
    args.update(changes)
    return AttitudeEstimator(**args)


def wlbf_direct_sums(buf):
    """(value at the newest time, slope, mean) of a WLBF window of flat
    (t, x0) or (t, x0, x1) records, oldest first, by the direct moment sums
    as `WlbfFilter` once wrote them: one loop for 1D windows and one for 2D,
    each summing the times and the values together."""
    n = len(buf)
    t0 = buf[-1][0]
    latest = buf[-1][1:]
    dim = len(latest)
    if n < 2:
        return latest, (0.0,) * dim, latest
    sw = 0.5 * n * (n + 1)
    if dim == 1:
        w = st = stt = sx0 = stx0 = 0.0
        for tk, x0 in buf:
            w += 1.0
            tau = tk - t0
            wt = w * tau
            st += wt
            stt += wt * tau
            sx0 += w * x0
            stx0 += wt * x0
        tbar = st / sw
        cov_tt = stt - tbar * st
        if not cov_tt > 0.0:
            return latest, (0.0,), latest
        xb0 = sx0 / sw
        s0 = (stx0 - tbar * sx0) / cov_tt
        return (xb0 - s0 * tbar,), (s0,), (xb0,)
    w = st = stt = 0.0
    sx0 = sx1 = stx0 = stx1 = 0.0
    for tk, x0, x1 in buf:
        w += 1.0
        tau = tk - t0
        wt = w * tau
        st += wt
        stt += wt * tau
        sx0 += w * x0
        sx1 += w * x1
        stx0 += wt * x0
        stx1 += wt * x1
    tbar = st / sw
    cov_tt = stt - tbar * st
    if not cov_tt > 0.0:
        return latest, (0.0, 0.0), latest
    xb0 = sx0 / sw
    xb1 = sx1 / sw
    s0 = (stx0 - tbar * sx0) / cov_tt
    s1 = (stx1 - tbar * sx1) / cov_tt
    return (xb0 - s0 * tbar, xb1 - s1 * tbar), (s0, s1), (xb0, xb1)
