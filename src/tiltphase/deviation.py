"""Gait phase, expected tilt phase waveform and deviation tilt.

The deviation tilt is the error signal behind nearly all corrective
actions: the 2D tilt phase of the inverse of the unique tilt rotation
relative to the nominal ground plane N that takes the body from its
current orientation to the expected one,

    q_d = q_y(p_yN) * q_P(P_B)^* * q_z(psi_E) * q_P(P_E) * q_y(-p_yN)
    P_d = P_q(q_d^*)

with psi_E chosen so that the fused yaw of q_d is zero. Since q_d is
linear in (cos(psi_E/2), sin(psi_E/2)), the zero-yaw constraint has the
closed-form solution psi_E = 2*atan2(-z1, z2), where z1 and z2 are the
quaternion z-components of the products with q_z(psi_E) replaced by the
identity and by the unit z quaternion respectively.

The first of those products, A * B with A = q_y(p_yN) * q_P(P_B)^* and
B = q_P(P_E) * q_y(-p_yN), is also the swing ground plane's rotation: its
2D tilt phase P_NS = P_q(A * B) is the expected tilt relative to the body,
seen from the nominal ground plane (Allgeuer & Behnke, *Fused Angles*,
IROS 2015). `deviation_tilt` returns it with P_d, in one plain tuple, so
the cycle composes the tilt quaternions once.

`deviation_tilt` is one kernel over local floats, as `imu_of_motion` is for
the plant's IMU chain: `tilt_quat` of P_B and P_E and both `tilt_of_quat`
extractions are written out, without the products with the tilt
quaternions' zero z components, and q_y(p_yN) is the identity without trig
when p_yN = 0. Nor does it take psi_E/2 through an angle. With
(cz, sz) = (cos(psi_E/2), sin(psi_E/2)), q_d = cz * A * B + sz * (A * k) * B,
whose z component cz*z1 + sz*z2 vanishes exactly for
(cz, sz) = +-(z2, -z1) / |(z1, z2)|. psi_E in (-pi, pi] means cz > 0, or
cz = 0 and sz = 1 (psi_E = pi, the sign to take when z2 = 0); the sign
decides P_d on the singular set below. psi_E itself is never formed: the
tilt phase is yaw-free, and nothing reads it. One square root replaces
atan2, `wrap_pi`, cos and sin, and q_d = (w, x, y, 0) has zero fused yaw
by construction, so its tilt phase takes the z component as the zero it
is: P_q(q_d^*) = -sign(w) * alpha / |(x, y)| * (x, y) with
alpha = 2*atan2(|(x, y)|, |w|), and sign(w) = 1 on the singular set
|w| < 1e-12. This moves outputs by rounding (a few ulps away from the half
turn) against the composition, whose rounded z component tilts P_d's
direction near the half turn.
"""

from __future__ import annotations

from math import atan2, cos, sin, sqrt
from typing import NamedTuple, Tuple

from tiltphase.rotation import tilt_of_quat, wrap_pi


def gait_phase_step(mu: float, f_g: float, dt: float) -> float:
    """Advance the gait phase by f_g * dt and wrap into (-pi, pi]."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if f_g <= 0.0:
        raise ValueError("gait frequency must be positive")
    return wrap_pi(mu + f_g * dt)


class ExpectedWaveform(NamedTuple):
    """Per-axis sinusoid-with-offset model of the nominal tilt phase trajectory;
    `ControllerConfig.validate` keeps the amplitudes in [0, pi]."""

    amp_x: float = 0.0
    amp_y: float = 0.0
    phase_x: float = 0.0
    phase_y: float = 0.0
    offset_x: float = 0.0
    offset_y: float = 0.0

    def evaluate(self, mu: float) -> Tuple[float, float]:
        """Expected tilt phase ``(px, py)`` at gait phase ``mu``."""
        return (
            self.amp_x * sin(mu + self.phase_x) + self.offset_x,
            self.amp_y * sin(mu + self.phase_y) + self.offset_y,
        )


def deviation_tilt(p_b, p_e, p_yn: float) -> Tuple[float, float, bool, float, float]:
    """Deviation tilt P_d of the body tilt P_B from the expected tilt P_E, as
    ``(px, py, converged, ns_px, ns_py)``: P_d, a flag, and the ground plane
    tilt P_NS = P_q(A * B).

    Degenerate configurations where the zero-yaw constraint does not pin
    down psi_E (both sensitivity coefficients vanish, e.g. half-turn tilts)
    fall back to psi_E = 0 and report converged False instead of aborting.
    """
    # With a zero expected tilt and a level nominal ground plane the whole
    # composition collapses: q_d = q_P(P_B)^* already has zero fused yaw,
    # so the deviation is exactly the body tilt, and conjugating a pure
    # tilt rotation negates its tilt phase: P_NS = -P_B.
    bx, by = p_b
    ex, ey = p_e
    if p_yn == 0.0 and ex == 0.0 and ey == 0.0:
        return (bx, by, True, -bx, -by)

    # tilt_quat(P_B) = (bw, bx, by, 0) and tilt_quat(P_E) = (ew, ex, ey, 0)
    t = sqrt(bx * bx + by * by)
    if t < 1e-300:
        bw = 1.0
        bx = by = 0.0
    else:
        bw = cos(0.5 * t)
        t = sin(0.5 * t) / t
        bx *= t
        by *= t
    t = sqrt(ex * ex + ey * ey)
    if t < 1e-300:
        ew = 1.0
        ex = ey = 0.0
    else:
        ew = cos(0.5 * t)
        t = sin(0.5 * t) / t
        ex *= t
        ey *= t

    if p_yn == 0.0:
        # q_y(0) is the identity: A = q_P(P_B)^*, B = q_P(P_E)
        a0, a1, a2, a3 = bw, -bx, -by, 0.0
        b0, b1, b2, b3 = ew, ex, ey, 0.0
    else:
        cy = cos(0.5 * p_yn)
        sy = sin(0.5 * p_yn)
        # A = q_y(p_yN) * q_P(P_B)^*, B = q_P(P_E) * q_y(-p_yN)
        a0 = cy * bw + sy * by
        a1 = -cy * bx
        a2 = -cy * by + sy * bw
        a3 = sy * bx
        b0 = ew * cy + ey * sy
        b1 = ex * cy
        b2 = -ew * sy + ey * cy
        b3 = -ex * sy

    # z components of A * B and (A * k) * B, where A * k = (-a3, a2, -a1, a0)
    z1 = a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0
    z2 = a2 * b2 - a3 * b3 + a1 * b1 + a0 * b0

    # P_NS = P_q(A * B), as tilt_of_quat extracts it
    w = a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3
    x = a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2
    y = a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1
    s = sqrt(x * x + y * y)
    if s < 1e-300:
        nx = ny = 0.0
    else:
        h = sqrt(w * w + z1 * z1)
        t = 2.0 * atan2(s, h)
        if h < 1e-12:
            t /= s
            nx = t * x
            ny = t * y
        else:
            t /= h * s
            nx = t * (w * x + z1 * y)
            ny = t * (w * y - z1 * x)

    t = z1 * z1 + z2 * z2
    if t < 1e-28:
        px, py = tilt_of_quat((w, -x, -y, -z1))  # q_d = A * B
        return (px, py, False, nx, ny)
    # (cz, sz) = (cos(psi_E/2), sin(psi_E/2)), with cz > 0, or sz = 1 at psi_E = pi
    t = 1.0 / sqrt(t)
    if z2 < 0.0 or (z2 == 0.0 and z1 > 0.0):
        t = -t
    cz = t * z2
    sz = -t * z1

    # q_d = A * q_z(psi_E) * B, with A * q_z = cz * A + sz * (A * k)
    c0 = cz * a0 - sz * a3
    c1 = cz * a1 + sz * a2
    c2 = cz * a2 - sz * a1
    c3 = cz * a3 + sz * a0
    w = c0 * b0 - c1 * b1 - c2 * b2 - c3 * b3
    x = c0 * b1 + c1 * b0 + c2 * b3 - c3 * b2
    y = c0 * b2 - c1 * b3 + c2 * b0 + c3 * b1
    # P_d = P_q(q_d^*). With zero fused yaw q_d = (w, x, y, 0), so the
    # de-yawed direction is sign(w) * (x, y) and the conjugate negates it;
    # on the singular set |w| < 1e-12 the direction is (x, y) unsigned.
    s = sqrt(x * x + y * y)
    if s < 1e-300:
        px = py = 0.0
    else:
        t = 2.0 * atan2(s, abs(w)) / s
        if w > -1e-12:
            t = -t
        px = t * x
        py = t * y
    return (px, py, True, nx, ny)
