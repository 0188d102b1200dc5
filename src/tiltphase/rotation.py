"""Quaternion and tilt phase space rotation math.

Conventions
-----------
Quaternions are scalar-first tuples ``(w, x, y, z)`` mapping body frame to
world frame. ``quat_normalize``, ``axis_rotation`` and ``quat_from_tilt_phase``
return unit quaternions in canonical form (``w >= 0``); ``quat_mul``,
``quat_conj`` and ``tilt_quat`` neither renormalise nor canonicalise.

A rotation decomposes as ``q = q_z(psi) * q_tilt`` where ``psi`` is the
fused yaw and ``q_tilt`` is a pure tilt rotation, i.e. a rotation about an
axis in the horizontal xy-plane (zero fused yaw). Writing the tilt axis
angle as ``gamma`` (``gamma = 0`` is a pure x-axis tilt) and the tilt angle
as ``alpha``, the tilt phase coordinates are::

    px = alpha * cos(gamma)      (lateral)
    py = alpha * sin(gamma)      (sagittal)
    pz = psi                     (fused yaw)

Tilt rotations form a vector space under componentwise addition of
``(px, py)``, which is what makes scaling and combining tilt feedback terms
well defined.

Singularity: the fused yaw is undefined at ``alpha = pi``. A quaternion
with ``|(w, z)| < 1e-12`` is on that singular set: its fused yaw is 0 and
its tilt axis ``gamma`` comes from the vector part ``(x, y)``.

``tilt_quat``, ``tilt_of_quat`` and ``fused_yaw`` are the package's only
tilt and yaw formulas. The other conversions are compositions of them::

    quat_from_tilt_phase(p) = quat_normalize(q_z(pz) * tilt_quat(px, py))
    tilt_phase_from_quat(q) = (*tilt_of_quat(q), fused_yaw(q))
    remove_fused_yaw(q)     = quat_from_tilt_phase(tilt_of_quat(q))
    imu_of_motion(q0, q, dt, g)
        = (body rate of quat_normalize(quat_conj(q0) * q) over dt,
           quat_rotate(quat_conj(q), (0, 0, g)))

and ``tilt_angles_from_quat`` and ``fused_angles_from_quat`` are read off
``tilt_phase_from_quat``. ``imu_of_motion`` is the plant's IMU emission in
one call of plain floats, bit for bit the chain of five calls it fuses.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Tuple

TWO_PI = 2.0 * math.pi

IDENTITY = (1.0, 0.0, 0.0, 0.0)


class Quat(NamedTuple):
    w: float
    x: float
    y: float
    z: float


class TiltPhase2D(NamedTuple):
    px: float
    py: float


_new_tuple = tuple.__new__  # skips the NamedTuple keyword constructor
_ZERO_TILT = TiltPhase2D(0.0, 0.0)


class TiltPhase3D(NamedTuple):
    px: float
    py: float
    pz: float


class TiltAngles(NamedTuple):
    psi: float
    gamma: float
    alpha: float


class FusedAngles(NamedTuple):
    psi: float
    theta: float
    phi: float
    hemisphere: int


def wrap_pi(angle: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    return math.pi - (math.pi - angle) % TWO_PI


def quat_normalize(q) -> Quat:
    """Renormalize and put into canonical form (w >= 0)."""
    w, x, y, z = q
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if n <= 1e-300:
        return Quat(1.0, 0.0, 0.0, 0.0)
    if w < 0.0:
        n = -n
    return _new_tuple(Quat, (w / n, x / n, y / n, z / n))


def quat_mul(a, b) -> Tuple[float, float, float, float]:
    """Hamilton product a * b, as a plain 4-tuple (cheaper to build than a Quat)."""
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def quat_conj(q) -> Quat:
    w, x, y, z = q
    return Quat(w, -x, -y, -z)


def quat_rotate(q, v):
    """Rotate a 3-vector by q (body -> world for a body-to-world q)."""
    w, x, y, z = q
    vx, vy, vz = v
    # t = 2 * (q_vec x v)
    tx = 2.0 * (y * vz - z * vy)
    ty = 2.0 * (z * vx - x * vz)
    tz = 2.0 * (x * vy - y * vx)
    return (
        vx + w * tx + y * tz - z * ty,
        vy + w * ty + z * tx - x * tz,
        vz + w * tz + x * ty - y * tx,
    )


def imu_of_motion(q_prev, q, dt: float, g: float) -> Tuple[float, float, float, float, float, float]:
    """Gyro and accelerometer reading ``(gx, gy, gz, ax, ay, az)`` of a body
    that turned from ``q_prev`` to ``q`` over ``dt``, under gravity ``g``.

    The gyro is the constant body rate that takes ``q_prev`` to ``q``: with
    ``dq = quat_normalize(quat_mul(quat_conj(q_prev), q))`` and ``s`` the norm
    of its vector part, it is ``2*atan2(s, dq.w) / (s*dt)`` times that vector
    part, and 0 when ``s < 1e-15``. The accelerometer is
    ``quat_rotate(quat_conj(q), (0, 0, g))``. Every operation of those calls
    is kept, in their order (the products with the zero components of
    ``(0, 0, g)`` included), so each output is bit for bit the chain's.
    """
    w1, x1, y1, z1 = q_prev
    x1 = -x1
    y1 = -y1
    z1 = -z1
    w2, x2, y2, z2 = q
    # quat_mul(quat_conj(q_prev), q)
    w = w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2
    x = w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2
    y = w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2
    z = w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2
    # quat_normalize
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if n <= 1e-300:
        w, x, y, z = IDENTITY
    else:
        if w < 0.0:
            n = -n
        w = w / n
        x = x / n
        y = y / n
        z = z / n
    s = math.sqrt(x * x + y * y + z * z)
    if s < 1e-15:
        gx = gy = gz = 0.0
    else:
        k = 2.0 * math.atan2(s, w) / (s * dt)
        gx = k * x
        gy = k * y
        gz = k * z
    # quat_rotate(quat_conj(q), (0.0, 0.0, g))
    x = -x2
    y = -y2
    z = -z2
    tx = 2.0 * (y * g - z * 0.0)
    ty = 2.0 * (z * 0.0 - x * g)
    tz = 2.0 * (x * 0.0 - y * 0.0)
    return (
        gx,
        gy,
        gz,
        0.0 + w2 * tx + y * tz - z * ty,
        0.0 + w2 * ty + z * tx - x * tz,
        g + w2 * tz + x * ty - y * tx,
    )


def axis_rotation(axis: str, angle: float) -> Quat:
    """Unit quaternion for a pure rotation about the x, y or z axis."""
    h = 0.5 * angle
    c = math.cos(h)
    s = math.sin(h)
    if c < 0.0:
        c, s = -c, -s
    if axis == "x":
        return Quat(c, s, 0.0, 0.0)
    if axis == "y":
        return Quat(c, 0.0, s, 0.0)
    if axis == "z":
        return Quat(c, 0.0, 0.0, s)
    raise ValueError(f"unknown axis {axis!r}")


def fused_yaw(q) -> float:
    """Fused yaw of a rotation, in (-pi, pi]; 0 on the singular set."""
    w, _, _, z = q
    if math.sqrt(w * w + z * z) < 1e-12:
        return 0.0
    return wrap_pi(2.0 * math.atan2(z, w))


def tilt_quat(px: float, py: float) -> Tuple[float, float, float, float]:
    """Pure tilt quaternion of the 2D tilt phase (px, py), as a plain 4-tuple.

    Neither renormalised nor canonicalised (w < 0 for alpha > pi).
    """
    alpha = math.sqrt(px * px + py * py)
    if alpha < 1e-300:
        return IDENTITY
    s = math.sin(0.5 * alpha) / alpha
    return (math.cos(0.5 * alpha), s * px, s * py, 0.0)


def tilt_of_quat(q) -> TiltPhase2D:
    """2D tilt phase (alpha*cos(gamma), alpha*sin(gamma)) of a quaternion.

    No trig for gamma: the de-yawed direction (wx + zy, wy - zx) has norm
    h*s, where h = |(w, z)| and s = |(x, y)|. On the singular set the
    direction is (x, y).
    """
    w, x, y, z = q
    s = math.sqrt(x * x + y * y)
    if s < 1e-300:
        return _ZERO_TILT
    h = math.sqrt(w * w + z * z)
    alpha = 2.0 * math.atan2(s, h)
    if h < 1e-12:
        k = alpha / s
        return _new_tuple(TiltPhase2D, (k * x, k * y))
    k = alpha / (h * s)
    return _new_tuple(TiltPhase2D, (k * (w * x + z * y), k * (w * y - z * x)))


def quat_from_tilt_phase(p) -> Quat:
    """Quaternion q_z(pz) * q_tilt(px, py) of a 2-tuple (pure tilt) or 3-tuple tilt phase."""
    q = tilt_quat(p[0], p[1])
    if len(p) == 3:
        q = quat_mul(axis_rotation("z", p[2]), q)
    return quat_normalize(q)


def tilt_phase_from_quat(q) -> TiltPhase3D:
    """3D tilt phase (alpha*cos(gamma), alpha*sin(gamma), psi) of a unit quaternion."""
    return TiltPhase3D(*tilt_of_quat(q), fused_yaw(q))


def remove_fused_yaw(q) -> Quat:
    """Pure tilt rotation with the same 2D tilt phase as q (fused yaw removed)."""
    return quat_from_tilt_phase(tilt_of_quat(q))


def tilt_angles_from_quat(q) -> TiltAngles:
    """Tilt angles (psi, gamma, alpha) of a unit quaternion."""
    px, py, psi = tilt_phase_from_quat(q)
    alpha = math.sqrt(px * px + py * py)
    gamma = math.atan2(py, px) if alpha > 0.0 else 0.0
    return TiltAngles(psi, gamma, alpha)


def fused_angles_from_quat(q) -> FusedAngles:
    """Fused angles (psi, theta, phi, hemisphere) of a unit quaternion."""
    psi, gamma, alpha = tilt_angles_from_quat(q)
    sa = math.sin(alpha)
    phi = math.asin(max(-1.0, min(1.0, sa * math.cos(gamma))))
    theta = math.asin(max(-1.0, min(1.0, sa * math.sin(gamma))))
    hemi = 1 if math.cos(alpha) >= 0.0 else -1
    return FusedAngles(psi, theta, phi, hemi)
