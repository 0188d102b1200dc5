"""Quaternion and 2D tilt phase math of the control loop.

Quaternions are scalar-first tuples ``(w, x, y, z)`` mapping body frame to
world frame. ``quat_normalize`` and ``quat_from_tilt_phase`` return unit
quaternions in canonical form (``w >= 0``); ``quat_mul``, ``quat_conj`` and
``tilt_quat`` neither renormalise nor canonicalise.

A rotation decomposes as ``q = q_z(psi) * q_tilt``: ``psi`` is the fused
yaw and ``q_tilt`` a rotation by ``alpha`` about the horizontal axis at
angle ``gamma`` from x. The controller reads only the yaw-independent 2D
tilt phase ``(px, py) = (alpha*cos(gamma), alpha*sin(gamma))`` (lateral,
sagittal). Tilt rotations form a vector space under componentwise addition
of ``(px, py)``, which makes scaling and combining tilt feedback terms well
defined. On the singular set ``|(w, z)| < 1e-12`` (``alpha`` at pi) the
fused yaw is undefined and ``gamma`` comes from the vector part ``(x, y)``.
Fused yaw, the 3D tilt phase, tilt angles and fused angles are defined in
Allgeuer & Behnke, *Fused Angles: A Representation of Body Orientation for
Balance* (IROS 2015).

The loop runs:

- ``tilt_quat`` and ``tilt_of_quat``, the tilt formulas (estimator, plant
  orientation), and ``wrap_pi``. ``deviation.deviation_tilt``, which also
  yields the swing ground plane's tilt, inlines them, as ``imu_of_motion``
  does for the IMU chain;
- ``quat_from_tilt_phase(p) = quat_normalize(tilt_quat(px, py))``, the
  plant's measured orientation;
- ``imu_of_motion(q0, q, dt, g)``, the plant's IMU emission in one call,
  bit for bit the chain ``(body rate of quat_normalize(quat_conj(q0) * q)
  over dt, quat_rotate(quat_conj(q), (0, 0, g)))``. The plant imports that
  chain's functions for the traced benchmark's spans.
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
    """Unit pure tilt quaternion of a 2D tilt phase ``(px, py)``, canonical."""
    px, py = p
    return quat_normalize(tilt_quat(px, py))
