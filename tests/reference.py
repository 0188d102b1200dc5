"""Independent oracles and shared helpers for the tests.

The package computes only what the control loop runs: the 2D tilt phase and
the plant's IMU emission. The fused yaw, the 3D tilt phase and the free
pendulum invariant below are not on that path; the tests use them to check
the kept code from a second formula. Definitions follow Allgeuer & Behnke,
*Fused Angles: A Representation of Body Orientation for Balance* (IROS 2015).
"""

import math
import struct
from typing import NamedTuple

from tiltphase.rotation import Quat, quat_from_tilt_phase, quat_normalize, tilt_of_quat, wrap_pi


class TiltPhase3D(NamedTuple):
    px: float
    py: float
    pz: float


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
    """Fused yaw of a rotation, in (-pi, pi]; 0 on the singular set |(w, z)| < 1e-12."""
    w, _, _, z = q
    if math.sqrt(w * w + z * z) < 1e-12:
        return 0.0
    return wrap_pi(2.0 * math.atan2(z, w))


def tilt_phase_from_quat(q) -> TiltPhase3D:
    """3D tilt phase (alpha*cos(gamma), alpha*sin(gamma), psi) of a unit quaternion."""
    return TiltPhase3D(*tilt_of_quat(q), fused_yaw(q))


def remove_fused_yaw(q) -> Quat:
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


def bits(value):
    """value with every float replaced by its IEEE 754 bytes, so -0.0 != 0.0."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    return value
