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
IROS 2015). `deviation_tilt` returns it, so the cycle composes the tilt
quaternions once.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from tiltphase.config import _FrozenRecord
from tiltphase.rotation import TiltPhase2D, tilt_of_quat, tilt_quat, wrap_pi

_new_tuple = tuple.__new__  # skips the NamedTuple keyword constructor


def gait_phase_step(mu: float, f_g: float, dt: float) -> float:
    """Advance the gait phase by f_g * dt and wrap into (-pi, pi]."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if f_g <= 0.0:
        raise ValueError("gait frequency must be positive")
    return wrap_pi(mu + f_g * dt)


class ExpectedWaveform(_FrozenRecord):
    """Per-axis sinusoid-with-offset model of the nominal tilt phase trajectory."""

    amp_x: float = 0.0
    amp_y: float = 0.0
    phase_x: float = 0.0
    phase_y: float = 0.0
    offset_x: float = 0.0
    offset_y: float = 0.0

    def __post_init__(self):
        if self.amp_x < 0.0 or self.amp_y < 0.0:
            raise ValueError("waveform amplitudes must be non-negative")

    def evaluate(self, mu: float) -> TiltPhase2D:
        return _new_tuple(TiltPhase2D, (
            self.amp_x * math.sin(mu + self.phase_x) + self.offset_x,
            self.amp_y * math.sin(mu + self.phase_y) + self.offset_y,
        ))


class DeviationResult(NamedTuple):
    px: float
    py: float
    psi_e: float
    converged: bool
    # P_NS, the ground plane tilt phase P_q(A * B)
    ns_px: float
    ns_py: float


def deviation_tilt(p_b, p_e, p_yn: float) -> DeviationResult:
    """Deviation tilt P_d of the body tilt P_B from the expected tilt P_E.

    Degenerate configurations where the zero-yaw constraint does not pin
    down psi_E (both sensitivity coefficients vanish, e.g. half-turn tilts)
    fall back to psi_E = 0 and report converged=False instead of aborting.
    The ground plane tilt P_NS = P_q(A * B) comes with it.
    """
    # With a zero expected tilt and a level nominal ground plane the whole
    # composition collapses: q_d = q_P(P_B)^* already has zero fused yaw,
    # so the deviation is exactly the body tilt, and conjugating a pure
    # tilt rotation negates its tilt phase: P_NS = -P_B.
    if p_yn == 0.0 and p_e[0] == 0.0 and p_e[1] == 0.0:
        return _new_tuple(DeviationResult, (p_b[0], p_b[1], 0.0, True, -p_b[0], -p_b[1]))

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
    return _new_tuple(DeviationResult, (px, py, psi_e, converged, nx, ny))
