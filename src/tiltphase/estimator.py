"""Passive nonlinear complementary filter for yaw-free tilt estimation.

Estimates the body orientation from 3-axis gyro and accelerometer data and
outputs only the 2D tilt phase (px, py) of the estimate -- yaw cannot be
estimated drift-free from an IMU alone and plays no role in balance
feedback, so it is removed.

The filter integrates bias-corrected gyro rates through quaternion
kinematics and applies a proportional (and optionally integral, for bias
estimation) correction from the mismatch between the measured and predicted
gravity direction. Accelerometer corrections are gated to a norm trust
window around 1 g, so free-fall or impact spikes do not corrupt the tilt.
"""

from __future__ import annotations

from math import cos, inf, sin, sqrt
from typing import NamedTuple, Sequence, Tuple

from tiltphase.rotation import tilt_of_quat

GRAVITY = 9.81


class ImuSample(NamedTuple):
    t: float
    gyro: Tuple[float, float, float]
    accel: Tuple[float, float, float]


class AttitudeEstimator:
    """3D passive complementary filter returning the 2D tilt phase."""

    __slots__ = ("kp", "ki", "bias_limit", "acc_min", "acc_max", "q", "bias")

    def __init__(self, kp: float, ki: float, bias_limit: float, acc_min_g: float, acc_max_g: float):
        # The est_* keys of ControllerConfig, which holds their defaults
        self.kp = kp
        self.ki = ki
        self.bias_limit = bias_limit
        self.acc_min = acc_min_g * GRAVITY
        self.acc_max = acc_max_g * GRAVITY
        self.q = (1.0, 0.0, 0.0, 0.0)
        self.bias = (0.0, 0.0, 0.0)

    def step(self, gyro: Sequence[float], accel: Sequence[float], dt: float) -> Tuple[float, float]:
        """Advance by dt and return the tilt phase ``(px, py)`` of the estimate.

        Raises OverflowError, leaving the state unchanged, when the rotation
        angle |rate| * dt overflows (a huge dt can do so for any rate).
        """
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        w, x, y, z = self.q
        bias = self.bias
        bx, by, bz = bias
        gx = gyro[0] - bx
        gy = gyro[1] - by
        gz = gyro[2] - bz

        ax, ay, az = accel
        an = sqrt(ax * ax + ay * ay + az * az)
        if self.acc_min <= an <= self.acc_max:
            # Predicted up direction in body frame: R(q)^T e_z
            vx = 2.0 * (x * z - w * y)
            vy = 2.0 * (y * z + w * x)
            vz = 1.0 - 2.0 * (x * x + y * y)
            # Measured up direction from the accelerometer (specific force)
            mx = ax / an
            my = ay / an
            mz = az / an
            # Correction rotates predicted toward measured: e = v_meas x v_pred
            ex = my * vz - mz * vy
            ey = mz * vx - mx * vz
            ez = mx * vy - my * vx
            kp = self.kp
            gx += kp * ex
            gy += kp * ey
            gz += kp * ez
            if self.ki != 0.0:
                lim = self.bias_limit
                bias = (
                    min(lim, max(-lim, bx - self.ki * ex * dt)),
                    min(lim, max(-lim, by - self.ki * ey * dt)),
                    min(lim, max(-lim, bz - self.ki * ez * dt)),
                )

        # Integrate body rates: q <- q * exp(0.5 * omega * dt)
        th = sqrt(gx * gx + gy * gy + gz * gz) * dt
        if th > 1e-12:
            if th == inf:
                raise OverflowError("rotation angle |rate| * dt overflows")
            h = 0.5 * th
            s = sin(h) / (th / dt)  # sin(h) / |omega|
            dw = cos(h)
            dx = s * gx
            dy = s * gy
            dz = s * gz
            nw = w * dw - x * dx - y * dy - z * dz
            nx = w * dx + x * dw + y * dz - z * dy
            ny = w * dy - x * dz + y * dw + z * dx
            nz = w * dz + x * dy - y * dx + z * dw
            n = sqrt(nw * nw + nx * nx + ny * ny + nz * nz)
            if nw < 0.0:
                n = -n
            self.q = (nw / n, nx / n, ny / n, nz / n)
        self.bias = bias

        return tilt_of_quat(self.q)
