"""Surrogate tilt-dynamics plant for desk-scale closed-loop testing.

A 2-DOF spherical inverted pendulum expressed directly in tilt phase
coordinates, with gait-phase-driven stepping resets, push injection,
activation-to-acceleration coupling and synthetic IMU output. This is test
plumbing standing in for a robot: only the signs and rough scales of the
couplings matter, not fidelity.

Per axis the undisturbed dynamics about the current pivot offset is
``phi_ddot = C^2 * sin(phi)``, the nonlinear pendulum premise behind the
crossing energy. With the pivot at upright (the default) an exactly upright
resting plant stays put; with the pivot at a crossing phase the trajectory
conserves the pendulum invariant, which the conservation tests exploit.

The RK4 substep loop in `SurrogatePlant.step` is inlined over local floats,
with everything that is constant over a control cycle (``c2``, the pivot
offsets ``eq_x``/``eq_y``, the eight coupling products, the external force,
``h/2`` and ``h/6``) computed once before it. Traces must stay bit-identical
to the plain per-stage RK4 that tests keep as a reference, so the operation
order is fixed: each hoisted value keeps its original expression, each
acceleration is the left-to-right chain
``c2*sin(p - eq) - foot - arm - plane - swing_out + f``, and each update is
``p + h6*(k1 + 2*k2 + 2*k3 + k4)``. Never reassociate or pre-sum terms.
The factor is written ``2.0``: the int 2 converts to exactly 2.0, so the
product is the same, and a float-by-float multiply skips the mixed-type
conversion (about 9% of a moving plant step).

Rest rule: the loop is skipped when ``px``, ``py``, ``vx``, ``vy``, ``eq_x``,
``eq_y``, the eight coupling products, ``fx`` and ``fy`` all compare
``== 0.0`` (either sign of zero) and ``c2`` is finite, and the four state
values are set to +0.0, which is what the loop yields bit for bit. ``fx``
and ``fy`` are sums that start at +0.0, so when they equal zero they are
+0.0. Every ``p - eq`` is then a signed zero, ``c2 * sin`` of it too, and
each acceleration chain ends in ``+ fx``, so every acceleration is +0.0.
Every velocity update adds ``h*(+0.0)`` and every position update adds
``h6*(+0.0 sum)``, which also turns a -0.0 state into +0.0. A finite ``c2``
is needed because ``inf * 0.0`` is nan. Walking in place before a push starts
exactly at rest, so the push battery skips over a third of its loops.

Disturbances are scanned once per cycle, in list order, so the force and
bias sums are unchanged. The IMU sample takes two rotation.py calls:
``quat_from_tilt_phase`` for the measured orientation and the fused
``imu_of_motion`` kernel for the gyro and accelerometer values, bit for bit
the six-call chain it replaced. The traced benchmark's rotation spans wrap
names on this module, so ``rotation.us_per_cycle`` now covers only
``quat_from_tilt_phase``, and the kernel counts as ``plant.step`` self time
until the benchmark gives the emission a span of its own (ROADMAP
direction 1, step 1).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional

from tiltphase.config import PlantConfig
from tiltphase.controller import ActivationSet
from tiltphase.estimator import ImuSample
from tiltphase.rotation import imu_of_motion, quat_from_tilt_phase

# Unused here, but perfbench/layers.py wraps these names on this module
# (ROTATION_NAMES) and its traced runs fail without them
from tiltphase.rotation import quat_conj, quat_mul, quat_normalize, quat_rotate  # noqa: F401

_INF = math.inf
_new_tuple = tuple.__new__  # skips the NamedTuple keyword constructor


@dataclass
class Disturbance:
    """External disturbance acting on the plant.

    kind: 'impulse' (one-shot velocity jump at start_time), 'force'
    (constant tilt acceleration over [start_time, start_time + duration]),
    or 'bias' (software orientation offset added to the emitted IMU data
    over the window; the true state is untouched).
    """

    kind: str
    direction: float = 0.0  # rad in the (px, py) plane; 0 = +x (lateral)
    magnitude: float = 0.0
    start_time: float = 0.0
    duration: float = 0.0

    def __post_init__(self):
        if self.kind not in ("impulse", "force", "bias"):
            raise ValueError(f"unknown disturbance kind {self.kind!r}")
        for name in ("direction", "magnitude", "start_time", "duration"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"disturbance {name} must be finite, got {value}")
        if self.magnitude < 0.0:
            raise ValueError("disturbance magnitude must be >= 0")
        if self.duration < 0.0:
            raise ValueError("disturbance duration must be >= 0")


@dataclass
class PlantState:
    px: float = 0.0
    py: float = 0.0
    vx: float = 0.0
    vy: float = 0.0
    support: str = "R"
    pivot_x: float = 0.0
    pivot_y: float = 0.0
    odometry: float = 0.0
    fallen: bool = False


class SurrogatePlant:
    def __init__(self, cfg: PlantConfig, seed: int = 0):
        cfg.validate()
        self.cfg = cfg
        self.state = PlantState(
            pivot_x=cfg.pivot_x_right, pivot_y=cfg.pivot_y
        )
        self.rng = random.Random(seed)
        self._mu_prev: Optional[float] = None
        self._q_meas_prev = (1.0, 0.0, 0.0, 0.0)
        self._applied_impulses: set = set()

    # -- disturbance and stepping hooks --------------------------------------

    def apply_push(self, direction: float, impulse: float) -> None:
        """Instantaneous velocity jump of impulse/impulse_scale along direction."""
        if impulse < 0.0:
            raise ValueError("impulse must be >= 0")
        if self.state.fallen:
            return
        dv = impulse / self.cfg.impulse_scale
        self.state.vx += dv * math.cos(direction)
        self.state.vy += dv * math.sin(direction)

    def _foot_strike(self, new_support: str) -> None:
        st = self.state
        st.support = new_support
        st.pivot_x = (
            self.cfg.pivot_x_left if new_support == "L" else self.cfg.pivot_x_right
        )
        # Foot placement pulls the body back over the new pivot, but a single
        # step can only correct so much tilt; the rest of the offset stays
        dx = st.px - st.pivot_x
        dy = st.py - st.pivot_y
        m = math.hypot(dx, dy)
        correction = min((1.0 - self.cfg.strike_reset) * m, self.cfg.strike_capture)
        if m > 0.0:
            scale = (m - correction) / m
            st.px = st.pivot_x + scale * dx
            st.py = st.pivot_y + scale * dy
        st.vx *= self.cfg.strike_restitution
        st.vy *= self.cfg.strike_restitution

    def _handle_gait_events(self, mu: float) -> None:
        prev = self._mu_prev
        self._mu_prev = mu
        if prev is None:
            return
        # mu crossing 0 upward -> right support; wrap past pi -> left support
        if prev < 0.0 <= mu and mu - prev < math.pi:
            self._foot_strike("R")
        elif mu < prev and prev - mu > math.pi:  # wrapped from +pi to -pi side
            self._foot_strike("L")

    # -- dynamics -------------------------------------------------------------

    def step(
        self,
        act: ActivationSet,
        mu: float,
        disturbances: List[Disturbance],
        t: float,
        dt: float,
    ) -> ImuSample:
        """Advance the plant by dt (internal RK4 substeps) and emit an IMU sample."""
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        st = self.state
        t_end = t + dt
        alive = not st.fallen
        if alive:
            self._handle_gait_events(mu)

        # One pass over the disturbances, in list order: one-shot impulses
        # whose start time falls inside this step, the force active at t and
        # the IMU bias active at t_end
        fx = 0.0
        fy = 0.0
        bias_x = 0.0
        bias_y = 0.0
        for i, d in enumerate(disturbances):
            kind = d.kind
            if kind == "impulse":
                if alive and i not in self._applied_impulses and t <= d.start_time < t_end:
                    self._applied_impulses.add(i)
                    self.apply_push(d.direction, d.magnitude)
            elif kind == "force":
                if alive and d.start_time <= t < d.start_time + d.duration:
                    fx += d.magnitude * math.cos(d.direction)
                    fy += d.magnitude * math.sin(d.direction)
            elif kind == "bias" and d.start_time <= t_end < d.start_time + d.duration:
                bias_x += d.magnitude * math.cos(d.direction)
                bias_y += d.magnitude * math.sin(d.direction)

        if alive:
            cfg = self.cfg
            n_sub = max(1, math.ceil(dt / cfg.substep_dt))
            h = dt / n_sub
            hh = 0.5 * h
            h6 = h / 6.0
            c = cfg.pendulum_c * act.max_hip_height  # lower hips -> slower dynamics
            c2 = c * c
            # The equilibrium of sin(p - eq) is unstable, so shifting it toward
            # positive p accelerates the body the other way: positive activation
            # therefore raises eq to oppose positive deviation.
            eq_x = (
                st.pivot_x
                + cfg.couple_cft * act.continuous_foot_tilt[0]
                + cfg.couple_hip * act.hip_shift[0]
            )
            eq_y = (
                st.pivot_y
                + cfg.couple_cft * act.continuous_foot_tilt[1]
                + cfg.couple_hip * act.hip_shift[1]
                + cfg.couple_lean * act.lean_tilt[1]
            )
            foot_x = cfg.couple_foot * act.support_foot_tilt[0]
            foot_y = cfg.couple_foot * act.support_foot_tilt[1]
            arm_x = cfg.couple_arm * act.arm_tilt[0]
            arm_y = cfg.couple_arm * act.arm_tilt[1]
            plane_x = cfg.couple_plane * act.swing_ground_plane[0]
            plane_y = cfg.couple_plane * act.swing_ground_plane[1]
            so_x = cfg.couple_swing_out * act.swing_out_tilt[0]
            so_y = cfg.couple_swing_out * act.swing_out_tilt[1]

            px, py, vx, vy = st.px, st.py, st.vx, st.vy
            if (
                px == 0.0 and py == 0.0 and vx == 0.0 and vy == 0.0
                and eq_x == 0.0 and eq_y == 0.0
                and foot_x == 0.0 and foot_y == 0.0 and arm_x == 0.0 and arm_y == 0.0
                and plane_x == 0.0 and plane_y == 0.0 and so_x == 0.0 and so_y == 0.0
                and fx == 0.0 and fy == 0.0 and c2 < _INF
            ):
                # Exactly at rest: the substep loop would yield +0.0 for all
                # four (module docstring)
                px = py = vx = vy = 0.0
            else:
                # Classic RK4 on (p, v) with p' = v, v' = a(p); see the module
                # docstring for why every expression keeps its exact form.
                sin = math.sin
                for _ in range(n_sub):
                    ax1 = c2 * sin(px - eq_x) - foot_x - arm_x - plane_x - so_x + fx
                    ay1 = c2 * sin(py - eq_y) - foot_y - arm_y - plane_y - so_y + fy
                    px2 = px + hh * vx
                    py2 = py + hh * vy
                    vx2 = vx + hh * ax1
                    vy2 = vy + hh * ay1
                    ax2 = c2 * sin(px2 - eq_x) - foot_x - arm_x - plane_x - so_x + fx
                    ay2 = c2 * sin(py2 - eq_y) - foot_y - arm_y - plane_y - so_y + fy
                    px3 = px + hh * vx2
                    py3 = py + hh * vy2
                    vx3 = vx + hh * ax2
                    vy3 = vy + hh * ay2
                    ax3 = c2 * sin(px3 - eq_x) - foot_x - arm_x - plane_x - so_x + fx
                    ay3 = c2 * sin(py3 - eq_y) - foot_y - arm_y - plane_y - so_y + fy
                    px4 = px + h * vx3
                    py4 = py + h * vy3
                    vx4 = vx + h * ax3
                    vy4 = vy + h * ay3
                    ax4 = c2 * sin(px4 - eq_x) - foot_x - arm_x - plane_x - so_x + fx
                    ay4 = c2 * sin(py4 - eq_y) - foot_y - arm_y - plane_y - so_y + fy
                    px = px + h6 * (vx + 2.0 * vx2 + 2.0 * vx3 + vx4)
                    py = py + h6 * (vy + 2.0 * vy2 + 2.0 * vy3 + vy4)
                    vx = vx + h6 * (ax1 + 2.0 * ax2 + 2.0 * ax3 + ax4)
                    vy = vy + h6 * (ay1 + 2.0 * ay2 + 2.0 * ay3 + ay4)
            st.px, st.py, st.vx, st.vy = px, py, vx, vy
            st.odometry += abs(act.gait_frequency) * dt

            if math.hypot(st.px, st.py) > self.cfg.fall_angle:
                st.fallen = True
                st.vx = 0.0
                st.vy = 0.0

        return self._emit_imu(bias_x, bias_y, t_end, dt)

    def _emit_imu(self, bias_x, bias_y, t_now, dt) -> ImuSample:
        """IMU sample of the measured orientation, biased by (bias_x, bias_y)."""
        cfg = self.cfg
        st = self.state
        q_meas = quat_from_tilt_phase((st.px + bias_x, st.py + bias_y))
        # Exact body rates of the measured orientation over this step
        gx, gy, gz, ax, ay, az = imu_of_motion(self._q_meas_prev, q_meas, dt, cfg.gravity)
        self._q_meas_prev = q_meas
        # The draw order is part of the seeded output: three gyro, then three
        # accelerometer
        gauss = self.rng.gauss
        if cfg.noise_gyro > 0.0:
            gx += gauss(0.0, cfg.noise_gyro)
            gy += gauss(0.0, cfg.noise_gyro)
            gz += gauss(0.0, cfg.noise_gyro)
        if cfg.noise_accel > 0.0:
            ax += gauss(0.0, cfg.noise_accel)
            ay += gauss(0.0, cfg.noise_accel)
            az += gauss(0.0, cfg.noise_accel)
        return _new_tuple(ImuSample, (t_now, (gx, gy, gz), (ax, ay, az)))
