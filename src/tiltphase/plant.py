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

Each control cycle is integrated in ``ceil(dt / substep_dt)`` equal steps
of length h. The per-axis dynamics ``p'' = f(p)``, with
``f(p) = c2*sin(p - eq) + u``, is a special second-order ODE (no ``p'``
on the right), so it takes the 4-stage, fifth-order Runge-Kutta-Nystrom
step with nodes 0, 1/5, 2/3, 1 (Hairer, Norsett & Wanner, *Solving
Ordinary Differential Equations I*, section II.14): with ``k_i = f(p_i)``
and ``p_1 = p``,

    p_2 = p + (h/5) v + (h^2/50) k_1
    p_3 = p + (2h/3) v + (h^2/27) (7 k_2 - k_1)
    p_4 = p + h v + (3h^2/10 k_1 - 2h^2/35 k_2 + 9h^2/35 k_3)
    p'  = p + h v + (h^2/24 k_1 + 25h^2/84 k_2 + 9h^2/56 k_3)
    v'  = v + (h/24 k_1 + 125h/336 k_2 + 27h/56 k_3 + 5h/48 k_4)

which are the weights h^2 (14, 100, 54, 0) / 336 and h (14, 125, 162,
35) / 336 reduced. That is 4 ``sin`` per axis and step where classic RK4
on the first-order system reaches fourth order with the same 4. The
default ``substep_dt`` of 10 ms gives one step per 10 ms cycle. Against a
0.1 ms run, the largest difference over every traced column of the golden
closed loops is

    step   10 ms     5 ms      1 ms
    diff   3.2e-12   8.7e-14   2.1e-14

(rounding is most of the 1 ms figure), and halving h over one 0.1 s cycle
divides the error against a 1e-5 s run by 31 (fifth order gives 32).
Against the two 5 ms RK4 substeps that it replaced (2.2e-10 there), no
push trial changes its fall result.

The step loop in `SurrogatePlant.advance` is inlined over local floats, with
everything that is constant over a control cycle (``c2``, the pivot
offsets ``eq_x``/``eq_y`` and one forcing term per axis) computed once
before it. The forcing term is the left-to-right chain
``u = -foot - arm - plane - swing_out + f`` of the coupling products and
the external force, and each acceleration is ``c2*sin(p_i - eq) + u``.
The h-dependent coefficient products are the tuple `_nystrom_constants`
returns, taken again only when h changes, as `LowPassFilter` keeps its
coefficient. Each ``p_i`` and update associates as written above, with
the products first: ``p_2`` is ``(p + h5*v) + a2*k1`` and ``p'`` is
``(p + h*v) + (bp1*k1 + bp2*k2 + bp3*k3)``. The plain per-stage step that
tests keep as a reference associates the same way, bit for bit; another
order moves traces and so belongs in a declared trace epoch.

A plant exactly at rest runs the same loop. With a zero state (either
sign of zero), zero pivot offsets, a zero forcing term (+0.0, as it ends
in ``+ f``, a sum from +0.0) and finite ``c2``, every stage's
acceleration is +0.0, and so are the four state values it returns.

A run gives its disturbances once, to `SurrogatePlant.set_disturbances`,
which builds the run's `DisturbanceSchedule`; the schedule reads them only
at its events, so a step between them costs the same whatever their
number. `SurrogatePlant.step` is `advance`, the dynamics,
then the IMU sample, which takes two rotation.py calls:
``quat_from_tilt_phase`` for the measured orientation and the fused
``imu_of_motion`` kernel for the gyro and accelerometer values. A loop
that reads no IMU, such as the controller-off closed loop, calls
`advance` alone; the rng is read only by the sample's noise.
"""

from __future__ import annotations

import math
import random
from typing import Optional

from tiltphase.config import PlantConfig, _Record
from tiltphase.controller import ActivationSet
from tiltphase.estimator import ImuSample
from tiltphase.rotation import imu_of_motion, quat_from_tilt_phase

# Unused here; the traced benchmark wraps these names on this module
from tiltphase.rotation import quat_conj, quat_mul, quat_normalize, quat_rotate  # noqa: F401

_INF = math.inf
_new_tuple = tuple.__new__  # skips the NamedTuple keyword constructor


KINDS = ("impulse", "force", "bias")
# Largest disturbance magnitude, as the plant's coupling limit: an impulse of
# 1000 over the smallest impulse_scale, a force of 1000 rad/s^2 or a bias of
# 1000 rad keeps every emitted IMU value and trace column finite
MAX_MAGNITUDE = 1e3


def disturbance_error(kind, direction, magnitude, start_time, duration):
    """(field name, reason) for the first invalid field of a disturbance, or None."""
    if kind not in KINDS:
        return "kind", f"must be one of {', '.join(KINDS)}, got {kind!r}"
    for name, value in (("direction", direction), ("magnitude", magnitude),
                        ("start_time", start_time), ("duration", duration)):
        if not math.isfinite(value):
            return name, f"must be finite, got {value}"
    if not 0.0 <= magnitude <= MAX_MAGNITUDE:
        return "magnitude", f"must lie in [0, {MAX_MAGNITUDE:g}], got {magnitude}"
    if duration < 0.0:
        return "duration", f"must be >= 0, got {duration}"
    return None


class Disturbance(_Record):
    """External disturbance acting on the plant.

    kind: 'impulse' (one-shot velocity jump at start_time), 'force'
    (constant tilt acceleration over [start_time, start_time + duration]),
    or 'bias' (software orientation offset added to the emitted IMU data
    over the window; the true state is untouched). A plant reads its
    disturbances through their schedule (`DisturbanceSchedule`).
    """

    kind: str
    direction: float = 0.0  # rad in the (px, py) plane; 0 = +x (lateral)
    magnitude: float = 0.0
    start_time: float = 0.0
    duration: float = 0.0

    def __post_init__(self):
        error = disturbance_error(self.kind, self.direction, self.magnitude,
                                  self.start_time, self.duration)
        if error:
            raise ValueError("disturbance {} {}".format(*error))


class DisturbanceSchedule:
    """A run's disturbances as the plant consumes them, step by step.

    An impulse is due in the one step with t <= start_time < t_end; the
    impulses due in one step are applied in list order, and one whose start
    falls before the first step that sees it never acts. Force windows are
    summed at a step's t and bias windows at its t_end, each window acting
    at tau when start_time <= tau < start_time + duration. `advance` scans
    the list once and sets `next_event`, the earliest start or end after t;
    a step whose t_end is below it only reads `force` and `bias`. The first
    step scans, as `next_event` starts at -inf.

    Step times must not decrease, and one step's t_end may pass the next
    step's t by an ulp: `done`, the last t_end scanned, keeps an impulse in
    that overlap from acting twice. The disturbances must not change while
    it is in use.
    """

    __slots__ = ("members", "force", "bias", "next_event", "done")

    def __init__(self, disturbances):
        self.members = tuple(disturbances)
        self.force = self.bias = (0.0, 0.0)
        self.next_event = -_INF
        self.done = -_INF

    def advance(self, t: float, t_end: float) -> list:
        """Take the force sum at t and the bias sum at t_end; the impulses
        due in [t, t_end), in list order."""
        done = self.done
        due = []
        fx = fy = bx = by = 0.0
        next_event = _INF
        for d in self.members:
            start = d.start_time
            if t < start < next_event:
                next_event = start
            if d.kind == "impulse":
                if t <= start < t_end and start >= done:
                    due.append(d)
                continue
            end = start + d.duration
            if t < end < next_event:
                next_event = end
            if d.kind == "force":
                if start <= t < end:
                    fx += d.magnitude * math.cos(d.direction)
                    fy += d.magnitude * math.sin(d.direction)
            elif start <= t_end < end:
                bx += d.magnitude * math.cos(d.direction)
                by += d.magnitude * math.sin(d.direction)
        self.force = (fx, fy)
        self.bias = (bx, by)
        self.next_event = next_event
        self.done = t_end
        return due


def _nystrom_constants(h: float) -> tuple:
    """(h, then the step's 14 coefficient products) for step length h, in
    the order `SurrogatePlant.advance` unpacks them."""
    hh = h * h
    return (
        h, h / 5.0, 2.0 * h / 3.0, hh / 50.0, hh / 27.0,
        3.0 * hh / 10.0, 2.0 * hh / 35.0, 9.0 * hh / 35.0,
        hh / 24.0, 25.0 * hh / 84.0, 9.0 * hh / 56.0,
        h / 24.0, 125.0 * h / 336.0, 27.0 * h / 56.0, 5.0 * h / 48.0,
    )


class PlantState(_Record):
    """Tilt phase, its rate, the support foot's lateral pivot (`cfg.pivot_y`
    is the sagittal one), and the fall flag."""

    px: float = 0.0
    py: float = 0.0
    vx: float = 0.0
    vy: float = 0.0
    pivot_x: float = 0.0
    fallen: bool = False


class SurrogatePlant:
    __slots__ = ("cfg", "state", "rng", "_mu_prev", "_q_meas_prev", "_schedule", "_nystrom")

    def __init__(self, cfg: PlantConfig, seed: int = 0):
        cfg.validate()
        self.cfg = cfg
        self.state = PlantState(pivot_x=cfg.pivot_x_right)
        self.rng = random.Random(seed)
        self._mu_prev: Optional[float] = None
        self._q_meas_prev = (1.0, 0.0, 0.0, 0.0)
        self._schedule = DisturbanceSchedule(())
        # The step constants of the last step length h, taken again only
        # when h changes (`_nystrom_constants`)
        self._nystrom = (None,)

    # -- disturbance and stepping hooks --------------------------------------

    def _foot_strike(self, pivot_x: float) -> None:
        """Move the support to the foot whose lateral pivot is pivot_x."""
        cfg = self.cfg
        st = self.state
        st.pivot_x = pivot_x
        # Foot placement pulls the body back over the new pivot, but a single
        # step can only correct so much tilt; the rest of the offset stays
        dx = st.px - pivot_x
        dy = st.py - cfg.pivot_y
        m = math.hypot(dx, dy)
        correction = min((1.0 - cfg.strike_reset) * m, cfg.strike_capture)
        if m > 0.0:
            scale = (m - correction) / m
            st.px = pivot_x + scale * dx
            st.py = cfg.pivot_y + scale * dy
        st.vx *= cfg.strike_restitution
        st.vy *= cfg.strike_restitution

    def _handle_gait_events(self, mu: float) -> None:
        prev = self._mu_prev
        self._mu_prev = mu
        if prev is None:
            return
        # mu crossing 0 upward -> right support; wrap past pi -> left support
        if prev < 0.0 <= mu and mu - prev < math.pi:
            self._foot_strike(self.cfg.pivot_x_right)
        elif mu < prev and prev - mu > math.pi:  # wrapped from +pi to -pi side
            self._foot_strike(self.cfg.pivot_x_left)

    def set_disturbances(self, disturbances) -> None:
        """Take a run's disturbances, as a new schedule; a new plant has none."""
        self._schedule = DisturbanceSchedule(disturbances)

    # -- dynamics -------------------------------------------------------------

    def step(self, act: ActivationSet, mu: float, t: float, dt: float) -> ImuSample:
        """Advance the plant by dt and emit the IMU sample at t + dt."""
        self.advance(act, mu, t, dt)
        return self._emit_imu(t + dt, dt)

    def advance(self, act: ActivationSet, mu: float, t: float, dt: float) -> None:
        """Advance the plant by dt (internal Nystrom steps), with no IMU sample.

        Between two `set_disturbances` calls t must not decrease; see
        `DisturbanceSchedule`.
        """
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        st = self.state
        t_end = t + dt
        alive = not st.fallen
        if alive:
            self._handle_gait_events(mu)

        cfg = self.cfg
        sched = self._schedule
        if sched.next_event <= t_end:
            for d in sched.advance(t, t_end):
                if alive:  # a fallen plant ignores impulses
                    dv = d.magnitude / cfg.impulse_scale
                    st.vx += dv * math.cos(d.direction)
                    st.vy += dv * math.sin(d.direction)
        fx, fy = sched.force

        if alive:
            n_sub = max(1, math.ceil(dt / cfg.substep_dt))
            h = dt / n_sub
            k = self._nystrom
            if k[0] != h:
                k = self._nystrom = _nystrom_constants(h)
            _, h5, h23, a2, a3, a41, a42, a43, bp1, bp2, bp3, bv1, bv2, bv3, bv4 = k
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
                cfg.pivot_y
                + cfg.couple_cft * act.continuous_foot_tilt[1]
                + cfg.couple_hip * act.hip_shift[1]
                + cfg.couple_lean * act.lean_tilt[1]
            )
            # The forcing term u = -foot - arm - plane - swing_out + f per axis
            foot, arm = cfg.couple_foot, cfg.couple_arm
            plane, so = cfg.couple_plane, cfg.couple_swing_out
            ux = (-(foot * act.support_foot_tilt[0]) - arm * act.arm_tilt[0]
                  - plane * act.swing_ground_plane[0] - so * act.swing_out_tilt[0] + fx)
            uy = (-(foot * act.support_foot_tilt[1]) - arm * act.arm_tilt[1]
                  - plane * act.swing_ground_plane[1] - so * act.swing_out_tilt[1] + fy)

            px, py, vx, vy = st.px, st.py, st.vx, st.vy
            # The Nystrom step on p'' = a(p); see the module docstring for
            # why every expression keeps its exact form.
            sin = math.sin
            for _ in range(n_sub):
                ax1 = c2 * sin(px - eq_x) + ux
                ay1 = c2 * sin(py - eq_y) + uy
                ax2 = c2 * sin(px + h5 * vx + a2 * ax1 - eq_x) + ux
                ay2 = c2 * sin(py + h5 * vy + a2 * ay1 - eq_y) + uy
                ax3 = c2 * sin(px + h23 * vx + a3 * (7.0 * ax2 - ax1) - eq_x) + ux
                ay3 = c2 * sin(py + h23 * vy + a3 * (7.0 * ay2 - ay1) - eq_y) + uy
                px = px + h * vx
                py = py + h * vy
                ax4 = c2 * sin(px + (a41 * ax1 - a42 * ax2 + a43 * ax3) - eq_x) + ux
                ay4 = c2 * sin(py + (a41 * ay1 - a42 * ay2 + a43 * ay3) - eq_y) + uy
                px = px + (bp1 * ax1 + bp2 * ax2 + bp3 * ax3)
                py = py + (bp1 * ay1 + bp2 * ay2 + bp3 * ay3)
                vx = vx + (bv1 * ax1 + bv2 * ax2 + bv3 * ax3 + bv4 * ax4)
                vy = vy + (bv1 * ay1 + bv2 * ay2 + bv3 * ay3 + bv4 * ay4)
            st.px, st.py, st.vx, st.vy = px, py, vx, vy

            if math.hypot(st.px, st.py) > cfg.fall_angle:
                st.fallen = True
                st.vx = 0.0
                st.vy = 0.0

    def _emit_imu(self, t_now, dt) -> ImuSample:
        """IMU sample of the measured orientation, biased by the schedule's
        bias at the last step's end; the rng is read only here."""
        cfg = self.cfg
        st = self.state
        bias_x, bias_y = self._schedule.bias
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
