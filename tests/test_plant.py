import ast
import dataclasses
import math
import random
import struct
from pathlib import Path

import pytest

from tiltphase.config import ControllerConfig, PlantConfig
from tiltphase.controller import ActivationSet, pendulum_invariant
from tiltphase.deviation import gait_phase_step
from tiltphase.estimator import AttitudeEstimator, ImuSample
import tiltphase.plant
import tiltphase.rotation
from tiltphase.plant import Disturbance, PlantState, SurrogatePlant
from tiltphase.rotation import (
    quat_conj,
    quat_from_tilt_phase,
    quat_mul,
    quat_normalize,
    quat_rotate,
)

IDLE = ActivationSet()
DT = 0.01


def run_idle(plant, duration, mu=0.0, disturbances=()):
    t = 0.0
    samples = []
    n = int(round(duration / DT))
    for k in range(n):
        samples.append(plant.step(IDLE, mu, list(disturbances), t, DT))
        t += DT
    return samples


class TestDisturbanceValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Disturbance("earthquake")

    def test_negative_magnitude(self):
        with pytest.raises(ValueError):
            Disturbance("impulse", magnitude=-1.0)

    @pytest.mark.parametrize("kind", ["impulse", "force", "bias"])
    def test_negative_duration(self, kind):
        # A negative window never opens: the force below would never act
        with pytest.raises(ValueError, match="disturbance duration must be >= 0"):
            Disturbance(kind, magnitude=9.5, duration=-1.0)
        with pytest.raises(ValueError, match="disturbance duration must be >= 0"):
            Disturbance(kind, duration=-5e-324)
        assert Disturbance(kind, duration=0.0).duration == 0.0

    @pytest.mark.parametrize("name", ["direction", "magnitude", "start_time", "duration"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_field(self, name, bad):
        # A nan force turned the plant state to nan, which never counts as fallen
        with pytest.raises(ValueError, match=f"disturbance {name} must be finite"):
            Disturbance("force", **{name: bad})


class TestDynamics:
    def test_upright_rest_stays_put(self):
        plant = SurrogatePlant(PlantConfig())
        run_idle(plant, 2.0)
        assert plant.state.px == 0.0
        assert plant.state.py == 0.0
        assert not plant.state.fallen

    def test_pendulum_invariant_conserved(self):
        # No stepping (constant mu), no activation: the free pendulum
        # invariant must be conserved by the integrator.
        cfg = PlantConfig()
        plant = SurrogatePlant(cfg)
        plant.state.px = 0.2
        plant.state.vx = 0.1
        g0 = pendulum_invariant(0.2, 0.1, cfg.pendulum_c)
        for k in range(500):
            plant.step(IDLE, 0.5, [], k * DT, DT)
            st = plant.state
            if st.fallen:
                break
            g = pendulum_invariant(st.px, st.vx, cfg.pendulum_c)
            assert g == pytest.approx(g0, rel=1e-3)

    def test_impulse_scales_velocity(self):
        cfg = PlantConfig(impulse_scale=2.0)
        plant = SurrogatePlant(cfg)
        plant.apply_push(0.0, 1.0)
        assert plant.state.vx == pytest.approx(0.5)
        assert plant.state.vy == pytest.approx(0.0, abs=1e-15)
        plant.apply_push(math.pi / 2, 1.0)
        assert plant.state.vy == pytest.approx(0.5)

    def test_impulse_disturbance_fires_once(self):
        plant = SurrogatePlant(PlantConfig())
        d = Disturbance("impulse", direction=0.0, magnitude=0.4, start_time=0.005)
        plant.step(IDLE, 0.5, [d], 0.0, DT)
        assert plant.state.vx == pytest.approx(0.4, abs=0.01)
        # Stepping over the same time window again must not re-apply it
        plant.step(IDLE, 0.5, [d], 0.0, DT)
        assert plant.state.vx == pytest.approx(0.4, abs=0.02)

    def test_fallen_is_absorbing(self):
        plant = SurrogatePlant(PlantConfig())
        plant.state.px = 2.0
        plant.state.vx = 3.0
        run_idle(plant, 0.5, mu=0.5)
        assert plant.state.fallen
        px = plant.state.px
        run_idle(plant, 0.5, mu=0.5)
        assert plant.state.fallen
        assert plant.state.px == px
        assert plant.state.vx == 0.0

    def test_push_ignored_after_fall(self):
        plant = SurrogatePlant(PlantConfig())
        plant.state.fallen = True
        plant.apply_push(0.0, 5.0)
        assert plant.state.vx == 0.0


class TestStepping:
    def test_strike_flips_support(self):
        plant = SurrogatePlant(PlantConfig())
        plant.step(IDLE, -0.1, [], 0.0, DT)
        assert plant.state.support == "R"
        plant.step(IDLE, 0.1, [], DT, DT)  # mu crosses 0 upward
        assert plant.state.support == "R"
        plant.step(IDLE, -3.1, [], 2 * DT, DT)  # wrap past +pi
        assert plant.state.support == "L"

    def test_strike_contracts_offset_and_velocity(self):
        cfg = PlantConfig()
        plant = SurrogatePlant(cfg)
        plant.state.px = 0.1
        plant.state.vx = 1.0
        plant._mu_prev = -0.05
        plant._foot_strike("R")
        expect_corr = min((1.0 - cfg.strike_reset) * 0.1, cfg.strike_capture)
        assert plant.state.px == pytest.approx(0.1 - expect_corr)
        assert plant.state.vx == pytest.approx(cfg.strike_restitution * 1.0)

    def test_strike_correction_is_capped(self):
        cfg = PlantConfig()
        plant = SurrogatePlant(cfg)
        plant.state.px = 1.0
        plant._foot_strike("L")
        assert plant.state.px == pytest.approx(1.0 - cfg.strike_capture)


class TestImuOutput:
    def test_estimator_tracks_plant_tilt(self):
        # Closing the estimator over the plant's synthetic IMU must
        # reproduce the true tilt closely after convergence.
        cfg = PlantConfig()
        plant = SurrogatePlant(cfg)
        plant.state.px = 0.15
        plant.state.vx = -0.2
        est = AttitudeEstimator(kp=5.0)
        errs = []
        for k in range(200):
            s = plant.step(IDLE, 0.5, [], k * DT, DT)
            p = est.step(s.gyro, s.accel, DT)
            if plant.state.fallen:
                break
            if 50 <= k <= 150:  # converged, before the terminal fast fall
                errs.append(math.hypot(p[0] - plant.state.px, p[1] - plant.state.py))
        assert errs and max(errs) < 0.01

    def test_bias_disturbance_offsets_imu_not_state(self):
        plant = SurrogatePlant(PlantConfig())
        d = Disturbance("bias", direction=0.0, magnitude=0.1, start_time=0.0, duration=10.0)
        est = AttitudeEstimator(kp=5.0)
        p = (0.0, 0.0)
        for k in range(400):
            s = plant.step(IDLE, 0.0, [d], k * DT, DT)
            p = est.step(s.gyro, s.accel, DT)
        assert plant.state.px == 0.0
        assert p[0] == pytest.approx(0.1, abs=0.01)

    def test_noise_is_seed_deterministic(self):
        cfg = PlantConfig(noise_gyro=0.02, noise_accel=0.1)
        a = SurrogatePlant(cfg, seed=9)
        b = SurrogatePlant(cfg, seed=9)
        for k in range(50):
            sa = a.step(IDLE, 0.0, [], k * DT, DT)
            sb = b.step(IDLE, 0.0, [], k * DT, DT)
            assert sa == sb

    def test_rejects_nonpositive_dt(self):
        plant = SurrogatePlant(PlantConfig())
        with pytest.raises(ValueError):
            plant.step(IDLE, 0.0, [], 0.0, 0.0)


def test_benchmark_rotation_wrap_points_exist():
    # perfbench/layers.py wraps each of its ROTATION_NAMES on tiltphase.plant
    # for the rotation spans; a name the plant no longer has makes every
    # traced benchmark run raise AttributeError
    layers = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    tree = ast.parse(layers.read_text(encoding="utf-8"))
    names = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "ROTATION_NAMES"
    )
    assert len(names) == 5
    for name in names:
        assert getattr(tiltphase.plant, name) is getattr(tiltphase.rotation, name), name


class ReferencePlant(SurrogatePlant):
    """The plant written plainly: per-stage RK4 derivative calls, no rest
    skip, three disturbance scans and an IMU sample built from rotation.py
    calls.

    This is the straightforward form the inlined step must match bit for bit;
    it is only a test reference, never a second code path.
    """

    def _acceleration(self, px, py, vx, vy, act, f_ext):
        cfg = self.cfg
        c = cfg.pendulum_c * act.max_hip_height
        c2 = c * c
        eq_x = (
            self.state.pivot_x
            + cfg.couple_cft * act.continuous_foot_tilt[0]
            + cfg.couple_hip * act.hip_shift[0]
        )
        eq_y = (
            self.state.pivot_y
            + cfg.couple_cft * act.continuous_foot_tilt[1]
            + cfg.couple_hip * act.hip_shift[1]
            + cfg.couple_lean * act.lean_tilt[1]
        )
        ax = (
            c2 * math.sin(px - eq_x)
            - cfg.couple_foot * act.support_foot_tilt[0]
            - cfg.couple_arm * act.arm_tilt[0]
            - cfg.couple_plane * act.swing_ground_plane[0]
            - cfg.couple_swing_out * act.swing_out_tilt[0]
            + f_ext[0]
        )
        ay = (
            c2 * math.sin(py - eq_y)
            - cfg.couple_foot * act.support_foot_tilt[1]
            - cfg.couple_arm * act.arm_tilt[1]
            - cfg.couple_plane * act.swing_ground_plane[1]
            - cfg.couple_swing_out * act.swing_out_tilt[1]
            + f_ext[1]
        )
        return ax, ay

    def _rk4(self, px, py, vx, vy, act, f_ext, h):
        def deriv(px_, py_, vx_, vy_):
            ax, ay = self._acceleration(px_, py_, vx_, vy_, act, f_ext)
            return vx_, vy_, ax, ay

        k1 = deriv(px, py, vx, vy)
        k2 = deriv(px + 0.5 * h * k1[0], py + 0.5 * h * k1[1],
                   vx + 0.5 * h * k1[2], vy + 0.5 * h * k1[3])
        k3 = deriv(px + 0.5 * h * k2[0], py + 0.5 * h * k2[1],
                   vx + 0.5 * h * k2[2], vy + 0.5 * h * k2[3])
        k4 = deriv(px + h * k3[0], py + h * k3[1],
                   vx + h * k3[2], vy + h * k3[3])
        return (
            px + h / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
            py + h / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]),
            vx + h / 6.0 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2]),
            vy + h / 6.0 * (k1[3] + 2 * k2[3] + 2 * k3[3] + k4[3]),
        )

    def step(self, act, mu, disturbances, t, dt):
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        st = self.state
        t_end = t + dt
        if not st.fallen:
            self._handle_gait_events(mu)
            for i, d in enumerate(disturbances):
                if d.kind == "impulse" and i not in self._applied_impulses:
                    if t <= d.start_time < t_end:
                        self._applied_impulses.add(i)
                        self.apply_push(d.direction, d.magnitude)
            fx = 0.0
            fy = 0.0
            for d in disturbances:
                if d.kind == "force" and d.start_time <= t < d.start_time + d.duration:
                    fx += d.magnitude * math.cos(d.direction)
                    fy += d.magnitude * math.sin(d.direction)
            n_sub = max(1, math.ceil(dt / self.cfg.substep_dt))
            h = dt / n_sub
            px, py, vx, vy = st.px, st.py, st.vx, st.vy
            for _ in range(n_sub):
                px, py, vx, vy = self._rk4(px, py, vx, vy, act, (fx, fy), h)
            st.px, st.py, st.vx, st.vy = px, py, vx, vy
            st.odometry += abs(act.gait_frequency) * dt
            if math.hypot(st.px, st.py) > self.cfg.fall_angle:
                st.fallen = True
                st.vx = 0.0
                st.vy = 0.0
        return self._reference_imu(disturbances, t_end, dt)

    def _reference_imu(self, disturbances, t_now, dt):
        st = self.state
        cfg = self.cfg
        bias_x = 0.0
        bias_y = 0.0
        for d in disturbances:
            if d.kind == "bias" and d.start_time <= t_now < d.start_time + d.duration:
                bias_x += d.magnitude * math.cos(d.direction)
                bias_y += d.magnitude * math.sin(d.direction)

        q_meas = quat_from_tilt_phase((st.px + bias_x, st.py + bias_y))
        dq = quat_normalize(quat_mul(quat_conj(self._q_meas_prev), q_meas))
        w, x, y, z = dq
        s = math.sqrt(x * x + y * y + z * z)
        if s < 1e-15:
            gyro = [0.0, 0.0, 0.0]
        else:
            k = 2.0 * math.atan2(s, w) / (s * dt)
            gyro = [k * x, k * y, k * z]
        self._q_meas_prev = q_meas

        accel = list(quat_rotate(quat_conj(q_meas), (0.0, 0.0, cfg.gravity)))
        if cfg.noise_gyro > 0.0:
            for i in range(3):
                gyro[i] += self.rng.gauss(0.0, cfg.noise_gyro)
        if cfg.noise_accel > 0.0:
            for i in range(3):
                accel[i] += self.rng.gauss(0.0, cfg.noise_accel)
        return ImuSample(t_now, tuple(gyro), tuple(accel))


def _bits(value):
    """value with every float replaced by its IEEE 754 bytes, so -0.0 != 0.0."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return value


def assert_bit_identical(fast, ref, got, want):
    assert _bits(got) == _bits(want)
    assert _bits(dataclasses.astuple(fast.state)) == _bits(dataclasses.astuple(ref.state))
    assert _bits(tuple(fast._q_meas_prev)) == _bits(tuple(ref._q_meas_prev))


def run_pair(cfg, acts, disturbances=(), state=None, mu=0.5, seed=0):
    """Step a plant and its reference side by side, asserting bit identity
    after every cycle; returns the plant."""
    fast = SurrogatePlant(cfg, seed=seed)
    ref = ReferencePlant(cfg, seed=seed)
    for plant in (fast, ref):
        for name, value in (state or {}).items():
            setattr(plant.state, name, value)
    for k, act in enumerate(acts):
        got = fast.step(act, mu, list(disturbances), k * DT, DT)
        want = ref.step(act, mu, list(disturbances), k * DT, DT)
        assert_bit_identical(fast, ref, got, want)
    return fast


class TestBitExactKernel:
    @pytest.mark.parametrize("substep_dt, n_sub", [(0.01, 1), (1e-3, 10), (0.0015, 7)])
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_matches_reference_rk4_exactly(self, substep_dt, n_sub, seed):
        assert max(1, math.ceil(DT / substep_dt)) == n_sub
        rng = random.Random(seed)

        def pair():
            return (rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))

        cfg = PlantConfig(
            substep_dt=substep_dt, pivot_x_left=-0.05, pivot_x_right=0.05, pivot_y=0.02,
            noise_gyro=0.01, noise_accel=0.05,
        )
        fast = SurrogatePlant(cfg, seed=seed)
        ref = ReferencePlant(cfg, seed=seed)
        px, py = pair()
        vx, vy = pair()
        for plant in (fast, ref):
            plant.state.px, plant.state.py = px, py
            plant.state.vx, plant.state.vy = vx, vy
        disturbances = [
            Disturbance("force", direction=rng.uniform(-math.pi, math.pi),
                        magnitude=rng.uniform(0.5, 2.0), start_time=0.0, duration=0.5),
            Disturbance("impulse", direction=rng.uniform(-math.pi, math.pi),
                        magnitude=rng.uniform(0.1, 0.5), start_time=0.255),
            Disturbance("bias", direction=rng.uniform(-math.pi, math.pi),
                        magnitude=rng.uniform(0.01, 0.1), start_time=0.105, duration=0.2),
        ]
        mu = 0.0
        for k in range(60):
            act = ActivationSet(
                arm_tilt=pair(), support_foot_tilt=pair(), continuous_foot_tilt=pair(),
                hip_shift=pair(), max_hip_height=rng.uniform(0.85, 0.99), lean_tilt=pair(),
                swing_out_tilt=pair(), swing_ground_plane=pair(),
                gait_frequency=rng.uniform(5.0, 8.0),
            )
            mu = gait_phase_step(mu, act.gait_frequency, DT)
            got = fast.step(act, mu, disturbances, k * DT, DT)
            want = ref.step(act, mu, disturbances, k * DT, DT)
            assert_bit_identical(fast, ref, got, want)


_PAIR_FIELDS = (
    "arm_tilt", "support_foot_tilt", "continuous_foot_tilt", "hip_shift",
    "lean_tilt", "swing_out_tilt", "swing_ground_plane",
)


class TestRestPath:
    """The exact rest skip against the reference loop, bit for bit."""

    @pytest.mark.parametrize("names", [("px",), ("py",), ("vx",), ("vy",), ("px", "py", "vx", "vy")])
    def test_negative_zero_state(self, names):
        plant = run_pair(PlantConfig(), [IDLE] * 3, state=dict.fromkeys(names, -0.0))
        st = plant.state
        assert _bits((st.px, st.py, st.vx, st.vy)) == _bits((0.0, 0.0, 0.0, 0.0))

    @pytest.mark.parametrize("field", _PAIR_FIELDS)
    @pytest.mark.parametrize("pair", [(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)])
    def test_signed_zero_activation(self, field, pair):
        run_pair(PlantConfig(), [IDLE._replace(**{field: pair})] * 3)

    @pytest.mark.parametrize("field", ["max_hip_height", "gait_frequency"])
    @pytest.mark.parametrize("value", [0.0, -0.0])
    def test_signed_zero_scalar_activation(self, field, value):
        run_pair(PlantConfig(), [IDLE._replace(**{field: value})] * 3)

    def test_non_finite_hip_height(self):
        # c2 = inf turns c2 * sin(0) into nan, which the loop propagates
        plant = run_pair(PlantConfig(), [IDLE._replace(max_hip_height=math.inf)] * 2)
        assert math.isnan(plant.state.px)

    @pytest.mark.parametrize("pivots", [
        dict(pivot_x_left=-0.0, pivot_x_right=-0.0),
        dict(pivot_y=-0.0),
        dict(pivot_x_left=-0.0, pivot_x_right=-0.0, pivot_y=-0.0),
    ])
    def test_signed_zero_pivots(self, pivots):
        run_pair(PlantConfig(**pivots), [IDLE] * 3)

    def test_zero_magnitude_force(self):
        force = Disturbance("force", direction=2.5, magnitude=0.0, start_time=0.0, duration=1.0)
        run_pair(PlantConfig(), [IDLE] * 3, [force])

    @pytest.mark.parametrize("pivots", [dict(pivot_x_right=0.05), dict(pivot_y=-1e-300)])
    def test_non_zero_pivot_does_not_skip(self, pivots):
        plant = run_pair(PlantConfig(**pivots), [IDLE] * 3)
        assert plant.state.vx != 0.0 or plant.state.vy != 0.0

    def test_impulse_in_first_rest_cycle(self):
        push = Disturbance("impulse", direction=0.7, magnitude=0.3, start_time=0.0)
        plant = run_pair(PlantConfig(), [IDLE] * 3, [push])
        assert plant.state.vx != 0.0

    def test_emission_signed_zeros_and_large_tilts(self):
        # A fallen plant only emits, so its state reaches the IMU sample as
        # set: signed zeros, subnormals (sa * px rounds to -0.0) and tilts
        # past pi (cos(alpha / 2) < 0)
        values = (0.0, -0.0, 5e-324, -5e-324, 0.2, -0.2, 3.5, -4.0)
        for px in values:
            for py in values:
                run_pair(PlantConfig(), [IDLE] * 2, state=dict(px=px, py=py, fallen=True))

    def test_fallen_plant(self):
        bias = Disturbance("bias", direction=-1.0, magnitude=0.05, start_time=0.0, duration=1.0)
        plant = run_pair(
            PlantConfig(noise_gyro=0.01, noise_accel=0.05), [IDLE] * 4, [bias],
            state=dict(px=1.6, vx=-0.0, fallen=True), seed=4,
        )
        assert plant.state.fallen and plant.state.px == 1.6
