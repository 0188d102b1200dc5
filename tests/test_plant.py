import ast
import math
import random
from pathlib import Path

import pytest
from reference import bits, estimator, pendulum_invariant

from tiltphase.config import ControllerConfig, PlantConfig, field_values
from tiltphase.controller import ActivationSet
from tiltphase.deviation import gait_phase_step
from tiltphase.estimator import ImuSample
import tiltphase.plant
import tiltphase.rotation
from tiltphase.harness import Scenario, run_closed_loop
from tiltphase.plant import MAX_MAGNITUDE, Disturbance, PlantState, SurrogatePlant
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
    plant.set_disturbances(disturbances)
    t = 0.0
    samples = []
    n = int(round(duration / DT))
    for k in range(n):
        samples.append(plant.step(IDLE, mu, t, DT))
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

    @pytest.mark.parametrize("kind", ["impulse", "force", "bias"])
    @pytest.mark.parametrize("plant", [
        {}, {"impulse_scale": 1e-6}, {"pendulum_c": 1e3, "couple_arm": 1e3, "couple_foot": -1e3},
    ], ids=["defaults", "smallest-impulse-scale", "largest-couplings"])
    def test_largest_magnitude_runs_finite(self, kind, plant):
        """Every magnitude the limit accepts, up to the limit itself and at the
        plant's extreme configs, gives a 2 s pushed loop with finite output,
        with and without the controller."""
        for magnitude in (5e-324, 1.0, 100.0, MAX_MAGNITUDE):
            for enabled in (True, False):
                scenario = Scenario(duration=2.0, controller_enabled=enabled, disturbances=[
                    Disturbance(kind, 0.3, magnitude, 0.2, 0.5),
                    Disturbance(kind, -2.0, magnitude, 0.0, 2.0),
                ])
                records = run_closed_loop(ControllerConfig(), PlantConfig(**plant), scenario).records
                assert all(math.isfinite(v) for rec in records for v in rec[:-1]), magnitude

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
            plant.step(IDLE, 0.5, k * DT, DT)
            st = plant.state
            if st.fallen:
                break
            g = pendulum_invariant(st.px, st.vx, cfg.pendulum_c)
            assert g == pytest.approx(g0, rel=1e-3)

    def test_impulse_scales_velocity(self):
        # Steps of 1 us, so the dynamics barely move the velocity after the push
        cfg = PlantConfig(impulse_scale=2.0)
        plant = SurrogatePlant(cfg)
        plant.set_disturbances([Disturbance("impulse", 0.0, 1.0, 0.0),
                                Disturbance("impulse", math.pi / 2, 1.0, 1e-6)])
        plant.advance(IDLE, 0.0, 0.0, 1e-6)
        assert plant.state.vx == pytest.approx(0.5)
        assert plant.state.vy == pytest.approx(0.0, abs=1e-15)
        plant.advance(IDLE, 0.0, 1e-6, 1e-6)
        assert plant.state.vy == pytest.approx(0.5)

    def test_impulse_disturbance_fires_once(self):
        plant = SurrogatePlant(PlantConfig())
        plant.set_disturbances([Disturbance("impulse", direction=0.0, magnitude=0.4, start_time=0.005)])
        plant.step(IDLE, 0.5, 0.0, DT)
        assert plant.state.vx == pytest.approx(0.4, abs=0.01)
        # Stepping over the same time window again must not re-apply it
        plant.step(IDLE, 0.5, 0.0, DT)
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
        plant.set_disturbances([Disturbance("impulse", 0.0, 5.0, 0.0)])
        plant.advance(IDLE, 0.0, 0.0, DT)
        assert plant.state.vx == 0.0


class TestStepping:
    def test_strike_flips_support(self):
        plant = SurrogatePlant(PlantConfig(pivot_x_left=-0.05, pivot_x_right=0.05))
        plant.step(IDLE, -0.1, 0.0, DT)
        assert plant.state.pivot_x == 0.05
        plant.step(IDLE, 0.1, DT, DT)  # mu crosses 0 upward
        assert plant.state.pivot_x == 0.05
        plant.step(IDLE, -3.1, 2 * DT, DT)  # wrap past +pi
        assert plant.state.pivot_x == -0.05

    def test_strike_contracts_offset_and_velocity(self):
        cfg = PlantConfig()
        plant = SurrogatePlant(cfg)
        plant.state.px = 0.1
        plant.state.vx = 1.0
        plant._mu_prev = -0.05
        plant._foot_strike(cfg.pivot_x_right)
        expect_corr = min((1.0 - cfg.strike_reset) * 0.1, cfg.strike_capture)
        assert plant.state.px == pytest.approx(0.1 - expect_corr)
        assert plant.state.vx == pytest.approx(cfg.strike_restitution * 1.0)

    def test_strike_correction_is_capped(self):
        cfg = PlantConfig()
        plant = SurrogatePlant(cfg)
        plant.state.px = 1.0
        plant._foot_strike(cfg.pivot_x_left)
        assert plant.state.px == pytest.approx(1.0 - cfg.strike_capture)


class TestImuOutput:
    def test_estimator_tracks_plant_tilt(self):
        # Closing the estimator over the plant's synthetic IMU must
        # reproduce the true tilt closely after convergence.
        cfg = PlantConfig()
        plant = SurrogatePlant(cfg)
        plant.state.px = 0.15
        plant.state.vx = -0.2
        est = estimator(kp=5.0)
        errs = []
        for k in range(200):
            s = plant.step(IDLE, 0.5, k * DT, DT)
            p = est.step(s.gyro, s.accel, DT)
            if plant.state.fallen:
                break
            if 50 <= k <= 150:  # converged, before the terminal fast fall
                errs.append(math.hypot(p[0] - plant.state.px, p[1] - plant.state.py))
        assert errs and max(errs) < 0.01

    def test_bias_disturbance_offsets_imu_not_state(self):
        plant = SurrogatePlant(PlantConfig())
        plant.set_disturbances([Disturbance("bias", direction=0.0, magnitude=0.1, start_time=0.0,
                                            duration=10.0)])
        est = estimator(kp=5.0)
        p = (0.0, 0.0)
        for k in range(400):
            s = plant.step(IDLE, 0.0, k * DT, DT)
            p = est.step(s.gyro, s.accel, DT)
        assert plant.state.px == 0.0
        assert p[0] == pytest.approx(0.1, abs=0.01)

    def test_noise_is_seed_deterministic(self):
        cfg = PlantConfig(noise_gyro=0.02, noise_accel=0.1)
        a = SurrogatePlant(cfg, seed=9)
        b = SurrogatePlant(cfg, seed=9)
        for k in range(50):
            sa = a.step(IDLE, 0.0, k * DT, DT)
            sb = b.step(IDLE, 0.0, k * DT, DT)
            assert sa == sb

    def test_rejects_nonpositive_dt(self):
        plant = SurrogatePlant(PlantConfig())
        with pytest.raises(ValueError):
            plant.step(IDLE, 0.0, 0.0, 0.0)


class TestAdvance:
    def test_advance_alone_matches_step(self):
        """A plant driven by `step` and a twin driven by `advance` alone
        reach the same states, bit for bit, through a push, a force, a bias
        and foot strikes; the twin draws no noise and keeps no IMU history."""
        cfg = PlantConfig(noise_gyro=0.02, noise_accel=0.1, pivot_x_left=-0.05, pivot_x_right=0.05)
        disturbances = [
            Disturbance("impulse", 0.7, 0.8, 0.305),
            Disturbance("force", -2.0, 0.6, 0.5, 0.4),
            Disturbance("bias", 1.0, 0.05, 0.2, 1.0),
        ]
        act = ActivationSet(arm_tilt=(0.01, -0.02), hip_shift=(0.005, 0.0),
                            gait_frequency=ControllerConfig().f_nom)
        stepped = SurrogatePlant(cfg, seed=4)
        twin = SurrogatePlant(cfg, seed=4)
        stepped.set_disturbances(disturbances)
        twin.set_disturbances(disturbances)
        rng_state = twin.rng.getstate()
        pivots = set()
        mu = 0.0
        for k in range(150):
            mu = gait_phase_step(mu, act.gait_frequency, DT)
            stepped.step(act, mu, k * DT, DT)
            assert twin.advance(act, mu, k * DT, DT) is None
            assert bits(field_values(twin.state)) == bits(field_values(stepped.state))
            pivots.add(twin.state.pivot_x)
        assert pivots == {-0.05, 0.05}
        assert not twin.state.fallen and twin.state.vx != 0.0
        assert twin.rng.getstate() == rng_state
        assert twin._q_meas_prev == (1.0, 0.0, 0.0, 0.0)


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
    """The plant written plainly: a per-stage Nystrom step with its step
    constants taken in place, three scans of the run's disturbances on every
    step and an IMU sample built from rotation.py calls.

    This is the straightforward form the inlined step must match bit for bit;
    it is only a test reference, never a second code path. Its impulse scan
    keeps the set of applied indices where `DisturbanceSchedule` keeps the
    last t_end it scanned, and runs on every step.
    """

    def __init__(self, cfg, seed=0):
        super().__init__(cfg, seed)
        self.set_disturbances(())

    def set_disturbances(self, disturbances):
        self._disturbances = tuple(disturbances)
        self._applied_impulses = set()

    def _acceleration(self, px, py, act, f_ext):
        cfg = self.cfg
        c = cfg.pendulum_c * act.max_hip_height
        c2 = c * c
        eq_x = (
            self.state.pivot_x
            + cfg.couple_cft * act.continuous_foot_tilt[0]
            + cfg.couple_hip * act.hip_shift[0]
        )
        eq_y = (
            cfg.pivot_y
            + cfg.couple_cft * act.continuous_foot_tilt[1]
            + cfg.couple_hip * act.hip_shift[1]
            + cfg.couple_lean * act.lean_tilt[1]
        )
        ux = (
            -(cfg.couple_foot * act.support_foot_tilt[0])
            - cfg.couple_arm * act.arm_tilt[0]
            - cfg.couple_plane * act.swing_ground_plane[0]
            - cfg.couple_swing_out * act.swing_out_tilt[0]
            + f_ext[0]
        )
        ax = c2 * math.sin(px - eq_x) + ux
        uy = (
            -(cfg.couple_foot * act.support_foot_tilt[1])
            - cfg.couple_arm * act.arm_tilt[1]
            - cfg.couple_plane * act.swing_ground_plane[1]
            - cfg.couple_swing_out * act.swing_out_tilt[1]
            + f_ext[1]
        )
        ay = c2 * math.sin(py - eq_y) + uy
        return ax, ay

    def _nystrom_step(self, p, v, act, f_ext, h):
        """One step of length h of p'' = a(p) for the pair p = (px, py) with
        velocity v: the four stages, then the new (p, v)."""
        def a(q):
            return self._acceleration(q[0], q[1], act, f_ext)

        hh = h * h
        k1 = a(p)
        k2 = a([p[i] + h / 5.0 * v[i] + hh / 50.0 * k1[i] for i in (0, 1)])
        k3 = a([p[i] + 2.0 * h / 3.0 * v[i] + hh / 27.0 * (7.0 * k2[i] - k1[i]) for i in (0, 1)])
        k4 = a([
            p[i] + h * v[i]
            + (3.0 * hh / 10.0 * k1[i] - 2.0 * hh / 35.0 * k2[i] + 9.0 * hh / 35.0 * k3[i])
            for i in (0, 1)
        ])
        # The weights h^2 (14, 100, 54) / 336 and h (14, 125, 162, 35) / 336, reduced
        p_new = [
            p[i] + h * v[i]
            + (hh / 24.0 * k1[i] + 25.0 * hh / 84.0 * k2[i] + 9.0 * hh / 56.0 * k3[i])
            for i in (0, 1)
        ]
        v_new = [
            v[i] + (h / 24.0 * k1[i] + 125.0 * h / 336.0 * k2[i]
                    + 27.0 * h / 56.0 * k3[i] + 5.0 * h / 48.0 * k4[i])
            for i in (0, 1)
        ]
        return p_new, v_new

    def step(self, act, mu, t, dt):
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        disturbances = self._disturbances
        st = self.state
        t_end = t + dt
        if not st.fallen:
            self._handle_gait_events(mu)
            for i, d in enumerate(disturbances):
                if d.kind == "impulse" and i not in self._applied_impulses:
                    if t <= d.start_time < t_end:
                        self._applied_impulses.add(i)
                        dv = d.magnitude / self.cfg.impulse_scale
                        st.vx += dv * math.cos(d.direction)
                        st.vy += dv * math.sin(d.direction)
            fx = 0.0
            fy = 0.0
            for d in disturbances:
                if d.kind == "force" and d.start_time <= t < d.start_time + d.duration:
                    fx += d.magnitude * math.cos(d.direction)
                    fy += d.magnitude * math.sin(d.direction)
            n_sub = max(1, math.ceil(dt / self.cfg.substep_dt))
            h = dt / n_sub
            p, v = (st.px, st.py), (st.vx, st.vy)
            for _ in range(n_sub):
                p, v = self._nystrom_step(p, v, act, (fx, fy), h)
            (st.px, st.py), (st.vx, st.vy) = p, v
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


def assert_bit_identical(fast, ref, got, want):
    assert bits(got) == bits(want)
    assert bits(field_values(fast.state)) == bits(field_values(ref.state))
    assert bits(tuple(fast._q_meas_prev)) == bits(tuple(ref._q_meas_prev))


def run_pair(cfg, acts, disturbances=(), state=None, mu=0.5, seed=0):
    """Step a plant and its reference side by side, asserting bit identity
    after every cycle; returns the plant."""
    fast = SurrogatePlant(cfg, seed=seed)
    ref = ReferencePlant(cfg, seed=seed)
    for plant in (fast, ref):
        plant.set_disturbances(disturbances)
        for name, value in (state or {}).items():
            setattr(plant.state, name, value)
    for k, act in enumerate(acts):
        got = fast.step(act, mu, k * DT, DT)
        want = ref.step(act, mu, k * DT, DT)
        assert_bit_identical(fast, ref, got, want)
    return fast


class TestBitExactKernel:
    @pytest.mark.parametrize("substep_dt, n_sub", [(0.01, 1), (1e-3, 10), (0.0015, 7)])
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_matches_reference_nystrom_exactly(self, substep_dt, n_sub, seed):
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
        fast.set_disturbances(disturbances)
        ref.set_disturbances(disturbances)
        mu = 0.0
        for k in range(60):
            act = ActivationSet(
                arm_tilt=pair(), support_foot_tilt=pair(), continuous_foot_tilt=pair(),
                hip_shift=pair(), max_hip_height=rng.uniform(0.85, 0.99), lean_tilt=pair(),
                swing_out_tilt=pair(), swing_ground_plane=pair(),
                gait_frequency=rng.uniform(5.0, 8.0),
            )
            mu = gait_phase_step(mu, act.gait_frequency, DT)
            got = fast.step(act, mu, k * DT, DT)
            want = ref.step(act, mu, k * DT, DT)
            assert_bit_identical(fast, ref, got, want)


class TestNystromStep:
    ACT = ActivationSet(arm_tilt=(0.02, -0.01), hip_shift=(0.01, 0.0))

    def one_cycle(self, substep_dt, dt=0.1):
        """(px, py, vx, vy) after one cycle of dt from a moving, forced state."""
        plant = SurrogatePlant(PlantConfig(substep_dt=substep_dt))
        st = plant.state
        st.px, st.py, st.vx, st.vy = 0.3, -0.2, 0.8, 0.4
        plant.step(self.ACT, 0.5, 0.0, dt)
        return st.px, st.py, st.vx, st.vy

    def test_fifth_order(self):
        """Halving the step divides the error against a 1e-5 s run by about
        2^5 = 32 (31.2 measured); a fourth-order step gives 16, and a 1%
        error in any one coefficient drops the ratio below 5."""
        fine = self.one_cycle(1e-5)
        coarse, half = (
            max(abs(a - b) for a, b in zip(self.one_cycle(h), fine)) for h in (0.1, 0.05)
        )
        assert 24.0 <= coarse / half <= 40.0

    def test_default_cycle_takes_one_step_of_eight_sines(self, monkeypatch):
        """Four stages per axis: a default 10 ms cycle calls math.sin 8 times."""
        calls = []

        class CountingMath:
            def __getattr__(self, name):
                return getattr(math, name)

            def sin(self, x):
                calls.append(x)
                return math.sin(x)

        monkeypatch.setattr(tiltphase.plant, "math", CountingMath())
        self.one_cycle(PlantConfig().substep_dt, dt=DT)
        assert len(calls) == 8


class TestSchedule:
    """Cases of the disturbance schedule where list order and start order
    differ, against the reference's scans in list order, bit for bit."""

    # Three disturbances of one kind whose starts run against their list order
    PARAMS = ((0.3, 1.7, 0.037), (2.1, 0.9, 0.032), (-1.0, 1.3, 0.035))

    def test_same_step_impulses_apply_in_list_order(self):
        pushes = [Disturbance("impulse", d, m, t) for d, m, t in self.PARAMS]
        run_pair(PlantConfig(), [IDLE] * 6, pushes, state=dict(vx=0.1234567, vy=-0.0987654))

    @pytest.mark.parametrize("kind", ["force", "bias"])
    def test_overlapping_windows_sum_in_list_order(self, kind):
        windows = [Disturbance(kind, d, m, t - 0.025, 0.05 + t) for d, m, t in self.PARAMS]
        run_pair(PlantConfig(), [IDLE] * 12, windows, state=dict(px=0.0123, vy=-0.0456))

    def test_set_disturbances_starts_a_new_schedule(self):
        push = Disturbance("impulse", 0.5, 1.0, 0.025)
        later = Disturbance("impulse", 0.5, 1.0, 0.055)
        plant = SurrogatePlant(PlantConfig())
        plant.set_disturbances([push, later])
        plant.step(IDLE, 0.5, 0.0, DT)
        plant.step(IDLE, 0.5, DT, DT)
        assert plant.state.vx == 0.0
        plant.step(IDLE, 0.5, 2 * DT, DT)
        vx = plant.state.vx
        assert vx != 0.0
        # The repeated step scans the disturbances again, and still pushes only once
        assert plant._schedule.next_event <= 2 * DT + DT
        plant.step(IDLE, 0.5, 2 * DT, DT)
        assert abs(plant.state.vx - vx) < 0.01
        # A new set replaces the schedule: its push acts once, even over a
        # repeated step, and `later` never acts
        plant.set_disturbances([Disturbance("impulse", 0.5, 1.0, 0.035)])
        plant.step(IDLE, 0.5, 3 * DT, DT)
        assert plant.state.vx > vx + 0.5
        vx = plant.state.vx
        for t in (3 * DT, 4 * DT, 5 * DT, 6 * DT):
            plant.step(IDLE, 0.5, t, DT)
            assert abs(plant.state.vx - vx) < 0.05, t


_PAIR_FIELDS = (
    "arm_tilt", "support_foot_tilt", "continuous_foot_tilt", "hip_shift",
    "lean_tilt", "swing_out_tilt", "swing_ground_plane",
)


class TestRestPath:
    """Signed zeros at rest through the one step loop, against the
    reference loop, bit for bit."""

    @pytest.mark.parametrize("names", [("px",), ("py",), ("vx",), ("vy",), ("px", "py", "vx", "vy")])
    def test_negative_zero_state(self, names):
        plant = run_pair(PlantConfig(), [IDLE] * 3, state=dict.fromkeys(names, -0.0))
        st = plant.state
        assert bits((st.px, st.py, st.vx, st.vy)) == bits((0.0, 0.0, 0.0, 0.0))

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

    def test_cancelling_couplings(self):
        # 6 * 0.1 and 3 * -0.2 cancel: the forcing term is +0.0, so the
        # plant rests with non-zero activations
        act = IDLE._replace(support_foot_tilt=(0.1, -0.05), arm_tilt=(-0.2, 0.1))
        assert 6.0 * 0.1 == -(3.0 * -0.2) and 6.0 * -0.05 == -(3.0 * 0.1)
        plant = run_pair(PlantConfig(couple_foot=6.0, couple_arm=3.0), [act] * 3)
        st = plant.state
        assert bits((st.px, st.py, st.vx, st.vy)) == bits((0.0, 0.0, 0.0, 0.0))

    @pytest.mark.parametrize("pivots", [dict(pivot_x_right=0.05), dict(pivot_y=-1e-300)])
    def test_non_zero_pivot_moves(self, pivots):
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
