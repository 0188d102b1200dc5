import math
import pickle
import random

import pytest
from reference import axis_rotation, composed_deviation, fused_yaw, tilt_phase_from_quat

from tiltphase.config import ControllerConfig, fields
from tiltphase.deviation import (
    DeviationResult,
    ExpectedWaveform,
    deviation_tilt,
    gait_phase_step,
)
from tiltphase.rotation import quat_conj, quat_from_tilt_phase, quat_mul


def qd_oracle(p_b, p_e, p_yn, psi_e):
    """Direct quaternion evaluation of the deviation rotation."""
    return quat_mul(
        quat_mul(
            quat_mul(
                quat_mul(axis_rotation("y", p_yn), quat_conj(quat_from_tilt_phase(p_b))),
                axis_rotation("z", psi_e),
            ),
            quat_from_tilt_phase(p_e),
        ),
        axis_rotation("y", -p_yn),
    )


class TestGaitPhase:
    def test_wrap_boundary(self):
        assert gait_phase_step(0.0, 2 * math.pi, 0.5) == pytest.approx(math.pi)

    def test_wrap_around(self):
        assert gait_phase_step(math.pi - 0.01, 1.0, 0.02) == pytest.approx(
            -math.pi + 0.01
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            gait_phase_step(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            gait_phase_step(0.0, 0.0, 0.01)


class TestExpectedWaveform:
    def test_zero_amplitude(self):
        w = ExpectedWaveform(0.0, 0.0, 0.0, 0.0, 0.01, -0.02)
        assert w.evaluate(1.234) == pytest.approx((0.01, -0.02))

    def test_periodicity(self):
        w = ExpectedWaveform(0.05, 0.03, 0.2, -0.7, 0.01, 0.0)
        for mu in (-3.0, -1.0, 0.0, 2.5):
            assert w.evaluate(mu) == pytest.approx(
                w.evaluate(mu + 2 * math.pi)
            )

    def test_direct_evaluation(self):
        w = ExpectedWaveform(amp_x=0.05, phase_x=0.0, offset_x=0.0)
        assert w.evaluate(math.pi / 2).px == pytest.approx(0.05)

    def test_is_an_immutable_named_tuple(self):
        # Its fields are the wave_* keys of ControllerConfig, in their order
        w = ExpectedWaveform(0.1, -0.0, offset_y=1)
        assert w._fields == tuple(k[5:] for k in fields(ControllerConfig) if k.startswith("wave_"))
        assert w == (0.1, -0.0, 0.0, 0.0, 0.0, 1)
        assert repr(w).startswith("ExpectedWaveform(amp_x=0.1, amp_y=-0.0,")
        assert repr(w).endswith("offset_y=1)")
        with pytest.raises(AttributeError):
            w.amp_x = 0.3
        with pytest.raises(AttributeError):
            del w.amp_y
        assert not hasattr(w, "__dict__")
        restored = pickle.loads(pickle.dumps(w, pickle.HIGHEST_PROTOCOL))
        assert type(restored) is ExpectedWaveform and repr(restored) == repr(w)
        with pytest.raises(TypeError, match="no_such_field"):
            ExpectedWaveform(no_such_field=1.0)


class TestDeviationTilt:
    def test_expected_orientation_reached(self):
        rng = random.Random(13)
        for _ in range(200)      :
            p = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            pyn = rng.uniform(-1.0, 1.0)
            d = deviation_tilt(p, p, pyn)
            assert math.hypot(d.px, d.py) < 1e-10

    def test_reduces_to_body_tilt(self):
        # pyN = 0, P_E = 0: q_d = q_P(P_B)^* with psi_E = 0, so P_d = P_B.
        d = deviation_tilt((0.1, 0.0), (0.0, 0.0), 0.0)
        assert d.px == pytest.approx(0.1, abs=1e-10)
        assert d.py == pytest.approx(0.0, abs=1e-10)
        d2 = deviation_tilt((0.2, -0.3), (0.0, 0.0), 0.0)
        assert (d2.px, d2.py) == pytest.approx((0.2, -0.3), abs=1e-10)

    def test_residual_audit_fuzz(self):
        rng = random.Random(29)
        for _ in range(10_000):
            p_b = (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
            p_e = (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
            pyn = rng.uniform(-1.2, 1.2)
            d = deviation_tilt(p_b, p_e, pyn)
            assert d.converged
            assert math.isfinite(d.px) and math.isfinite(d.py)
            # Cross-check against direct quaternion composition
            qd = qd_oracle(p_b, p_e, pyn, composed_deviation(p_b, p_e, pyn)[1])
            assert abs(fused_yaw(qd)) <= 1e-10
            p = tilt_phase_from_quat(quat_conj(qd))
            assert d.px == pytest.approx(p.px, abs=1e-9)
            assert d.py == pytest.approx(p.py, abs=1e-9)

    def test_continuity_under_perturbation(self):
        rng = random.Random(37)
        delta = 1e-6
        for _ in range(500):
            p_b = (rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4))
            p_e = (rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4))
            pyn = rng.uniform(-0.8, 0.8)
            d0 = deviation_tilt(p_b, p_e, pyn)
            d1 = deviation_tilt((p_b[0] + delta, p_b[1]), p_e, pyn)
            change = math.hypot(d1.px - d0.px, d1.py - d0.py)
            assert change < 100 * delta


class TestDegenerate:
    def test_half_turn_fallback(self):
        # A zero body tilt against a half-turn expected tilt degenerates (z1
        # and z2 vanish); the function must return a finite result and flag
        # non-convergence instead of raising.
        d = deviation_tilt((0.0, 0.0), (math.pi, 0.0), 0.0)
        assert isinstance(d, DeviationResult)
        assert not d.converged
        assert math.isfinite(d.px) and math.isfinite(d.py)
