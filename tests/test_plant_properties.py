"""Property tests of the plant at and near rest and of its disturbance
schedule against the plain reference step, bit for bit.

Needs Hypothesis (the `test` extra); skipped where it is not installed.
"""

import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as hs  # noqa: E402
from test_plant import _PAIR_FIELDS, DT, ReferencePlant, assert_bit_identical  # noqa: E402

from tiltphase.config import PlantConfig  # noqa: E402
from tiltphase.controller import ActivationSet  # noqa: E402
from tiltphase.plant import Disturbance, SurrogatePlant  # noqa: E402

# Signed zeros, subnormal and tiny values, and ordinary magnitudes
_SIGNED_ZERO = hs.sampled_from([0.0, -0.0])
_FLOATS = hs.one_of(
    _SIGNED_ZERO,
    hs.sampled_from([5e-324, -5e-324, 1e-310, -1e-300, 1e-160]),
    hs.floats(-0.3, 0.3),
)
_STATE = ("px", "py", "vx", "vy")
_LIVE = _STATE + ("pivot_x", "pivot_y", "force") + tuple(
    f"{field}[{i}]" for field in _PAIR_FIELDS for i in (0, 1)
)


@settings(max_examples=200, deadline=None)
@given(data=hs.data())
def test_near_rest_matches_reference(data):
    # A few live components, the rest signed zeros: many cycles start
    # exactly at rest, many just beside it
    live = data.draw(hs.sets(hs.sampled_from(_LIVE), max_size=3), label="live")

    def value(name):
        return data.draw(_FLOATS if name in live else _SIGNED_ZERO, label=name)

    pivot_x = value("pivot_x")
    cfg = PlantConfig(
        pivot_x_left=pivot_x, pivot_x_right=pivot_x, pivot_y=value("pivot_y"),
        couple_arm=data.draw(hs.sampled_from([0.0, 3.0]), label="couple_arm"),
    )
    magnitude = value("force")
    force = Disturbance(
        "force", direction=data.draw(hs.floats(-math.pi, math.pi), label="direction"),
        magnitude=magnitude if magnitude == 0.0 else abs(magnitude), start_time=0.0,
        duration=data.draw(hs.sampled_from([0.015, 1.0]), label="duration"),
    )
    fast = SurrogatePlant(cfg)
    ref = ReferencePlant(cfg)
    fast.set_disturbances([force])
    ref.set_disturbances([force])
    for name in _STATE:
        v = value(name)
        setattr(fast.state, name, v)
        setattr(ref.state, name, v)
    for k in range(4):
        act = ActivationSet(
            **{field: (value(f"{field}[0]"), value(f"{field}[1]")) for field in _PAIR_FIELDS},
            max_hip_height=data.draw(hs.sampled_from([1.0, 0.9, 0.0, -0.0]), label="hip"),
        )
        mu = data.draw(hs.sampled_from([0.5, -0.1, 0.1, 3.1, -3.1]), label="mu")
        got = fast.step(act, mu, k * DT, DT)
        want = ref.step(act, mu, k * DT, DT)
        assert_bit_identical(fast, ref, got, want)


def _start_time(j, where):
    """A time at or near the start of step j (t = j * DT): on it, just
    before or after it, or inside the step."""
    t = j * DT
    return (t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf),
            t + 0.3 * DT, t + 0.7 * DT)[where]


_DISTURBANCE = hs.builds(
    lambda kind, direction, magnitude, j, where, duration: Disturbance(
        kind, direction, magnitude, _start_time(j, where), duration),
    kind=hs.sampled_from(["impulse", "force", "bias"]),
    direction=hs.one_of(_SIGNED_ZERO, hs.floats(-math.pi, math.pi)),
    magnitude=hs.one_of(_SIGNED_ZERO, hs.floats(0.0, 3.0), hs.just(60.0)),
    j=hs.integers(-2, 12),
    where=hs.integers(0, 4),
    duration=hs.sampled_from([0.0, DT, 2.5 * DT, 0.1, 1.0]),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    disturbances=hs.lists(_DISTURBANCE, max_size=12),
    fallen=hs.booleans(),
    seed=hs.integers(0, 3),
)
# Step 5's t_end, 0.05 + 0.01, passes step 6's t = 0.06 by an ulp: the
# impulse at 0.06 is due in step 5 and must not act again in step 6
@example(disturbances=[Disturbance("impulse", 0.3, 1.5, _start_time(6, 0)),
                       Disturbance("impulse", -1.2, 0.8, _start_time(6, 2))],
         fallen=False, seed=0)
def test_schedule_matches_reference_scan(disturbances, fallen, seed):
    """The plant's disturbance schedule against the reference's per-step
    scans, bit for bit: impulses that share a step (applied in list order,
    whatever their start order), overlapping force and bias windows,
    windows that open or close on a step boundary or last no time, starts
    before the first step, and pushes while fallen (from the start, or
    after a push of 60 that fells the plant)."""
    cfg = PlantConfig(noise_gyro=0.01, noise_accel=0.05)
    fast = SurrogatePlant(cfg, seed=seed)
    ref = ReferencePlant(cfg, seed=seed)
    for plant in (fast, ref):
        plant.set_disturbances(disturbances)
        plant.state.px, plant.state.vy = 0.02, -0.05
        plant.state.fallen = fallen
    act = ActivationSet(arm_tilt=(0.01, -0.02), swing_out_tilt=(0.0, 0.03))
    mu = 0.0
    for k in range(35):
        mu = math.remainder(mu + 0.5, 2.0 * math.pi)
        got = fast.step(act, mu, k * DT, DT)
        want = ref.step(act, mu, k * DT, DT)
        assert_bit_identical(fast, ref, got, want)
