"""Property test of the plant's rest skip against the plain reference step.

Needs Hypothesis (the `test` extra); skipped where it is not installed.
"""

import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
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
        got = fast.step(act, mu, [force], k * DT, DT)
        want = ref.step(act, mu, [force], k * DT, DT)
        assert_bit_identical(fast, ref, got, want)
