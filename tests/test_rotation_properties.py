"""Property tests of the tilt phase <-> quaternion kernels in `rotation.py`.

Needs Hypothesis (the `test` extra); skipped where it is not installed.
"""

import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as hs  # noqa: E402

from tiltphase.rotation import tilt_of_quat, tilt_quat  # noqa: E402

# Signed zeros, subnormal and tiny values, and every magnitude up to pi
_COMPONENT = hs.one_of(
    hs.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-300, 1e-160]),
    hs.floats(-math.pi, math.pi),
)


@settings(max_examples=500, deadline=None)
@given(px=_COMPONENT, py=_COMPONENT)
def test_tilt_round_trip(px, py):
    assume(math.hypot(px, py) < math.pi)
    got = tilt_of_quat(tilt_quat(px, py))
    # Absolute tolerance only: below ~1e-154 the squares in |p| underflow
    assert got == pytest.approx((px, py), rel=1e-12, abs=1e-14)


@settings(max_examples=500, deadline=None)
@given(px=_COMPONENT, py=_COMPONENT)
def test_tilt_quat_is_unit_pure_tilt(px, py):
    w, x, y, z = tilt_quat(px, py)
    assert z == 0.0
    assert math.sqrt(w * w + x * x + y * y) == pytest.approx(1.0, abs=1e-15)
