import math
import random
import sys
from collections import deque
from fractions import Fraction

import numpy as np
import pytest
from reference import bits, wlbf_direct_sums

from tiltphase.filters import (
    BoundedIntegrator,
    HoldFilter,
    LowPassFilter,
    MeanFilter,
    SlopeLimiter,
    GRID_TOL,
    MAX_WLBF_SIZE,
    WlbfFilter,
    _SWAMP,
    _step_inside,
    _swamped,
    coerced_interp,
    ellipse_radius,
    hard_coerce2,
    on_grid,
    one_sided_deadband,
    smooth_deadband2,
    smooth_deadband_1d,
    smooth_deadband_mag,
    soft_coerce2,
    soft_coerce_1d,
    soft_coerce_mag,
)


# The generic n-dim paths that filters.py used to carry beside its 2D and
# scalar paths, kept as references for the paths that replaced them. They
# square x / a by multiplication, as the kernels do, so that each square is
# correctly rounded (`** 2` goes through libm `pow`), take a circle's
# radius as its semi-axis, and scale x first where a sum of squares is
# below the least normal float.


def generic_radius_along(x, semi_axes):
    if len(set(semi_axes)) == 1:
        return semi_axes[0]
    m2 = 0.0
    s = 0.0
    for xi, ai in zip(x, semi_axes):
        m2 += xi * xi
        q = xi / ai
        s += q * q
    if m2 < sys.float_info.min or s < sys.float_info.min:
        # Subnormal or vanishing squares: scale x by its largest component first
        u = max(abs(xi) for xi in x)
        if u == 0.0:
            return math.inf
        y = [xi / u for xi in x]
        return math.hypot(*y) / math.hypot(*(yi / ai for yi, ai in zip(y, semi_axes)))
    return math.sqrt(m2 / s)


def generic_soft_coerce_ellip(x, semi_axes, b):
    m = math.sqrt(sum(xi * xi for xi in x))
    if m == 0.0:
        return tuple(0.0 for _ in x)
    r = generic_radius_along(x, semi_axes)
    s = soft_coerce_mag(m, r, b)
    if s == m:
        return tuple(x)
    k = s / m
    y = [k * xi for xi in x]
    while sum((yi / ai) * (yi / ai) for yi, ai in zip(y, semi_axes)) > 1.0:
        y = [math.nextafter(yi, 0.0) for yi in y]
    return tuple(y)


def generic_smooth_deadband_ellip(x, semi_axes):
    m = math.sqrt(sum(xi * xi for xi in x))
    if m == 0.0:
        return tuple(0.0 for _ in x)
    r = generic_radius_along(x, semi_axes)
    d = smooth_deadband_mag(m, r)
    k = d / m
    return tuple(k * xi for xi in x)


class GenericMeanFilter:
    def __init__(self, dim, order):
        self.order = order
        self._buf = deque()
        self._sum = [0.0] * dim

    def step(self, x):
        buf = self._buf
        s = self._sum
        xs = tuple(float(v) for v in x)
        buf.append(xs)
        for i, v in enumerate(xs):
            s[i] += v
        if len(buf) > self.order:
            old = buf.popleft()
            for i, v in enumerate(old):
                s[i] -= v
        n = len(buf)
        return tuple(si / n for si in s)


class ReferenceIntegrator:
    """The 2D update of BoundedIntegrator before its generic path was deleted."""

    def __init__(self, semi_axes, buffer):
        self.semi_axes = semi_axes
        self.buffer = buffer
        self.value = (0.0,) * 2
        self._u_prev = (0.0,) * 2

    def step(self, u, dt):
        up = self._u_prev
        v = self.value
        h = 0.5 * dt
        a0, a1 = self.semi_axes
        self._u_prev = (float(u[0]), float(u[1]))
        self.value = soft_coerce2(
            v[0] + h * (u[0] + up[0]), v[1] + h * (u[1] + up[1]), a0, a1, self.buffer
        )
        return self.value


def ref_hard_coerce_ellip(x, semi_axes):
    """hard_coerce_ellip as it was before the scalar kernel was split out,
    squaring by multiplication as the kernel does."""
    x0, x1 = x
    m2 = x0 * x0 + x1 * x1
    if m2 == 0.0:
        return (0.0, 0.0)
    a0, a1 = semi_axes
    q0 = x0 / a0
    q1 = x1 / a1
    s = q0 * q0 + q1 * q1
    if s <= 1.0:
        return (x0, x1)
    k = 1.0 / math.sqrt(s)
    return (k * x0, k * x1)


# Signed zeros, subnormal, tiny and ordinary magnitudes
EDGE_VALUES = (
    0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-308, 1e-160, -3e-200, 1e-12,
    0.25, -0.7, 1.5, -3.0,
)


def wlbf_oracle(buf):
    """Independent weighted normal-equations solve of the WLBF regression:
    (slope, line value at the weighted mean time)."""
    n = len(buf)
    w = np.arange(1, n + 1, dtype=float)
    w = w / w.sum()
    t = np.array([b[0] for b in buf])
    x = np.array([b[1] for b in buf])
    A = np.stack([np.ones(n), t], axis=1)
    W = np.diag(w)
    beta = np.linalg.solve(A.T @ W @ A, A.T @ W @ x)
    tbar = float(w @ t)
    return beta[1], beta[0] + beta[1] * tbar


class TestEllipsoid:
    """Ellipse geometry of the 2D kernels: a far input hard-coerces onto the
    boundary, so the length of the result is the directional radius."""

    def test_validation(self):
        with pytest.raises(ValueError, match="two positive semi-axes"):
            BoundedIntegrator(1.0, -0.5, 0.1)
        with pytest.raises(ValueError, match="two positive semi-axes"):
            BoundedIntegrator(0.0, 1.0, 0.1)

    def test_principal_axis_radius(self):
        assert hard_coerce2(10.0, 0.0, 2.0, 0.5) == pytest.approx((2.0, 0.0))
        assert hard_coerce2(0.0, -3.0, 2.0, 0.5) == pytest.approx((0.0, -0.5))

    def test_off_axis_radius_below_max(self):
        rng = random.Random(3)
        for _ in range(1000):
            a = (rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0))
            ang = rng.uniform(0.05, math.pi / 2 - 0.05)
            r = math.hypot(*hard_coerce2(10.0 * math.cos(ang), 10.0 * math.sin(ang), *a))
            if abs(a[0] - a[1]) > 1e-9:
                assert r < max(a)
            assert r >= min(a) - 1e-12

    def test_radius_where_squares_overflow_or_vanish(self):
        # The kernel agrees with the generic reference where its plain
        # formula works...
        rng = random.Random(4)
        for _ in range(1000):
            a = (rng.uniform(0.01, 3.0), rng.uniform(0.01, 3.0))
            x = (rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
            want = generic_radius_along(x, a)
            assert ellipse_radius(*x, *a) == pytest.approx(want, rel=1e-14)
        # ...and scales x first where (x / a) ** 2 overflows or the squares vanish
        r = ellipse_radius(1.0, 1.0, 1e-200, 1.0)
        assert r == pytest.approx(math.sqrt(2.0) * 1e-200, rel=1e-14)
        assert ellipse_radius(1.0, -1.0, 1e300, 1e300) == pytest.approx(1e300, rel=1e-14)
        assert ellipse_radius(1e-200, 0.0, 1e300, 1e300) == pytest.approx(1e300, rel=1e-14)
        # Both squares underflow to 0.0: the radius along the long axis
        assert ellipse_radius(0.0, 1e-200, 1e-3, 2.5) == pytest.approx(2.5, rel=1e-14)
        assert ellipse_radius(1e-170, -1e-170, 0.3, 0.3) == pytest.approx(0.3, rel=1e-14)
        # x's squares overflow: inf or nan from the plain formula, not returned
        assert ellipse_radius(1e160, 1e160, 0.15, 0.2) == pytest.approx(
            math.sqrt(2.0) / math.hypot(1.0 / 0.15, 1.0 / 0.2), rel=1e-14)
        r = ellipse_radius(-1.7e308, 1.7e308, 3.0, 4.0)
        assert r == pytest.approx(12.0 * math.sqrt(2.0) / 5.0, rel=1e-14)
        # In the kernels: far past the deadband, |output| = |x| - r
        y = smooth_deadband2(1.0, 1.0, 1e-200, 1.0)
        assert math.hypot(*y) == pytest.approx(math.sqrt(2.0), rel=1e-14)

    @pytest.mark.parametrize("x0, want", [(5e-324, 10.0), (1e-320, 10.0), (-2.5e-310, 10.0)])
    def test_radius_where_ratios_are_subnormal(self, x0, want):
        # x / a is subnormal or underflows to 0; scaling x first keeps the digits
        assert ellipse_radius(x0, 0.0, 10.0, 1.0) == pytest.approx(want, rel=1e-15)
        assert ellipse_radius(0.0, x0, 1.0, 10.0) == pytest.approx(want, rel=1e-15)


# A point on the unit circle as the kernels compute it: Q * Q + Y * Y is 1.0
# with products, and 1 + 2**-52 with Q ** 2 where libm `pow` rounds it up
BOUNDARY_Q = float.fromhex("0x1.97239c4p-1")
BOUNDARY_Y = float.fromhex("0x1.3674402d7e45cp-1")


class TestExactSquares:
    """The kernels square x / a by multiplication, which rounds once; libm
    `pow`, behind `** 2`, may round up, which moves a point on the boundary."""

    def test_product_is_the_rounded_square(self):
        q = BOUNDARY_Q
        assert (q * q).hex() == "0x1.43c11fe3cc6f0p-1" == float(Fraction(q) ** 2).hex()
        # glibc's pow gives 0x1.43c11fe3cc6f1p-1, one ulp above
        assert (q ** 2).hex() in ("0x1.43c11fe3cc6f0p-1", "0x1.43c11fe3cc6f1p-1")

    def test_kernels_on_the_boundary(self):
        # (q, y / 2) on the ellipse with semi-axes (1, 1/2): y / 2 / (1/2) is
        # y exactly, so the squares sum to 1.0 and the directional radius is
        # exactly the norm m
        q, y = BOUNDARY_Q, 0.5 * BOUNDARY_Y
        assert (q / 1.0) * (q / 1.0) + (y / 0.5) * (y / 0.5) == 1.0
        assert hard_coerce2(q, y, 1.0, 0.5) == (q, y)
        assert _step_inside(q, y, 1.0, 0.5) == (q, y)
        m = math.sqrt(q * q + y * y)
        k = soft_coerce_mag(m, m, 0.2) / m
        assert soft_coerce2(q, y, 1.0, 0.5, 0.2) == (k * q, k * y)
        k = smooth_deadband_mag(m, m) / m
        assert smooth_deadband2(q, y, 1.0, 0.5) == (k * q, k * y)

    @pytest.mark.parametrize("x", [(0.013, 0.021), (1.1, -0.3), (0.7, 0.7)])
    def test_circle_radius_is_its_semi_axis(self, x):
        # Along these x the ellipse formula rounds a circle's radius off 0.02
        m = math.hypot(*x)
        k = smooth_deadband_mag(m, 0.02) / m
        assert smooth_deadband2(*x, 0.02, 0.02) == (k * x[0], k * x[1])
        k = soft_coerce_mag(m, 0.02, 0.005) / m
        assert soft_coerce2(*x, 0.02, 0.02, 0.005) == _step_inside(k * x[0], k * x[1], 0.02, 0.02)


class TestSoftCoerce:
    def test_identity_inside(self):
        x = (0.3, 0.4)  # |x| = 0.5 <= 1 - 0.2
        assert soft_coerce2(*x, 1.0, 1.0, 0.2) == x

    def test_1d_direct_value(self):
        # r=1, b=0.2, m=1 -> 1 - 0.2*e^{-1}
        got = soft_coerce_1d(1.0, 1.0, 0.2)
        assert got == pytest.approx(1.0 - 0.2 * math.exp(-1.0), abs=1e-12)
        assert soft_coerce_1d(-1.0, 1.0, 0.2) == pytest.approx(-got)

    def test_asymptote(self):
        prev = 0.0
        for m in (1.0, 2.0, 3.0, 5.0):
            y = soft_coerce_1d(m, 1.0, 0.2)
            assert prev < y < 1.0
            assert soft_coerce_1d(-m, 1.0, 0.2) == -y
            prev = y
        # Far field: approaches the limit without reaching it
        for m in (100.0, 1e6, 1e9, 1e300):
            y = soft_coerce_1d(m, 1.0, 0.2)
            assert y < 1.0
            assert y == pytest.approx(1.0, abs=1e-9)

    def test_zero_maps_to_zero(self):
        assert soft_coerce2(0.0, 0.0, 1.0, 2.0, 0.1) == (0.0, 0.0)

    def test_direction_preserved_and_inside(self):
        rng = random.Random(17)
        for _ in range(10_000):
            a = (rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0))
            b = rng.uniform(0.01, 0.9 * min(a))
            x = (rng.uniform(-6, 6), rng.uniform(-6, 6))
            y = soft_coerce2(*x, *a, b)
            my = math.hypot(*y)
            mx = math.hypot(*x)
            r = generic_radius_along(x, a) if mx > 0 else min(a)
            assert my < r + 1e-12
            if mx > 1e-12 and my > 1e-12:
                assert math.atan2(x[1], x[0]) == pytest.approx(
                    math.atan2(y[1], y[0]), abs=1e-12
                )

    def test_radially_monotone(self):
        rng = random.Random(23)
        for _ in range(2000):
            r = rng.uniform(0.3, 2.0)
            b = rng.uniform(0.05, 0.9 * r)
            m1 = rng.uniform(0, 5)
            m2 = m1 + rng.uniform(0, 3)
            y1 = soft_coerce_1d(m1, r, b)
            y2 = soft_coerce_1d(m2, r, b)
            assert y1 <= y2 + 1e-14

    def test_c1_junction(self):
        # Central finite differences across the knee m = r - b.
        r, b = 1.0, 0.2
        h = 1e-6
        for m in (r - b - 5e-7, r - b, r - b + 5e-7):
            lo = soft_coerce_1d(m - h, r, b)
            hi = soft_coerce_1d(m + h, r, b)
            d = (hi - lo) / (2 * h)
            # Slope is 1 just inside, exp(-(m-knee)/b) just outside.
            expect = 1.0 if m <= r - b else math.exp(-(m - (r - b)) / b)
            assert abs(d - expect) < 1e-4

    @pytest.mark.parametrize("x, a, b", [
        ((3e200, 1e200), (0.5, 0.5), 0.3),
        ((-1.1, -9.2e298), (0.5, 1e300), 0.3),
        ((1.7e308, -1.7e308), (1e-3, 1e3), 1e-4),
    ])
    def test_overflowing_norm_saturates_along_the_ray(self, x, a, b):
        # x0**2 + x1**2 overflows; the output still lies on the input ray,
        # saturated just inside the ellipse
        y = soft_coerce2(*x, *a, b)
        ratio = (y[0] / a[0]) ** 2 + (y[1] / a[1]) ** 2
        assert 1.0 - 1e-12 < ratio <= 1.0
        assert math.atan2(y[1], y[0]) == pytest.approx(math.atan2(x[1], x[0]), abs=1e-12)

    def test_hard_coerce(self):
        assert hard_coerce2(0.2, 0.1, 1.0, 0.5) == (0.2, 0.1)
        y = hard_coerce2(0.0, 2.0, 1.0, 0.5)
        assert y == pytest.approx((0.0, 0.5))

    @pytest.mark.parametrize("x, a", [
        ((0.01, 0.003), (1e-300, 0.05)),
        ((-0.2, 0.1), (1e-300, 1e-300)),
        ((1e200, -1e200), (1.0, 1.0)),
    ])
    def test_hard_coerce_where_squares_overflow(self, x, a):
        # (x / a) ** 2 overflows: clamped onto the ellipse along the input ray
        y = hard_coerce2(*x, *a)
        ratio = (y[0] / a[0]) ** 2 + (y[1] / a[1]) ** 2
        assert 1.0 - 1e-12 < ratio <= 1.0
        assert math.atan2(y[1], y[0]) == pytest.approx(math.atan2(x[1], x[0]), abs=1e-12)


class TestSmoothDeadband:
    def test_zero(self):
        assert smooth_deadband2(0.0, 0.0, 1.0, 1.0) == (0.0, 0.0)

    def test_junction_value(self):
        # 1D, r=1, x=2: both branches give 1.
        assert smooth_deadband_1d(2.0, 1.0) == pytest.approx(1.0)

    def test_far_field(self):
        assert smooth_deadband_1d(10.0, 1.0) == pytest.approx(9.0)
        assert smooth_deadband_1d(-10.0, 1.0) == pytest.approx(-9.0)

    def test_near_zero_quadratic_bound(self):
        r = 0.5
        for m in (1e-4, 1e-3, 0.01, 0.1):
            d = smooth_deadband_1d(m, r)
            assert 0.0 < d <= m * m / (4 * r) + 1e-15

    def test_c1_junction(self):
        r = 0.7
        h = 1e-6
        for m in (2 * r - 5e-7, 2 * r, 2 * r + 5e-7):
            d = (smooth_deadband_1d(m + h, r) - smooth_deadband_1d(m - h, r)) / (2 * h)
            assert abs(d - min(m / (2 * r), 1.0)) < 1e-4

    def test_far_field_offset_along_direction(self):
        rng = random.Random(31)
        for _ in range(1000):
            a = (rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0))
            ang = rng.uniform(-math.pi, math.pi)
            u = (math.cos(ang), math.sin(ang))
            r = generic_radius_along(u, a)
            m = 2 * r + rng.uniform(0.1, 5.0)
            x = (m * u[0], m * u[1])
            y = smooth_deadband2(*x, *a)
            assert math.hypot(*y) == pytest.approx(m - r, abs=1e-12)
            assert math.atan2(y[1], y[0]) == pytest.approx(ang, abs=1e-12)

    def test_one_sided(self):
        assert one_sided_deadband(0.5, 1.0, 0.2) == 0.0
        assert one_sided_deadband(1.0, 1.0, 0.2) == 0.0
        u = 0.1  # below 2r: quadratic
        assert one_sided_deadband(1.0 + u, 1.0, 0.2) == pytest.approx(u * u / 0.8)
        assert one_sided_deadband(3.0, 1.0, 0.2) == pytest.approx(2.0 - 0.2)


class TestScalar2dKernels:
    def test_match_generic_path(self):
        # A 3D input with a zero third component, through the generic n-dim
        # reference, must reshape the first two components the same way.
        rng = random.Random(17)
        for _ in range(2000):
            a0, a1 = rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)
            b = rng.uniform(0.01, 0.99) * min(a0, a1)
            scale = 10.0 ** rng.uniform(-3.0, 1.0)
            x0, x1 = rng.gauss(0.0, scale), rng.gauss(0.0, scale)
            axes3 = (a0, a1, 1.0)
            soft = soft_coerce2(x0, x1, a0, a1, b)
            want = generic_soft_coerce_ellip((x0, x1, 0.0), axes3, b)[:2]
            assert soft == pytest.approx(want, abs=1e-12)
            db = smooth_deadband2(x0, x1, a0, a1)
            want = generic_smooth_deadband_ellip((x0, x1, 0.0), axes3)[:2]
            assert db == pytest.approx(want, abs=1e-12)

    def test_zero_vector(self):
        assert soft_coerce2(0.0, 0.0, 1.0, 2.0, 0.1) == (0.0, 0.0)
        assert smooth_deadband2(0.0, 0.0, 1.0, 2.0) == (0.0, 0.0)


class TestCoercedInterp:
    def test_endpoints_and_midpoint(self):
        assert coerced_interp(0.0, 0.0, 1.0, 5.0, 7.0) == 5.0
        assert coerced_interp(0.5, 0.0, 1.0, 5.0, 7.0) == pytest.approx(6.0)
        assert coerced_interp(1.0, 0.0, 1.0, 5.0, 7.0) == 7.0

    def test_no_extrapolation(self):
        assert coerced_interp(99.0, 0.0, 1.0, 5.0, 7.0) == 7.0
        assert coerced_interp(-99.0, 0.0, 1.0, 5.0, 7.0) == 5.0

    def test_reversed_and_degenerate(self):
        # x beyond x0 in a reversed interval clamps to (x0, y0)
        assert coerced_interp(5.0, 1.0, 0.0, 7.0, 5.0) == 7.0
        assert coerced_interp(-5.0, 1.0, 0.0, 7.0, 5.0) == 5.0
        assert coerced_interp(3.0, 2.0, 2.0, 1.0, 9.0) == 1.0


class TestMeanFilter:
    def test_constant(self):
        f = MeanFilter(4)
        for _ in range(10):
            assert f.step((3.0, -1.0)) == pytest.approx((3.0, -1.0))

    def test_order_two(self):
        f = MeanFilter(2)
        assert f.step((0.0, 1.0)) == (0.0, 1.0)
        assert f.step((1.0, 3.0)) == (0.5, 2.0)
        assert f.step((2.0, 3.0)) == (1.5, 3.0)
        with pytest.raises(ValueError, match="order >= 1"):
            MeanFilter(0)

    def test_dimension_mismatch(self):
        f = MeanFilter(3)
        with pytest.raises(ValueError):
            f.step((1.0,))
        with pytest.raises(ValueError):
            f.step((1.0, 2.0, 3.0))

    def test_brute_force_oracle(self):
        rng = random.Random(41)
        f = MeanFilter(7)
        hist = []
        for _ in range(200):
            x = (rng.uniform(-5, 5), rng.uniform(-5, 5))
            hist.append(x)
            got = f.step(x)
            assert len(got) == 2
            want = np.mean(np.array(hist[-7:]), axis=0)
            assert np.allclose(got, want, atol=1e-12)


class TestWlbf:
    def test_exact_line(self):
        f = WlbfFilter(1, 6, 0.1)
        for k in range(6):
            t = 0.1 * k
            slope, mean = f.step(t, (2.0 * t + 1.0,))
        assert slope[0] == pytest.approx(2.0, abs=1e-9)
        # The weighted mean time of times 0.1 k with weights k + 1
        tbar = sum((k + 1) * 0.1 * k for k in range(6)) / 21
        assert mean[0] == pytest.approx(2.0 * tbar + 1.0, abs=1e-9)
        # The line value at the latest time t = 0.5 is mean + slope (t - t̄)
        assert mean[0] + slope[0] * (0.5 - tbar) == pytest.approx(2.0 * 0.5 + 1.0, abs=1e-9)

    def test_constant_gives_zero_slope(self):
        f = WlbfFilter(2, 5, 0.01)
        for k in range(5):
            slope, mean = f.step(0.01 * k, (4.0, -2.0))
        assert slope == pytest.approx((0.0, 0.0), abs=1e-9)
        assert mean == pytest.approx((4.0, -2.0), abs=1e-9)

    def test_single_sample(self):
        f = WlbfFilter(1, 4, 0.01)
        slope, mean = f.step(0.0, (7.0,))
        assert slope == (0.0,)
        assert mean == (7.0,)

    @pytest.mark.parametrize("dim", [0, 3])
    def test_scalar_or_2d_only(self, dim):
        with pytest.raises(ValueError, match="dim 1 or 2"):
            WlbfFilter(dim, 4, 0.01)

    @pytest.mark.parametrize("capacity", [0, MAX_WLBF_SIZE + 1, 10 ** 7])
    def test_window_size_bounded(self, capacity):
        # Refused before the fit constants, a sum over the window, are built
        with pytest.raises(ValueError, match=rf"capacity in \[1, {MAX_WLBF_SIZE}\]"):
            WlbfFilter(1, capacity, 0.01)
        assert WlbfFilter(2, MAX_WLBF_SIZE, 0.01).capacity == MAX_WLBF_SIZE

    @pytest.mark.parametrize("dim", [1, 2])
    def test_time_gaps_beyond_float_range_give_no_slope(self, dim):
        # The moments of gaps near 1e300 overflow; the mean stays the latest
        f = WlbfFilter(dim, 4, 0.01)
        for k in range(1, 6):
            slope, mean = f.step(1e300 * k, (0.5 * k,) * dim)
            assert mean == (0.5 * k,) * dim
            assert slope == (0.0,) * dim

    def test_rejects_non_increasing_time(self):
        f = WlbfFilter(1, 4, 0.01)
        f.step(1.0, (0.0,))
        with pytest.raises(ValueError):
            f.step(1.0, (0.0,))

    def test_normal_equations_oracle(self):
        rng = random.Random(59)
        for trial in range(300):
            cap = rng.randint(2, 12)
            f = WlbfFilter(1, cap, 0.01)
            t = 0.0
            hist = []
            for _ in range(rng.randint(2, 25)):
                t += rng.uniform(0.001, 0.1)
                x = rng.uniform(-3, 3)
                hist.append((t, x))
                slope, mean = f.step(t, (x,))
            os_, omean = wlbf_oracle(hist[-cap:])
            assert slope[0] == pytest.approx(os_, abs=1e-9)
            assert mean[0] == pytest.approx(omean, abs=1e-9)


class TestWlbfGrid:
    """The running-moment path on the control grid, and the direct sums it
    falls back to. A filter keeps its fit (`_fit`) exactly after a step on
    the grid path, which tells the paths apart."""

    DT = 0.01

    def run(self, dim, cap, times, dt=DT, seed=3):
        """Step a filter over times; (output, took the grid path, window) per step."""
        rng = random.Random(seed)
        f = WlbfFilter(dim, cap, dt)
        hist, steps = [], []
        for t in times:
            x = tuple(rng.uniform(-1.0, 1.0) for _ in range(dim))
            hist.append((t, x))
            out = f.step(t, x)
            steps.append((out, f._fit is not None, list(hist[-cap:])))
        return steps

    @staticmethod
    def assert_matches_oracle(out, window, tol):
        # The oracle's times shifted so the newest is 0: the same line, and
        # well conditioned normal equations
        t_last = window[-1][0]
        for i, got in enumerate(zip(*out)):
            if len(window) < 2:
                want = (0.0, window[0][1][i])
            else:
                want = wlbf_oracle([(t - t_last, x[i]) for t, x in window])
            for g, w in zip(got, want):
                assert abs(g - w) <= tol * max(1.0, abs(w)), (got, want)

    @pytest.mark.parametrize("dt", [DT, 2.0 ** -7])
    @pytest.mark.parametrize("dim, cap", [(1, 10), (2, 8), (1, 2), (2, 25)])
    def test_grid_path_matches_oracle(self, dim, cap, dt):
        # k * 0.01 is on the grid up to the rounding of each timestamp, and
        # k * 2**-7 exactly
        steps = self.run(dim, cap, [k * dt for k in range(1, 150)], dt)
        for k, (out, grid, window) in enumerate(steps, start=1):
            assert grid == (k >= cap)
            self.assert_matches_oracle(out, window, 1e-12)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_warm_up_takes_direct_sums(self, dim):
        cap = 10
        steps = self.run(dim, cap, [5.0 + k * self.DT for k in range(cap + 3)])
        assert [grid for _, grid, _ in steps] == [False] * (cap - 1) + [True] * 4

    @pytest.mark.parametrize("dim, cap", [(1, 10), (2, 8), (2, 2)])
    def test_off_grid_gap_takes_direct_sums_until_it_leaves(self, dim, cap):
        # One 13 ms gap after 30 on-grid steps: that step and the next
        # cap - 2, whose windows hold the gap, take the direct sums
        times = [k * self.DT for k in range(1, 31)]
        times += [times[-1] + 0.013 + k * self.DT for k in range(40)]
        steps = self.run(dim, cap, times)
        grid = [g for _, g, _ in steps]
        assert grid == (
            [False] * (cap - 1) + [True] * (31 - cap)
            + [False] * (cap - 1) + [True] * (41 - cap)
        )
        for out, _, window in steps:
            self.assert_matches_oracle(out, window, 1e-9)

    def test_gap_within_tolerance_is_on_grid(self):
        dt = self.DT
        assert on_grid(dt, dt)
        assert on_grid(dt * (1.0 + GRID_TOL), dt)
        assert on_grid(dt * (1.0 - GRID_TOL), dt)
        assert not on_grid(dt * (1.0 + 2.0 * GRID_TOL), dt)
        assert not on_grid(100.0, dt)
        assert not on_grid(math.nan, dt)


class TestWlbfMoments:
    """The grid path's running moments: their drift over a long run, and
    moments that overflow."""

    @pytest.mark.parametrize("dim, cap", [(1, 10), (2, 8)])
    def test_long_run_stays_on_the_oracle(self, dim, cap):
        # 10^5 steps of values offset by 1e3, held for 500 steps and shifted
        # off the grid once halfway: every 7th fit is within 1e-12 of the
        # oracle's, relative to the window's largest value (per cycle_dt for
        # the slope). Without the re-sums the slope drifts to 5e-8 (dim 1)
        # and 5e-6 (dim 2).
        dt = 0.01
        rng = random.Random(7)
        f = WlbfFilter(dim, cap, dt)
        window = deque(maxlen=cap)
        grid = 0
        for k in range(1, 100_001):
            t = k * dt + (0.013 if k > 50_000 else 0.0)
            if not 30_000 <= k < 30_500:
                x = tuple(1e3 + rng.uniform(-1.0, 1.0) for _ in range(dim))
            window.append((t, x))
            slope, mean = f.step(t, x)
            grid += f._fit is not None
            if k % 7:
                continue
            for i in range(dim):
                scale = max(abs(v[i]) for _, v in window)
                want = wlbf_oracle([(tk - t, v[i]) for tk, v in window])
                assert abs(slope[i] - want[0]) <= 1e-12 * scale / dt, k
                assert abs(mean[i] - want[1]) <= 1e-12 * scale, k
        assert grid == 100_000 - 2 * (cap - 1)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("big", [1e306, 4e305, 1e300])
    def test_overflowing_moments_take_the_direct_sums(self, dim, big):
        # At 1e306, T2 = sum k^2 x_k overflows; at 4e305 T2 is finite but
        # 9 T2 overflows. Such steps take the direct sums, which stay finite,
        # and the moments in state stay finite. At 1e300 nothing overflows,
        # but the small values that follow are lost in its sums until they
        # are summed afresh: the held 0.25 still gets its exact fit
        f = WlbfFilter(dim, 10, 0.01)
        values = [0.5] * 30 + [big] * 30 + [0.5 * big] * 5 + [big] * 5 + [0.25] * 30
        for k, v in enumerate(values, start=1):
            out = f.step(0.01 * k, (v,) * dim)
            assert all(math.isfinite(c) for part in out for c in part), k
            assert all(map(math.isfinite, f._mom)), k
            if k == 45:
                assert (f._fit is None) == (big > 1e305)
        assert f._fit is not None
        assert out == ((0.0,) * dim, (0.25,) * dim)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("x", [
        lambda k: -1e308,
        lambda k: 1e308 if k < 5 else 0.0,
        lambda k: (-1e308, 1e308)[k % 2],
        lambda k: (-sys.float_info.max, sys.float_info.max)[k % 2],
    ], ids=["constant", "step", "alternating", "alternating-largest"])
    def test_overflowing_direct_sums_refit_scaled(self, dim, x):
        # The direct sums of these windows overflow; each is refit at a
        # power of two scale and stays finite, a slope beyond the float
        # range held at the largest float. A constant's mean is the constant.
        constant = len({x(k) for k in range(1, 31)}) == 1
        f = WlbfFilter(dim, 10, 0.01)
        for k in range(1, 31):
            slope, mean = f.step(0.01 * k, (x(k),) * dim)
            assert all(map(math.isfinite, slope + mean)), k
            assert all(abs(m) <= abs(x(1)) for m in mean), k
            if constant:
                assert all(abs(m - x(1)) <= 4 * math.ulp(x(1)) for m in mean), k

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("at", range(30, 40))
    def test_a_leaving_spike_leaves_no_rounding(self, dim, at):
        # A 1e300 spike among uniform(-1, 1) values swamps the other values
        # in the moments: each of the 9 fits after it leaves the window,
        # before the next scheduled re-sum, is that of freshly summed
        # moments. Spikes at 10 successive steps meet every phase of the
        # re-sum schedule; only the first axis spikes.
        cap, dt = 10, 0.01
        rng = random.Random(at)
        xs = [tuple(rng.uniform(-1.0, 1.0) for _ in range(dim)) for _ in range(at + 2 * cap)]
        xs[at] = (1e300,) + xs[at][1:]
        f = WlbfFilter(dim, cap, dt)
        for k, x in enumerate(xs):
            fit = f.step(dt * (k + 1), x)
            if at + cap <= k < at + 2 * cap - 1:
                fresh = WlbfFilter(dim, cap, dt)
                for j in range(k - cap + 1, k + 1):
                    want = fresh.step(dt * (j + 1), xs[j])
                for got_part, want_part in zip(fit, want):
                    assert got_part == pytest.approx(want_part, rel=1e-12, abs=1e-12), k

    def test_swamped_screen_passes_every_swamped_window(self):
        # `_swamped` scans only windows whose moments pass its screen: each
        # window of 2 to 64 values with one value just above _SWAMP times
        # the sum of the others' magnitudes, anywhere and of either sign,
        # passes it and is found; one just below is not
        def swamped(values):
            u0 = u1 = u2 = k = 0.0
            for v in values:
                k += 1.0
                u0, u1, u2 = u0 + v, u1 + k * v, u2 + k * k * v
            return _swamped([(0.0, v) for v in values], 1, u0, u1, u2, k * k)

        rng = random.Random(11)
        for case in range(3000):
            n = rng.randrange(2, 65)
            values = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randrange(-3, 4) for _ in range(n)]
            p = rng.randrange(n)
            values[p] = 0.0
            big = rng.choice((-1.0, 1.0)) * _SWAMP * math.fsum(abs(v) for v in values)
            values[p] = big * (1.0 + rng.choice((1e-12, 1e-6, 1.0, 1e10)))
            assert swamped(values), case
            values[p] = big * (1.0 - 1e-12)
            assert not swamped(values), case


class TestWlbfHeldWindow:
    """A full window on the grid that holds one value, bit for bit, returns
    the previous fit; checked against a twin whose repeat count is cleared
    before every step, so it always sums."""

    @staticmethod
    def stream(dim):
        """(t, x): a held value, a change, the new value held across an
        off-grid gap, signed zeros that alternate and then hold, and equal
        values given as new float objects; in 2D, also a stretch where only
        the first axis holds."""
        dt = 0.01
        held = [0.25, 0.25, -1.5, -1.5, 0.0, -0.0, -0.0, 7.0]
        runs = [30, 12, 1, 25, 3, 1, 20, 15]
        t = 0.0
        for k, (value, n) in enumerate(zip(held, runs)):
            for _ in range(n):
                # An off-grid gap inside the held -1.5
                t += 0.013 if (k == 3 and _ == 4) else dt
                v = float(repr(value)) if k == 7 else value
                if dim == 1:
                    yield t, (v,)
                else:
                    # The second axis moves while the first holds
                    yield t, (v, v + 0.5 * (_ % 2) if k == 1 else v)

    @pytest.mark.parametrize("dim, cap", [(1, 10), (2, 8), (1, 1)])
    def test_reuse_matches_a_filter_without_it(self, dim, cap):
        f = WlbfFilter(dim, cap, 0.01)
        plain = WlbfFilter(dim, cap, 0.01)
        reused = 0
        for t, x in self.stream(dim):
            prev = f._fit
            plain._fit = None
            got = f.step(t, x)
            assert bits(got) == bits(plain.step(t, x)), t
            reused += got is prev
        assert reused > 40

    def test_signed_zero_breaks_the_run(self):
        f = WlbfFilter(1, 3, 0.01)
        for k, v in enumerate((0.0, 0.0, 0.0, 0.0, -0.0, -0.0)):
            f.step(0.01 * (k + 1), (v,))
        assert f._run == 1


def direct_sums_or_scaled(window):
    """(slope, mean) of `wlbf_direct_sums` over the window; where that fit
    is not finite but the values are, the fit of the window divided by the
    power of two c that puts its largest magnitude in [1, 2), times c and
    held within the float range."""
    fit = wlbf_direct_sums(list(window))[1:]
    big = max(abs(v) for r in window for v in r[1:])
    if all(map(math.isfinite, fit[0] + fit[1])) or not big < math.inf:
        return fit
    c = 2.0 ** (math.frexp(big)[1] - 1)
    fit = wlbf_direct_sums([(r[0], *(v / c for v in r[1:])) for r in window])[1:]
    top = sys.float_info.max
    return tuple(tuple(max(-top, min(v * c, top)) for v in part) for part in fit)


class TestWlbfDirectOracle:
    """The direct path, one pass over the times and one per axis, against
    `wlbf_direct_sums`, the same sums written out once per dimension: every
    step that takes it (`_fit` is None after it) returns that slope and mean
    bit for bit, or, where they overflow, those of the window scaled by a
    power of two. The line value the oracle also returns is mean - slope t̄,
    with t̄ measured from the newest time."""

    @staticmethod
    def value(rng):
        c = rng.random()
        if c < 0.6:
            return rng.uniform(-1.0, 1.0)
        if c < 0.7:
            return rng.choice((0.0, -0.0))
        if c < 0.8:
            # Moments, slopes or sums that overflow
            return rng.choice((1e300, -1e300, 1e306, -4e305, 1.7e308))
        if c < 0.85:
            return rng.choice((5e-324, -2.5e-310))
        return 1e3 + rng.uniform(-1.0, 1.0)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("seed", range(6))
    def test_direct_path_matches_bit_for_bit(self, dim, seed):
        # Warm-up after each refill, gaps on the grid, within its tolerance
        # and off it, held values and values that overflow the moments
        rng = random.Random(seed)
        cap = (2, 5, 10, 3, 17, 8)[seed]
        dt = 0.01
        f = WlbfFilter(dim, cap, dt)
        window = deque(maxlen=cap)
        t = 1.7e9 if seed % 2 else 0.0
        x = (0.5,) * dim
        direct = 0
        for k in range(600):
            r = rng.random()
            t += dt if r < 0.8 else dt * (1.0 + 5e-5) if r < 0.9 else rng.uniform(0.001, 0.05)
            if rng.random() < 0.6:
                x = tuple(self.value(rng) for _ in range(dim))
            window.append((t,) + x)
            got = f.step(t, x)
            if f._fit is None:
                direct += 1
                assert bits(got) == bits(direct_sums_or_scaled(window)), k
        assert direct > 50, direct

    @pytest.mark.parametrize("dim", [1, 2])
    def test_overflowing_times_match_bit_for_bit(self, dim):
        # Gaps near 1e300 overflow the time moments: no slope, the latest mean
        f = WlbfFilter(dim, 4, 0.01)
        window = deque(maxlen=4)
        for k in range(1, 9):
            x = (0.5 * k, -0.0)[:dim]
            window.append((1e300 * k,) + x)
            got = f.step(1e300 * k, x)
            assert bits(got) == bits(wlbf_direct_sums(list(window))[1:])
            assert bits(got) == bits(((0.0,) * dim, x))


class TestBoundedIntegrator:
    def test_zero_input(self):
        bi = BoundedIntegrator(1.0, 1.0, 0.1)
        for _ in range(50):
            assert bi.step((0.0, 0.0), 0.01) == (0.0, 0.0)

    def test_linear_ramp_inside(self):
        bi = BoundedIntegrator(1.0, 1.0, 0.1)
        u = (0.5, 0.2)
        dt = 0.01
        y = (0.0, 0.0)
        # Trapezoid with first sample 0: exact sums
        sx = 0.0
        sy = 0.0
        up = (0.0, 0.0)
        for _ in range(60):
            y = bi.step(u, dt)
            sx += 0.5 * dt * (u[0] + up[0])
            sy += 0.5 * dt * (u[1] + up[1])
            up = u
        assert y == pytest.approx((sx, sy), abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            BoundedIntegrator(1.0, 0.2, 0.3)

    def test_anti_windup(self):
        # Saturate with constant +u, flip sign: once the reversed input is in
        # effect, the very next step moves inward by at least 0.95*dt*|u|.
        bi = BoundedIntegrator(1.0, 1.0, 0.1)
        u = (2.0, 0.0)
        dt = 0.01
        for _ in range(2000):
            bi.step(u, dt)
        y_sat = bi.value
        assert math.hypot(*y_sat) > 0.9
        bi.step((-u[0], 0.0), dt)  # transition step: trapezoid pair averages to 0
        y0 = bi.value
        y1 = bi.step((-u[0], 0.0), dt)
        moved = math.hypot(*y0) - math.hypot(*y1)
        assert moved >= 0.95 * dt * u[0]

    def test_never_leaves_coercion_image(self):
        rng = random.Random(71)
        bi = BoundedIntegrator(0.8, 1.2, 0.15)
        for _ in range(100_000):
            u = (rng.uniform(-50, 50), rng.uniform(-50, 50))
            y = bi.step(u, 0.01)
            r = generic_radius_along(y, (bi.a0, bi.a1)) if math.hypot(*y) > 0 else 1.0
            assert math.hypot(*y) < r


class TestBitExactPaths:
    """The scalar and 2D paths against the generic code they replaced, by IEEE bytes."""

    @pytest.mark.parametrize("order", range(1, 13))
    def test_scalar_mean_filter(self, order):
        """Each component of the 2D filter is the scalar moving mean of its
        stream, bit for bit."""
        rng = random.Random(order)
        f = MeanFilter(order)
        refs = (GenericMeanFilter(1, order), GenericMeanFilter(1, order))
        for _ in range(4 * order + 40):
            x = tuple(
                rng.choice(EDGE_VALUES) if rng.random() < 0.5 else rng.uniform(-5.0, 5.0)
                for _ in range(2)
            )
            want = tuple(ref.step((xi,))[0] for ref, xi in zip(refs, x))
            assert bits(f.step(x)) == bits(want)
        assert bits((f._s0, f._s1)) == bits(tuple(ref._sum[0] for ref in refs))

    def test_radius_along(self):
        """The directional radius inside the 2D kernels, by the bits of their
        outputs against the generic references."""
        rng = random.Random(5)
        axes = (1e-3, 0.05, 0.3, 1.0, 2.5)
        for _ in range(20_000):
            a = (rng.choice(axes), rng.choice(axes))
            x = tuple(
                rng.choice(EDGE_VALUES) if rng.random() < 0.5 else rng.gauss(0.0, 2.0)
                for _ in range(2)
            )
            b = 0.5 * min(a)
            assert bits(smooth_deadband2(*x, *a)) == bits(generic_smooth_deadband_ellip(x, a))
            assert bits(soft_coerce2(*x, *a, b)) == bits(generic_soft_coerce_ellip(x, a, b))

    def test_hard_coerce2(self):
        rng = random.Random(23)
        axes = (1e-3, 0.05, 0.3, 1.0, 2.5)
        for _ in range(20_000):
            a = (rng.choice(axes), rng.choice(axes))
            x = tuple(
                rng.choice(EDGE_VALUES) if rng.random() < 0.5 else rng.gauss(0.0, 2.0)
                for _ in range(2)
            )
            assert bits(hard_coerce2(*x, *a)) == bits(ref_hard_coerce_ellip(x, a))

    @pytest.mark.parametrize("semi_axes, buffer", [((1.0, 1.0), 0.1), ((0.08, 0.12), 0.02)])
    def test_bounded_integrator(self, semi_axes, buffer):
        rng = random.Random(11)
        bi = BoundedIntegrator(*semi_axes, buffer)
        ref = ReferenceIntegrator(semi_axes, buffer)
        assert bits(bi.value) == bits(ref.value)
        for _ in range(5000):
            u = tuple(
                rng.choice(EDGE_VALUES) if rng.random() < 0.3 else rng.uniform(-50.0, 50.0)
                for _ in range(2)
            )
            dt = rng.choice((0.01, 1e-3, 5e-324, 0.05))
            assert bits(bi.step(u, dt)) == bits(ref.step(u, dt))
        assert bits(bi._u_prev) == bits(ref._u_prev)


class TestSlopeLimiter:
    def test_within_reach(self):
        sl = SlopeLimiter(10.0)
        assert sl.step(0.05, 0.01) == pytest.approx(0.05)

    def test_step_input(self):
        sl = SlopeLimiter(0.1)
        assert sl.step(1.0, 0.01) == pytest.approx(0.001)

    def test_converges_and_stays(self):
        sl = SlopeLimiter(1.0)
        for _ in range(300):
            v = sl.step(0.25, 0.01)
        assert v == pytest.approx(0.25)
        assert sl.step(0.25, 0.01) == pytest.approx(0.25)


class TestHoldFilter:
    def test_monotone_identity(self):
        hf = HoldFilter(0.4)
        for k in range(20):
            assert hf.step(float(k), 0.01 * k) == float(k)

    def test_pulse_hold_and_drop(self):
        hf = HoldFilter(0.4)
        dt = 0.01
        outs = []
        for k in range(200):
            x = 5.0 if k == 10 else 0.0
            outs.append(hf.step(x, k * dt))
        # Window-scan oracle
        times = [k * dt for k in range(200)]
        vals = [5.0 if k == 10 else 0.0 for k in range(200)]
        for k in range(200):
            want = max(
                v for tt, v in zip(times, vals) if times[k] - 0.4 < tt <= times[k]
            )
            assert outs[k] == want

    def test_constant(self):
        hf = HoldFilter(0.2)
        for k in range(50):
            assert hf.step(1.5, 0.01 * k) == 1.5

    def test_runs_and_rises_match_the_window_max(self):
        # Held runs, rises and drops: the one-entry path and the deque path
        # both return the max over the window, as the same float object
        rng = random.Random(3)
        hf = HoldFilter(0.05)
        window = []
        x = 0.0
        for k in range(2000):
            t = 0.01 * k
            r = rng.random()
            x = x if r < 0.5 else x + rng.random() if r < 0.8 else rng.uniform(-1.0, 1.0)
            window = [(tk, v) for tk, v in window if tk > t - 0.05] + [(t, x)]
            want = max(window, key=lambda e: (e[1], e[0]))[1]
            assert hf.step(x, t) is want

    @pytest.mark.parametrize("t0", [1.7e18, 1e300])
    def test_keeps_newest_where_hold_time_vanishes(self, t0):
        # t - hold_time rounds to t: the window is the newest sample alone
        hf = HoldFilter(0.4)
        assert hf.step(2.0, t0) == 2.0
        assert hf.step(1.0, t0 * 2.0) == 1.0
        assert hf.step(3.0, t0 * 3.0) == 3.0


class TestLowPass:
    def test_settling_time_definition(self):
        lp = LowPassFilter(2.0)
        dt = 0.01
        n = int(2.0 / dt)
        for _ in range(n):
            v = lp.step(1.0, dt)
        assert v == pytest.approx(0.99, abs=1e-9)

    def test_coefficient_follows_dt(self):
        """The coefficient is kept per dt: any sequence of steps, with dt
        changing and coming back, is the formula's, bit for bit."""
        lp = LowPassFilter(3.0)
        value = 0.0
        for k, dt in enumerate((0.01, 0.01, 0.013, 0.01, 0.5, 0.5, 0.01)):
            x = math.sin(k)
            value += (1.0 - 0.01 ** (dt / 3.0)) * (x - value)
            assert bits(lp.step(x, dt)) == bits(value)

    def test_dt_invariance(self):
        # Same trajectory endpoint for different step sizes
        lp1 = LowPassFilter(1.0)
        lp2 = LowPassFilter(1.0)
        for _ in range(100):
            v1 = lp1.step(1.0, 0.01)
        for _ in range(1000):
            v2 = lp2.step(1.0, 0.001)
        assert v1 == pytest.approx(v2, abs=1e-9)
