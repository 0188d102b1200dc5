import math
import random

import numpy as np
import pytest

from tiltphase.filters import (
    BoundedIntegrator,
    Ellipsoid,
    HoldFilter,
    LowPassFilter,
    MeanFilter,
    SlopeLimiter,
    WlbfFilter,
    coerced_interp,
    hard_coerce_ellip,
    one_sided_deadband,
    smooth_deadband2,
    smooth_deadband_1d,
    smooth_deadband_ellip,
    soft_coerce2,
    soft_coerce_1d,
    soft_coerce_ellip,
)


def wlbf_oracle(buf):
    """Independent weighted normal-equations solve of the WLBF regression."""
    n = len(buf)
    w = np.arange(1, n + 1, dtype=float)
    w = w / w.sum()
    t = np.array([b[0] for b in buf])
    x = np.array([b[1] for b in buf])
    A = np.stack([np.ones(n), t], axis=1)
    W = np.diag(w)
    beta = np.linalg.solve(A.T @ W @ A, A.T @ W @ x)
    tbar = float(w @ t)
    value = beta[0] + beta[1] * t[-1]
    mean_time_value = beta[0] + beta[1] * tbar
    return value, beta[1], mean_time_value


class TestEllipsoid:
    def test_validation(self):
        with pytest.raises(ValueError):
            Ellipsoid((1.0, -0.5))
        with pytest.raises(ValueError):
            Ellipsoid(())

    def test_principal_axis_radius(self):
        e = Ellipsoid((2.0, 0.5))
        assert e.radius_along((1.0, 0.0)) == pytest.approx(2.0)
        assert e.radius_along((0.0, -3.0)) == pytest.approx(0.5)

    def test_off_axis_radius_below_max(self):
        rng = random.Random(3)
        for _ in range(1000):
            a = (rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0))
            e = Ellipsoid(a)
            ang = rng.uniform(0.05, math.pi / 2 - 0.05)
            r = e.radius_along((math.cos(ang), math.sin(ang)))
            if abs(a[0] - a[1]) > 1e-9:
                assert r < max(a)
            assert r >= min(a) - 1e-12


class TestSoftCoerce:
    def test_identity_inside(self):
        e = Ellipsoid((1.0, 1.0))
        x = (0.3, 0.4)  # |x| = 0.5 <= 1 - 0.2
        assert soft_coerce_ellip(x, e, 0.2) == x

    def test_1d_direct_value(self):
        # r=1, b=0.2, m=1 -> 1 - 0.2*e^{-1}
        got = soft_coerce_1d(1.0, 1.0, 0.2)
        assert got == pytest.approx(1.0 - 0.2 * math.exp(-1.0), abs=1e-12)
        assert soft_coerce_1d(-1.0, 1.0, 0.2) == pytest.approx(-got)

    def test_asymptote(self):
        e = Ellipsoid((1.0,))
        prev = 0.0
        for m in (1.0, 2.0, 3.0, 5.0):
            (y,) = soft_coerce_ellip((m,), e, 0.2)
            assert prev < y < 1.0
            prev = y
        # Far field: approaches the radius (to within rounding) without exceeding it
        for m in (100.0, 1e6, 1e9):
            (y,) = soft_coerce_ellip((m,), e, 0.2)
            assert y <= 1.0
            assert y == pytest.approx(1.0, abs=1e-9)

    def test_zero_maps_to_zero(self):
        e = Ellipsoid((1.0, 2.0))
        assert soft_coerce_ellip((0.0, 0.0), e, 0.1) == (0.0, 0.0)

    def test_direction_preserved_and_inside(self):
        rng = random.Random(17)
        for _ in range(10_000):
            a = (rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0))
            e = Ellipsoid(a)
            b = rng.uniform(0.01, 0.9 * min(a))
            x = (rng.uniform(-6, 6), rng.uniform(-6, 6))
            y = soft_coerce_ellip(x, e, b)
            my = math.hypot(*y)
            mx = math.hypot(*x)
            r = e.radius_along(x) if mx > 0 else min(a)
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
            e = Ellipsoid((r,))
            y1 = soft_coerce_ellip((m1,), e, b)[0]
            y2 = soft_coerce_ellip((m2,), e, b)[0]
            assert y1 <= y2 + 1e-14

    def test_c1_junction(self):
        # Central finite differences across the knee m = r - b.
        r, b = 1.0, 0.2
        e = Ellipsoid((r,))
        h = 1e-6
        for m in (r - b - 5e-7, r - b, r - b + 5e-7):
            lo = soft_coerce_ellip((m - h,), e, b)[0]
            hi = soft_coerce_ellip((m + h,), e, b)[0]
            d = (hi - lo) / (2 * h)
            # Slope is 1 just inside, exp(-(m-knee)/b) just outside.
            expect = 1.0 if m <= r - b else math.exp(-(m - (r - b)) / b)
            assert abs(d - expect) < 1e-4

    def test_hard_coerce(self):
        e = Ellipsoid((1.0, 0.5))
        assert hard_coerce_ellip((0.2, 0.1), e) == (0.2, 0.1)
        y = hard_coerce_ellip((0.0, 2.0), e)
        assert y == pytest.approx((0.0, 0.5))


class TestSmoothDeadband:
    def test_zero(self):
        e = Ellipsoid((1.0, 1.0))
        assert smooth_deadband_ellip((0.0, 0.0), e) == (0.0, 0.0)

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
            e = Ellipsoid(a)
            ang = rng.uniform(-math.pi, math.pi)
            u = (math.cos(ang), math.sin(ang))
            r = e.radius_along(u)
            m = 2 * r + rng.uniform(0.1, 5.0)
            x = (m * u[0], m * u[1])
            y = smooth_deadband_ellip(x, e)
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
        # A 3D input with a zero third component takes the generic n-dim
        # path and must reshape the first two components the same way.
        rng = random.Random(17)
        for _ in range(2000):
            a0, a1 = rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)
            b = rng.uniform(0.01, 0.99) * min(a0, a1)
            scale = 10.0 ** rng.uniform(-3.0, 1.0)
            x0, x1 = rng.gauss(0.0, scale), rng.gauss(0.0, scale)
            e3 = Ellipsoid((a0, a1, 1.0))
            soft = soft_coerce2(x0, x1, a0, a1, b)
            assert soft == pytest.approx(soft_coerce_ellip((x0, x1, 0.0), e3, b)[:2], abs=1e-12)
            db = smooth_deadband2(x0, x1, a0, a1)
            assert db == pytest.approx(smooth_deadband_ellip((x0, x1, 0.0), e3)[:2], abs=1e-12)

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
        f = MeanFilter(2, 4)
        for _ in range(10):
            assert f.step((3.0, -1.0)) == pytest.approx((3.0, -1.0))

    def test_order_two(self):
        f = MeanFilter(1, 2)
        assert f.step((0.0,)) == (0.0,)
        assert f.step((1.0,)) == (0.5,)

    def test_dimension_mismatch(self):
        f = MeanFilter(2, 3)
        with pytest.raises(ValueError):
            f.step((1.0,))

    def test_brute_force_oracle(self):
        rng = random.Random(41)
        f = MeanFilter(3, 7)
        hist = []
        for _ in range(200):
            x = tuple(rng.uniform(-5, 5) for _ in range(3))
            hist.append(x)
            got = f.step(x)
            want = np.mean(np.array(hist[-7:]), axis=0)
            assert np.allclose(got, want, atol=1e-12)


class TestWlbf:
    def test_exact_line(self):
        f = WlbfFilter(1, 6)
        for k in range(6):
            t = 0.1 * k
            value, slope, mtv = f.step(t, (2.0 * t + 1.0,))
        assert slope[0] == pytest.approx(2.0, abs=1e-9)
        assert value[0] == pytest.approx(2.0 * 0.5 + 1.0, abs=1e-9)

    def test_constant_gives_zero_slope(self):
        f = WlbfFilter(2, 5)
        for k in range(5):
            value, slope, mtv = f.step(0.01 * k, (4.0, -2.0))
        assert slope == pytest.approx((0.0, 0.0), abs=1e-9)
        assert value == pytest.approx((4.0, -2.0), abs=1e-9)
        assert mtv == pytest.approx((4.0, -2.0), abs=1e-9)

    def test_single_sample(self):
        f = WlbfFilter(1, 4)
        value, slope, mtv = f.step(0.0, (7.0,))
        assert value == (7.0,)
        assert slope == (0.0,)
        assert mtv == (7.0,)

    def test_rejects_non_increasing_time(self):
        f = WlbfFilter(1, 4)
        f.step(1.0, (0.0,))
        with pytest.raises(ValueError):
            f.step(1.0, (0.0,))

    def test_normal_equations_oracle(self):
        rng = random.Random(59)
        for trial in range(300):
            cap = rng.randint(2, 12)
            f = WlbfFilter(1, cap)
            t = 0.0
            hist = []
            for _ in range(rng.randint(2, 25)):
                t += rng.uniform(0.001, 0.1)
                x = rng.uniform(-3, 3)
                hist.append((t, x))
                value, slope, mtv = f.step(t, (x,))
            ov, os_, omtv = wlbf_oracle(hist[-cap:])
            assert value[0] == pytest.approx(ov, abs=1e-9)
            assert slope[0] == pytest.approx(os_, abs=1e-9)
            assert mtv[0] == pytest.approx(omtv, abs=1e-9)


class TestBoundedIntegrator:
    def test_zero_input(self):
        bi = BoundedIntegrator(Ellipsoid((1.0, 1.0)), 0.1)
        for _ in range(50):
            assert bi.step((0.0, 0.0), 0.01) == (0.0, 0.0)

    def test_linear_ramp_inside(self):
        bi = BoundedIntegrator(Ellipsoid((1.0, 1.0)), 0.1)
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
            BoundedIntegrator(Ellipsoid((1.0, 0.2)), 0.3)

    def test_anti_windup(self):
        # Saturate with constant +u, flip sign: once the reversed input is in
        # effect, the very next step moves inward by at least 0.95*dt*|u|.
        bi = BoundedIntegrator(Ellipsoid((1.0, 1.0)), 0.1)
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
        bi = BoundedIntegrator(Ellipsoid((0.8, 1.2)), 0.15)
        for _ in range(100_000):
            u = (rng.uniform(-50, 50), rng.uniform(-50, 50))
            y = bi.step(u, 0.01)
            r = bi.ellipsoid.radius_along(y) if math.hypot(*y) > 0 else 1.0
            assert math.hypot(*y) < r


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


class TestLowPass:
    def test_settling_time_definition(self):
        lp = LowPassFilter(2.0)
        dt = 0.01
        n = int(2.0 / dt)
        for _ in range(n):
            v = lp.step(1.0, dt)
        assert v == pytest.approx(0.99, abs=1e-9)

    def test_dt_invariance(self):
        # Same trajectory endpoint for different step sizes
        lp1 = LowPassFilter(1.0)
        lp2 = LowPassFilter(1.0)
        for _ in range(100):
            v1 = lp1.step(1.0, 0.01)
        for _ in range(1000):
            v2 = lp2.step(1.0, 0.001)
        assert v1 == pytest.approx(v2, abs=1e-9)
