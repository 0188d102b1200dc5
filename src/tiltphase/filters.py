"""Filter and signal shaping toolbox.

All units are stateful single-owner objects with a deterministic ``step``
that build their state in ``__init__`` only (the controller's ``reset()``
builds new ones), plus stateless shaping functions (elliptical soft
coercion, smooth deadband, coerced interpolation). Only the scalar and 2D
shapes the controller builds are here: two-axis ellipses, a 2D bounded
integrator, and mean and WLBF filters of dim 1 or 2, fixed at construction.

The elliptical operations act radially: the direction of the input is
preserved exactly and only the magnitude is reshaped against the directional
radius of the bounding/deadband ellipsoid. This keeps the radial limit
tight between the principal axes, unlike independent per-axis limits.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Sequence, Tuple


class Ellipsoid:
    """Axis-aligned ellipse given by two strictly positive principal semi-axes."""

    __slots__ = ("semi_axes",)

    def __init__(self, semi_axes: Sequence[float]):
        axes = tuple(float(a) for a in semi_axes)
        if len(axes) != 2 or any(a <= 0.0 for a in axes):
            raise ValueError(f"ellipse needs two positive semi-axes, got {axes}")
        self.semi_axes = axes

    @property
    def min_semi_axis(self) -> float:
        return min(self.semi_axes)

    def radius_along(self, x: Sequence[float]) -> float:
        """Directional radius along the (nonzero) 2-vector x."""
        x0, x1 = x
        a0, a1 = self.semi_axes
        try:
            s = (x0 / a0) ** 2 + (x1 / a1) ** 2
        except OverflowError:
            s = 0.0
        if s <= 0.0:
            # The squares overflow or both underflow
            return _scaled_radius(x0, x1, a0, a1)
        return math.sqrt((x0 * x0 + x1 * x1) / s)


def _scaled_radius(x0: float, x1: float, a0: float, a1: float) -> float:
    """Directional radius of the (a0, a1) ellipse along (x0, x1), for inputs
    where squaring x / a overflows or underflows: each ratio is scaled by the
    larger one first. Infinite when both ratios vanish (x is 0 on that scale).
    """
    w0 = abs(x0) / a0
    w1 = abs(x1) / a1
    u = max(w0, w1)
    if u == 0.0:
        return math.inf
    return math.hypot(x0, x1) / u / math.hypot(w0 / u, w1 / u)


def soft_coerce_mag(m: float, r: float, b: float) -> float:
    """Scalar soft coercion law: identity up to r - b, exponential tail below r."""
    knee = r - b
    if m <= knee:
        return m
    s = r - b * math.exp(-(m - knee) / b)
    if s >= r:  # tail underflow at extreme inputs; keep the bound strict
        return math.nextafter(r, 0.0)
    return s


def soft_coerce_1d(x: float, limit: float, b: float) -> float:
    """Symmetric scalar soft coercion to (-limit, limit) with buffer b."""
    if x >= 0.0:
        return soft_coerce_mag(x, limit, b)
    return -soft_coerce_mag(-x, limit, b)


def soft_coerce2(x0: float, x1: float, a0: float, a1: float, b: float) -> Tuple[float, float]:
    """2D `soft_coerce_ellip` on scalars: ellipsoid semi-axes (a0, a1), buffer b."""
    m2 = x0 * x0 + x1 * x1
    if m2 == 0.0:
        return (0.0, 0.0)
    m = math.sqrt(m2)
    try:
        r = math.sqrt(m2 / ((x0 / a0) ** 2 + (x1 / a1) ** 2))
    except (OverflowError, ZeroDivisionError):
        r = _scaled_radius(x0, x1, a0, a1)
    s = soft_coerce_mag(m, r, b)
    if s == m:
        return (x0, x1)
    k = s / m
    return (k * x0, k * x1)


def soft_coerce_ellip(x: Sequence[float], ellipsoid: Ellipsoid, b: float) -> Tuple[float, float]:
    """Soft-coerce x radially to the ellipsoid, with soft buffer b.

    Direction preserved exactly; output magnitude stays strictly below the
    directional radius. Requires 0 < b < min semi-axis.
    """
    x0, x1 = x
    return soft_coerce2(x0, x1, *ellipsoid.semi_axes, b)


def hard_coerce2(x0: float, x1: float, a0: float, a1: float) -> Tuple[float, float]:
    """2D `hard_coerce_ellip` on scalars: ellipsoid semi-axes (a0, a1)."""
    m2 = x0 * x0 + x1 * x1
    if m2 == 0.0:
        return (0.0, 0.0)
    s = (x0 / a0) ** 2 + (x1 / a1) ** 2
    if s <= 1.0:
        return (x0, x1)
    k = 1.0 / math.sqrt(s)
    return (k * x0, k * x1)


def hard_coerce_ellip(x: Sequence[float], ellipsoid: Ellipsoid) -> Tuple[float, float]:
    """Radially clamp the 2-vector x onto the ellipse (hard elliptical coercion)."""
    x0, x1 = x
    return hard_coerce2(x0, x1, *ellipsoid.semi_axes)


def smooth_deadband_mag(m: float, r: float) -> float:
    """Scalar smooth deadband law: m^2/(4r) below 2r, m - r beyond (C1 at 2r)."""
    if m < 2.0 * r:
        return m * m / (4.0 * r)
    return m - r


def smooth_deadband_1d(x: float, r: float) -> float:
    """Symmetric scalar smooth deadband with radius r."""
    if x >= 0.0:
        return smooth_deadband_mag(x, r)
    return -smooth_deadband_mag(-x, r)


def smooth_deadband2(x0: float, x1: float, a0: float, a1: float) -> Tuple[float, float]:
    """2D `smooth_deadband_ellip` on scalars: ellipsoid semi-axes (a0, a1)."""
    m2 = x0 * x0 + x1 * x1
    if m2 == 0.0:
        return (0.0, 0.0)
    m = math.sqrt(m2)
    try:
        r = math.sqrt(m2 / ((x0 / a0) ** 2 + (x1 / a1) ** 2))
    except (OverflowError, ZeroDivisionError):
        r = _scaled_radius(x0, x1, a0, a1)
    k = smooth_deadband_mag(m, r) / m
    return (k * x0, k * x1)


def smooth_deadband_ellip(x: Sequence[float], ellipsoid: Ellipsoid) -> Tuple[float, float]:
    """Apply smooth deadband radially along the 2-vector x with the directional radius."""
    x0, x1 = x
    return smooth_deadband2(x0, x1, *ellipsoid.semi_axes)


def one_sided_deadband(x: float, threshold: float, r: float) -> float:
    """Zero below threshold, smooth quadratic blend into x - threshold - r beyond."""
    u = x - threshold
    if u <= 0.0:
        return 0.0
    return smooth_deadband_mag(u, r)


def coerced_interp(x: float, x0: float, x1: float, y0: float, y1: float) -> float:
    """Linear interpolation with x clamped to [x0, x1]; never extrapolates."""
    if x0 == x1:
        return y0
    t = (x - x0) / (x1 - x0)
    if t <= 0.0:
        return y0
    if t >= 1.0:
        return y1
    return y0 + t * (y1 - y0)


class MeanFilter:
    """Moving average of a scalar or 2D vector over the last `order` samples.

    During warm-up the mean of the available samples is returned. A running
    sum keeps the step O(1) regardless of order.
    """

    __slots__ = ("dim", "order", "_buf", "_sum")

    def __init__(self, dim: int, order: int):
        if dim not in (1, 2) or order < 1:
            raise ValueError(f"MeanFilter needs dim 1 or 2 and order >= 1, got {dim}, {order}")
        self.dim = dim
        self.order = order
        self._buf = deque()
        self._sum = [0.0] * dim

    def step(self, x: Sequence[float]) -> Tuple[float, ...]:
        if len(x) != self.dim:
            raise ValueError(f"expected {self.dim}-dim sample, got {len(x)}")
        buf = self._buf
        s = self._sum
        if self.dim == 1:
            # Scalar records; the same operation order as the 2D path.
            x0 = float(x[0])
            buf.append(x0)
            s[0] += x0
            if len(buf) > self.order:
                s[0] -= buf.popleft()
            return (s[0] / len(buf),)
        x0, x1 = float(x[0]), float(x[1])
        buf.append((x0, x1))
        s[0] += x0
        s[1] += x1
        if len(buf) > self.order:
            o0, o1 = buf.popleft()
            s[0] -= o0
            s[1] -= o1
        n = len(buf)
        return (s[0] / n, s[1] / n)


class WlbfFilter:
    """Weighted line of best fit over a sliding time buffer of 1D or 2D samples.

    Performs per-dimension weighted linear least squares regression against
    time. Weights decrease linearly with sample age (newest sample heaviest)
    and are normalized. Returns the line value at the latest time, the line
    slope, and the line value at the weighted mean time (where the smoothed
    value and slope estimates are synchronized).

    With fewer than 2 samples the slope is 0 and the value is the latest
    sample. Buffer times must be strictly increasing.
    """

    __slots__ = ("dim", "capacity", "_buf")

    def __init__(self, dim: int, capacity: int):
        if dim not in (1, 2) or capacity < 1:
            raise ValueError(
                f"WlbfFilter needs dim 1 or 2 and capacity >= 1, got {dim}, {capacity}"
            )
        self.dim = dim
        self.capacity = capacity
        self._buf = deque(maxlen=capacity)

    def step(self, t: float, x: Sequence[float]):
        dim = self.dim
        if len(x) != dim:
            raise ValueError(f"expected {dim}-dim sample, got {len(x)}")
        buf = self._buf
        if buf and t <= buf[-1][0]:
            raise ValueError(f"non-increasing time {t} (last was {buf[-1][0]})")
        # Records are flat (t, x0) or (t, x0, x1) tuples so the moment loops
        # below unpack them without a second indexing step.
        t0 = float(t)
        if dim == 1:
            latest = (float(x[0]),)
        else:
            latest = (float(x[0]), float(x[1]))
        buf.append((t0,) + latest)

        n = len(buf)
        if n < 2:
            return latest, (0.0,) * dim, latest

        # Linear recency weights w_k = k+1 for the k-th oldest sample;
        # normalization cancels in the regression. Times are shifted so the
        # newest sample sits at 0, which keeps the moment sums well
        # conditioned regardless of absolute time.
        sw = 0.5 * n * (n + 1)
        if dim == 1:
            w = st = stt = sx0 = stx0 = 0.0
            for tk, x0 in buf:
                w += 1.0
                tau = tk - t0
                wt = w * tau
                st += wt
                stt += wt * tau
                sx0 += w * x0
                stx0 += wt * x0
            tbar = st / sw
            cov_tt = stt - tbar * st
            if cov_tt <= 0.0:
                return latest, (0.0,), latest
            xb0 = sx0 / sw
            s0 = (stx0 - tbar * sx0) / cov_tt
            return (xb0 - s0 * tbar,), (s0,), (xb0,)
        w = st = stt = 0.0
        sx0 = sx1 = stx0 = stx1 = 0.0
        for tk, x0, x1 in buf:
            w += 1.0
            tau = tk - t0
            wt = w * tau
            st += wt
            stt += wt * tau
            sx0 += w * x0
            sx1 += w * x1
            stx0 += wt * x0
            stx1 += wt * x1
        tbar = st / sw
        cov_tt = stt - tbar * st
        if cov_tt <= 0.0:
            return latest, (0.0, 0.0), latest
        xb0 = sx0 / sw
        xb1 = sx1 / sw
        s0 = (stx0 - tbar * sx0) / cov_tt
        s1 = (stx1 - tbar * sx1) / cov_tt
        return (
            (xb0 - s0 * tbar, xb1 - s1 * tbar),
            (s0, s1),
            (xb0, xb1),
        )


class BoundedIntegrator:
    """Elliptically bounded 2D trapezoidal integrator with inherent anti-windup.

    Each step integrates trapezoidally and soft-coerces the result to the
    bounding ellipsoid; the coerced output is the starting point of the next
    update, so the integral can leave the boundary as fast as it got there.
    """

    __slots__ = ("ellipsoid", "buffer", "value", "_u_prev")

    def __init__(self, ellipsoid: Ellipsoid, buffer: float):
        if not (0.0 < buffer < ellipsoid.min_semi_axis):
            raise ValueError(
                f"soft buffer {buffer} must lie in (0, {ellipsoid.min_semi_axis})"
            )
        self.ellipsoid = ellipsoid
        self.buffer = buffer
        self.value = (0.0, 0.0)
        self._u_prev = (0.0, 0.0)

    def step(self, u: Sequence[float], dt: float) -> Tuple[float, float]:
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        up = self._u_prev
        v = self.value
        h = 0.5 * dt
        a0, a1 = self.ellipsoid.semi_axes
        self._u_prev = (float(u[0]), float(u[1]))
        self.value = soft_coerce2(
            v[0] + h * (u[0] + up[0]), v[1] + h * (u[1] + up[1]), a0, a1, self.buffer
        )
        return self.value


class SlopeLimiter:
    """Rate-limits its output toward the input by at most max_rate * dt per step."""

    __slots__ = ("max_rate", "value")

    def __init__(self, max_rate: float, initial: float = 0.0):
        if max_rate <= 0.0:
            raise ValueError("max_rate must be positive")
        self.max_rate = max_rate
        self.value = initial

    def step(self, x: float, dt: float) -> float:
        lim = self.max_rate * dt
        d = x - self.value
        if d > lim:
            d = lim
        elif d < -lim:
            d = -lim
        self.value += d
        return self.value


class HoldFilter:
    """Keeps the maximum input seen within the trailing (t - hold_time, t] window."""

    __slots__ = ("hold_time", "_buf")

    def __init__(self, hold_time: float):
        if hold_time <= 0.0:
            raise ValueError("hold_time must be positive")
        self.hold_time = hold_time
        self._buf = deque()

    def step(self, x: float, t: float) -> float:
        buf = self._buf
        # Monotone deque: drop entries dominated by the new sample.
        while buf and buf[-1][1] <= x:
            buf.pop()
        buf.append((t, x))
        cutoff = t - self.hold_time
        while buf[0][0] <= cutoff:
            buf.popleft()
        return buf[0][1]


class LowPassFilter:
    """First-order low pass parameterized by 99% step-response settling time."""

    __slots__ = ("settling_time", "value")

    def __init__(self, settling_time: float):
        if settling_time <= 0.0:
            raise ValueError("settling_time must be positive")
        self.settling_time = settling_time
        self.value = 0.0

    def step(self, x: float, dt: float) -> float:
        # After settling_time of constant input the output covers 99% of a step.
        a = 1.0 - 0.01 ** (dt / self.settling_time)
        self.value += a * (x - self.value)
        return self.value
