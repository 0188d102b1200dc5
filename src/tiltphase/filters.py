"""Filter and signal shaping toolbox.

All units are stateful single-owner objects with ``__slots__`` and a
deterministic ``step`` that build their state in ``__init__`` only, plus
stateless shaping functions. Each shaping law has one form, a scalar
kernel: soft coercion (``soft_coerce_1d``, ``soft_coerce2``),
hard coercion (``hard_coerce2``), smooth deadband (``smooth_deadband_1d``,
``smooth_deadband2``, ``one_sided_deadband``) and coerced interpolation.
Only the shapes the controller builds are here: two-axis ellipses given by
their semi-axes (a0, a1), a 2D bounded integrator, 2D mean filters and WLBF
filters of dim 1 or 2, which return the slope and mean of their window. A
WLBF whose window lies on the control grid (`on_grid`) fits from running
moments of its values, O(1) per step; other windows take the direct moment
sums over the times, then over each axis.

A WLBF whose window and the window before it hold one value, bit for bit,
returns its previous grid fit: the leaning WLBF sees the commanded vx, held
for about 95% of walk_push's cycles.

The elliptical operations act radially: the direction of the input is
preserved exactly and only the magnitude is reshaped against the directional
radius of the bounding/deadband ellipse, which keeps the radial limit tight
between the principal axes; a circle's radius is its semi-axis. They square
x / a by multiplication, which rounds once (libm `pow` may not), and take
their fallback for squares that overflow or vanish on an explicit inf or
0.0 test.
"""

from __future__ import annotations

import math
from collections import deque
from math import copysign, sqrt
from typing import Sequence, Tuple

_INF = math.inf


def _scaled_radius(x0: float, x1: float, a0: float, a1: float) -> float:
    """Directional radius of the (a0, a1) ellipse along (x0, x1), for inputs
    where squaring x / a overflows or underflows: x is scaled by its larger
    component before it is divided by the semi-axes. Infinite for x = 0.
    """
    u = max(abs(x0), abs(x1))
    if u == 0.0:
        return _INF
    y0 = x0 / u
    y1 = x1 / u
    return math.hypot(y0, y1) / math.hypot(y0 / a0, y1 / a1)


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
    """Soft-coerce (x0, x1) radially to the ellipse with semi-axes (a0, a1),
    with soft buffer b: the direction is kept up to rounding, and a saturated
    output satisfies (y0/a0)*(y0/a0) + (y1/a1)*(y1/a1) <= 1 as computed.
    Requires 0 < b < min(a0, a1).
    """
    m2 = x0 * x0 + x1 * x1
    if m2 == 0.0:
        return (0.0, 0.0)
    if m2 == _INF:
        # The squared norm overflows: the magnitude comes from x scaled by
        # its larger component, so the output saturates along the input ray
        u = max(abs(x0), abs(x1))
        x0 /= u
        x1 /= u
        m = math.hypot(x0, x1)
        k = soft_coerce_mag(m * u, _scaled_radius(x0, x1, a0, a1), b) / m
        return _step_inside(k * x0, k * x1, a0, a1)
    m = sqrt(m2)
    r = a0  # a circle's radius along any x
    if a0 != a1:
        q0 = x0 / a0
        q1 = x1 / a1
        # Squares that overflow (inf) or both vanish (0.0, taken as inf) give 0.0
        r = sqrt(m2 / (q0 * q0 + q1 * q1 or _INF))
        if r == 0.0:
            r = _scaled_radius(x0, x1, a0, a1)
    if m <= r - b:  # soft_coerce_mag's identity range, tested before the call
        return (x0, x1)
    s = soft_coerce_mag(m, r, b)
    if s == m:
        return (x0, x1)
    k = s / m
    return _step_inside(k * x0, k * x1, a0, a1)


def _step_inside(y0: float, y1: float, a0: float, a1: float) -> Tuple[float, float]:
    """(y0, y1), a radially clamped point, stepped toward 0 one ulp at a time
    while outside the ellipse, where rounding can leave it by a few ulps."""
    while (y0 / a0) * (y0 / a0) + (y1 / a1) * (y1 / a1) > 1.0:
        y0 = math.nextafter(y0, 0.0)
        y1 = math.nextafter(y1, 0.0)
    return (y0, y1)


def hard_coerce2(x0: float, x1: float, a0: float, a1: float) -> Tuple[float, float]:
    """Radially clamp (x0, x1) onto the ellipse with semi-axes (a0, a1)."""
    m2 = x0 * x0 + x1 * x1
    if m2 == 0.0:
        return (0.0, 0.0)
    s = (x0 / a0) * (x0 / a0) + (x1 / a1) * (x1 / a1)
    if s == _INF:
        # Far outside an ellipse with a tiny semi-axis: clamp to the radius along x
        k = _scaled_radius(x0, x1, a0, a1) / math.hypot(x0, x1)
        return _step_inside(k * x0, k * x1, a0, a1)
    if s <= 1.0:
        return (x0, x1)
    k = 1.0 / sqrt(s)
    return (k * x0, k * x1)


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
    """Smooth deadband applied radially to (x0, x1), against the directional
    radius of the ellipse with semi-axes (a0, a1)."""
    m2 = x0 * x0 + x1 * x1
    if m2 == 0.0:
        return (0.0, 0.0)
    m = sqrt(m2)
    r = a0  # a circle's radius along any x
    if a0 != a1:
        q0 = x0 / a0
        q1 = x1 / a1
        # Squares that overflow (inf) or both vanish (0.0, taken as inf) give 0.0
        r = sqrt(m2 / (q0 * q0 + q1 * q1 or _INF))
        if r == 0.0:
            r = _scaled_radius(x0, x1, a0, a1)
    k = smooth_deadband_mag(m, r) / m
    return (k * x0, k * x1)


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
    """Moving average of a 2D vector over the last `order` samples.

    During warm-up the mean of the available samples is returned. A running
    sum keeps the step O(1) regardless of order. The window starts full of
    zeros, which leave the sums as they are (s - 0.0 is s), and keeps each
    sample as given, so a caller must not change one after the step.
    """

    __slots__ = ("order", "_buf", "_n", "_s0", "_s1")

    def __init__(self, order: int):
        if order < 1:
            raise ValueError(f"MeanFilter needs order >= 1, got {order}")
        self.order = order
        self._buf = deque([(0.0, 0.0)] * order)
        self._n = 0  # samples in the window
        self._s0 = 0.0
        self._s1 = 0.0

    def step(self, x: Sequence[float]) -> Tuple[float, float]:
        x0, x1 = x
        o0, o1 = self._buf.popleft()
        self._buf.append(x)
        s0 = self._s0 = self._s0 + x0 - o0
        s1 = self._s1 = self._s1 + x1 - o1
        n = self._n
        if n < self.order:
            n = self._n = n + 1
        return (s0 / n, s1 / n)


# A time gap is on the control grid when it is within GRID_TOL * cycle_dt of
# cycle_dt: 1 us at 100 Hz, above the 2.4e-7 s resolution of a timestamp in
# Unix-epoch seconds. Stamps that jitter by more, as a free-running IMU
# clock's may, keep the WLBF on its direct sums.
GRID_TOL = 1e-4


def on_grid(gap: float, cycle_dt: float) -> bool:
    """True if a time gap is a control cycle: |gap - cycle_dt| <= GRID_TOL * cycle_dt."""
    return abs(gap - cycle_dt) <= GRID_TOL * cycle_dt


# A window value more than this many times the sum of the other values'
# magnitudes makes the grid path sum the moments afresh at each step until
# it leaves; past about 2^53 the others are lost in its sums
_SWAMP = 2.0 ** 26


def _swamped(buf, i: int, t0: float, t1: float, t2: float, n2: float) -> bool:
    """True if one record's value i in the window buf is more than _SWAMP
    times the sum of the others' magnitudes, and that sum is not 0. t0, t1
    and t2 are the window's moments of value i, n2 its length squared. A
    value among exact zeros is left to the usual re-sums: a commanded step
    from 0 enters the leaning WLBF that way.

    A value x at k that swamps the others puts T0, T1 and T2 within
    n^2 / _SWAMP times x of x, k x and k^2 x, so |T2 - T1^2 / T0| is at
    most about 4 n^2 / _SWAMP times |T2|. A window above twice that holds
    no such value and is not scanned; the bound holds for n below 5000.
    """
    if not t0 or abs(t2 - t1 * (t1 / t0)) > 8.0 * n2 / _SWAMP * abs(t2):
        return False
    m = rest = 0.0
    for rec in buf:
        a = abs(rec[i])
        if a > m:
            rest += m
            m = a
        else:
            rest += a
    return m > _SWAMP * rest > 0.0


# The largest WLBF window; `_swamped`'s screen holds below 5000 values
MAX_WLBF_SIZE = 4096

# The previous record of an empty window: no value repeats it
_NO_SAMPLE = (math.nan, math.nan, math.nan)


class WlbfFilter:
    """Weighted line of best fit over a sliding time buffer of 1D or 2D samples.

    Performs per-dimension weighted linear least squares regression against
    time. Weights decrease linearly with sample age (newest sample heaviest)
    and are normalized. `step` returns (slope, mean): the line slope, and the
    line value at the weighted mean time t̄, where the smoothed value and slope
    estimates are synchronized. The line value at a time t is
    mean + slope (t - t̄).

    With fewer than 2 samples, or times too far apart for the moments, the
    slope is 0 and the mean is the latest sample. Buffer times must be
    strictly increasing, and the window holds at most MAX_WLBF_SIZE samples.

    A full window of values x_1 (oldest) .. x_n whose gaps are all on the
    control grid (`on_grid`) fits from T0 = sum x_k, T1 = sum k x_k and
    T2 = sum k^2 x_k: slope (9 T2 - 3 (2n + 1) T1) / (c9 cycle_dt), with
    c9 = sum k (2n + 1 - 3k)^2, and mean T1 / (n (n + 1) / 2) at the time
    -(n - 1) cycle_dt / 3 (newest at 0). A grid step updates the moments in
    O(1); summing them afresh every n grid steps, after a direct step or a
    held-window return and when the window first holds one value bounds
    their drift and keeps it out of held fits; so does summing them afresh
    at every step while one value swamps the others (`_swamped`). Warm-up,
    an off-grid gap in the window and moments or a fit that overflow take
    the direct sums over the actual times. A window holding the previous
    one's value returns the previous fit.
    """

    __slots__ = ("dim", "capacity", "_buf", "_dt", "_tol", "_direct", "_grid", "_mom", "_left",
                 "_run", "_fit")

    def __init__(self, dim: int, capacity: int, cycle_dt: float):
        if dim not in (1, 2) or not 1 <= capacity <= MAX_WLBF_SIZE or not 0.0 < cycle_dt < _INF:
            raise ValueError(f"WlbfFilter needs dim 1 or 2, capacity in [1, {MAX_WLBF_SIZE}] and "
                             f"a positive finite cycle_dt, got {dim}, {capacity}, {cycle_dt}")
        self.dim = dim
        self.capacity = capacity
        self._buf = deque(maxlen=capacity)
        # Steps left on the direct sums: warm-up, or an off-grid gap in the window
        self._direct = capacity - 1
        self._dt = cycle_dt
        self._tol = GRID_TOL * cycle_dt
        # n, n^2, 3 (2n + 1), c9 cycle_dt (no slope at n = 1), n (n + 1) / 2,
        # n - 1; (T0, T1, T2) per axis, and the grid steps before the next re-sum
        n = capacity
        c9 = sum(k * (2 * n + 1 - 3 * k) ** 2 for k in range(1, n + 1))
        self._grid = (float(n), float(n * n), float(6 * n + 3), c9 * cycle_dt if c9 else _INF,
                      n * (n + 1) / 2, n - 1)
        self._mom, self._left = (), 0
        # The last _run + 1 samples hold one value, bit for bit; _fit is the
        # previous step's fit on the grid, None after a direct step
        self._run = 0
        self._fit = None

    def step(self, t: float, x: Sequence[float]):
        dim = self.dim
        if len(x) != dim:
            raise ValueError(f"expected {dim}-dim sample, got {len(x)}")
        buf = self._buf
        # Records are flat (t, x0) or (t, x0, x1) tuples of the floats as
        # given, so the loops below unpack them without a second indexing step.
        if buf:
            prev = buf[-1]
            last = prev[0]
            if not abs(t - last - self._dt) <= self._tol:  # on_grid, inline; t > last on it
                if t <= last:
                    raise ValueError(f"non-increasing time {t} (last was {last})")
                self._direct = self.capacity - 1
            out = buf[0]  # evicted below once the window is full
        else:
            prev = _NO_SAMPLE
        # A value repeats when it is the previous one bit for bit: the same
        # float object, or equal with the same sign (0.0 == -0.0)
        x0 = x[0]
        p0 = prev[1]
        same = x0 is p0 or x0 == p0 and copysign(1.0, x0) == copysign(1.0, p0)
        if dim == 1:
            rec = (t, x0)
        else:
            x1 = x[1]
            rec = (t, x0, x1)
            if same:
                p1 = prev[2]
                same = x1 is p1 or x1 == p1 and copysign(1.0, x1) == copysign(1.0, p1)
        run = self._run = self._run + 1 if same else 0
        buf.append(rec)

        if self._direct:
            self._direct -= 1
        elif run >= self.capacity and self._fit is not None:
            # This window and the previous one hold one value: the fit on
            # the grid, which reads only the values, is the same
            self._left = 0
            return self._fit
        else:
            n, n2, k3, c9dt, sw, n1 = self._grid
            left = self._left
            if left and run < n1:
                # Each k falls by one, x_1 leaves and x enters as x_n
                left -= 1
                u0, u1, u2, w0, w1, w2 = self._mom
                u2 = u2 - 2.0 * u1 + u0 + n2 * x0
                u1 = u1 - u0 + n * x0
                u0 = u0 - out[1] + x0
                if dim == 2:
                    w2 = w2 - 2.0 * w1 + w0 + n2 * x1
                    w1 = w1 - w0 + n * x1
                    w0 = w0 - out[2] + x1
            else:
                left = n1
                u0 = u1 = u2 = w0 = w1 = w2 = k = 0.0
                if dim == 1:
                    for _, v0 in buf:
                        k += 1.0
                        u0, u1, u2 = u0 + v0, u1 + k * v0, u2 + k * k * v0
                else:
                    for _, v0, v1 in buf:
                        k += 1.0
                        kk = k * k
                        u0, u1, u2 = u0 + v0, u1 + k * v0, u2 + kk * v0
                        w0, w1, w2 = w0 + v1, w1 + k * v1, w2 + kk * v1
                if (_swamped(buf, 1, u0, u1, u2, n2)
                        or dim == 2 and _swamped(buf, 2, w0, w1, w2, n2)):
                    # Its rounding would stay in the moments once it left:
                    # sum afresh until it has
                    left = 0
            s0 = (9.0 * u2 - k3 * u1) / c9dt
            xb0 = u1 / sw
            check = u0 + u2 + s0 + xb0
            if dim == 1:
                fit = (s0,), (xb0,)
            else:
                s1 = (9.0 * w2 - k3 * w1) / c9dt
                xb1 = w1 / sw
                check += w0 + w2 + s1 + xb1
                fit = (s0, s1), (xb0, xb1)
            # A finite sum: no moment, slope or mean overflows (T1 is finite
            # with the mean); else the direct sums
            if check - check == 0.0:
                self._mom, self._left, self._fit = (u0, u1, u2, w0, w1, w2), left, fit
                return fit
        self._left = 0
        self._fit = None

        # Direct moment sums over the actual times. Linear recency weights
        # w_k = k+1 for the k-th oldest sample; normalization cancels in the
        # regression. Times are shifted so the newest sample sits at 0, which
        # keeps the sums well conditioned regardless of absolute time. Time
        # gaps so large that the moments overflow make cov_tt nan: no slope,
        # as for equal times or a single sample.
        n = len(buf)
        sw = 0.5 * n * (n + 1)
        w = st = stt = 0.0
        wts = []
        for r in buf:
            w += 1.0
            tau = r[0] - t
            wt = w * tau
            st += wt
            stt += wt * tau
            wts.append(wt)
        tbar = st / sw
        cov_tt = stt - tbar * st
        if not cov_tt > 0.0:
            return (0.0,) * dim, rec[1:]
        slope = mean = ()
        for i in range(1, dim + 1):
            w = sx = stx = 0.0
            for r, wt in zip(buf, wts):
                w += 1.0
                x = r[i]
                sx += w * x
                stx += wt * x
            slope += ((stx - tbar * sx) / cov_tt,)
            mean += (sx / sw,)
        return slope, mean


class BoundedIntegrator:
    """Elliptically bounded 2D trapezoidal integrator with inherent anti-windup.

    Each step integrates trapezoidally and soft-coerces the result to the
    bounding ellipse with semi-axes (a0, a1); the coerced output is the
    starting point of the next update, so the integral can leave the
    boundary as fast as it got there. The input pair is kept as given for
    the next step.
    """

    __slots__ = ("a0", "a1", "buffer", "value", "_u_prev")

    def __init__(self, a0: float, a1: float, buffer: float):
        if not (a0 > 0.0 and a1 > 0.0):
            raise ValueError(f"ellipse needs two positive semi-axes, got {(a0, a1)}")
        if not (0.0 < buffer < min(a0, a1)):
            raise ValueError(f"soft buffer {buffer} must lie in (0, {min(a0, a1)})")
        self.a0 = a0
        self.a1 = a1
        self.buffer = buffer
        self.value = (0.0, 0.0)
        self._u_prev = (0.0, 0.0)

    def step(self, u: Sequence[float], dt: float) -> Tuple[float, float]:
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        u0, u1 = u
        up0, up1 = self._u_prev
        v0, v1 = self.value
        h = 0.5 * dt
        self._u_prev = u
        self.value = soft_coerce2(
            v0 + h * (u0 + up0), v1 + h * (u1 + up1), self.a0, self.a1, self.buffer
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
        if len(buf) == 1 and buf[0][1] <= x:
            # It dominates the only entry, as a held or rising input does
            buf[0] = (t, x)
            return x
        # Monotone deque: drop entries dominated by the new sample.
        while buf and buf[-1][1] <= x:
            buf.pop()
        buf.append((t, x))
        cutoff = t - self.hold_time
        # The newest entry stays even where t - hold_time rounds to t
        while buf[0][0] <= cutoff and len(buf) > 1:
            buf.popleft()
        return buf[0][1]


class LowPassFilter:
    """First-order low pass parameterized by 99% step-response settling time."""

    __slots__ = ("settling_time", "value", "_dt", "_a")

    def __init__(self, settling_time: float):
        if settling_time <= 0.0:
            raise ValueError("settling_time must be positive")
        self.settling_time = settling_time
        self.value = 0.0
        # The coefficient of the last dt, taken again only when dt changes
        self._dt = None
        self._a = 0.0

    def step(self, x: float, dt: float) -> float:
        if dt != self._dt:
            # After settling_time of constant input the output covers 99% of a step.
            self._a = 1.0 - 0.01 ** (dt / self.settling_time)
            self._dt = dt
        self.value += self._a * (x - self.value)
        return self.value
