"""Host-speed calibration: a fixed pure-Python kernel and its nominal time.

The CPU this benchmark was built on is shared, and its speed swung by up to
2x within minutes: a run's median time for this kind of kernel ranged by
+-23% between runs, and raw `cycles_per_s` of `walk_push` spread by 21-28%
over ten runs. So every timing is divided by the host's slowness, the
kernel's measured time over `NOMINAL_S`, measured right before and after
each timed unit. The kernel does the same kind of work as the package
(float math, calls, small tuples), and it is part of the benchmark, so a
change to the package cannot move it. Unit times are summed after
normalising, so a run's throughput is its total work over its total
normalised time; that way the throughput of seven runs spread by 6% where
the raw one spread by 21%.
"""

from __future__ import annotations

import time
from math import sin

# The kernel's time on the nominal host: about the usual speed of the shared
# 2-vCPU virtual machine the benchmark was tuned on
NOMINAL_S = 0.010


def kernel():
    s = 0.0
    t = (0.0, 0.0)
    for i in range(40000):
        x = i * 1e-4
        t = (sin(x) + t[1] * 0.5, x * 0.5 - t[0] * 0.5)
        s += t[0] * t[1]
    return s


def kernel_times(repeats=3, clock=time.perf_counter):
    out = []
    for _ in range(repeats):
        t0 = clock()
        kernel()
        out.append(clock() - t0)
    return out


def slowness(times):
    """Host slowness from kernel times: 1 on the nominal host, 2 at half speed.

    Computes the median by hand: importing `statistics` here would pull
    modules into the set-up child before its clock starts.
    """
    ts = sorted(times)
    mid = len(ts) // 2
    median = ts[mid] if len(ts) % 2 else 0.5 * (ts[mid - 1] + ts[mid])
    return median / NOMINAL_S
