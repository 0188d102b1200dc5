"""Spans around the package's public functions, wrapped at run time.

The benchmark never edits the package. A `Tracer` replaces a function or
method attribute with a wrapper that records one span per call (name, start,
end, parent span, cycle id) and puts the original back when the `patched`
block ends. Spans stay in memory, in flat arrays, until the run ends.

A control cycle ends when `record_values` returns: that call is the one
per-cycle step shared by closed-loop runs (with or without the controller)
and replays, so the plant step that produced an IMU sample, the controller
step that consumed it and its trace record share one cycle id.
"""

from __future__ import annotations

import contextlib
import time
from array import array

import numpy as np

CYCLE_END = "trace.record"


@contextlib.contextmanager
def patching(patches):
    """Replace each (owner, attribute) by `factory(original)` for the block,
    for every (owner, attribute, factory) in `patches`."""
    saved = []
    try:
        for owner, attr, factory in patches:
            orig = getattr(owner, attr)
            saved.append((owner, attr, orig))
            setattr(owner, attr, factory(orig))
        yield
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.cycle = array("i")
        self.start = array("q")
        self.end = array("q")
        self.cycle_id = 0
        self._stack = [-1]
        self.accel = []

    def __len__(self):
        return len(self.start)

    def _nid(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn):
        nid = self._nid(name)
        name_id, parent, cycle = self.name_id, self.parent, self.cycle
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter_ns
        tracer = self
        ends_cycle = name == CYCLE_END

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            cycle.append(tracer.cycle_id)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                if ends_cycle:
                    tracer.cycle_id += 1

        traced.__wrapped__ = fn
        return traced

    def wrap_estimator_step(self, fn):
        """Estimator span that also keeps each accelerometer reading.

        The append runs after the span closes, so its cost lands in the
        caller's self time, not the estimator's.
        """
        inner = self.wrap("estimator.step", fn)
        keep = self.accel.append

        def step(est, gyro, accel, dt):
            out = inner(est, gyro, accel, dt)
            keep(accel)
            return out

        return step

    def patched(self, targets):
        """Wrap every (owner, attribute, span name) in `targets` for the block."""
        return patching([
            (owner, attr,
             self.wrap_estimator_step if name == "estimator.step"
             else lambda fn, name=name: self.wrap(name, fn))
            for owner, attr, name in targets
        ])

    def arrays(self):
        """Spans as numpy arrays: name id, parent index, cycle, start, end [ns].

        Copies, so the tracer's arrays stay free to grow afterwards.
        """
        return (
            np.array(self.name_id, dtype=np.int32),
            np.array(self.parent, dtype=np.int32),
            np.array(self.cycle, dtype=np.int32),
            np.array(self.start, dtype=np.int64),
            np.array(self.end, dtype=np.int64),
        )

    def summary(self):
        """Per span name: call count, total time and self time [ns].

        Self time is the span's duration minus the durations of its direct
        children. Calls are strictly nested on one thread, so the children
        cover disjoint parts of the parent's interval.
        """
        nid, parent, _, start, end = self.arrays()
        dur = (end - start).astype(np.float64)
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_time = dur - child
        k = len(self.names)
        count = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        own = np.bincount(nid, weights=self_time, minlength=k)
        return {
            name: (int(count[i]), float(total[i]), float(own[i]))
            for i, name in enumerate(self.names)
        }

    def setup_times(self, runners, loop_children):
        """Set-up of each runner span: the part before its first cycle child.

        Returns (number of runner spans, total set-up wall time, total set-up
        self time) in ns. Set-up self time excludes child spans (such as
        config validation) that start inside the set-up interval.
        """
        nid, parent, _, start, end = self.arrays()
        runner_ids = [self._name_ids[n] for n in runners if n in self._name_ids]
        loop_ids = [self._name_ids[n] for n in loop_children if n in self._name_ids]
        runner_idx = np.flatnonzero(np.isin(nid, runner_ids))
        if runner_idx.size == 0:
            return 0, 0.0, 0.0
        first_loop = {}
        for j in np.flatnonzero(np.isin(nid, loop_ids) & np.isin(parent, runner_idx)):
            p = int(parent[j])
            if p not in first_loop:
                first_loop[p] = int(start[j])
        wall = 0.0
        children = 0.0
        for p in runner_idx.tolist():
            t_loop = first_loop.get(p, int(end[p]))
            wall += t_loop - int(start[p])
        kids = np.flatnonzero(np.isin(parent, runner_idx))
        for j in kids.tolist():
            p = int(parent[j])
            if int(start[j]) < first_loop.get(p, int(end[p])):
                children += int(end[j]) - int(start[j])
        return int(runner_idx.size), wall, wall - children

    def save(self, path):
        nid, parent, cycle, start, end = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name_id=nid, parent=parent,
            cycle=cycle, start_ns=start, end_ns=end,
        )
