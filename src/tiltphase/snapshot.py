"""Exact copies of controller and plant state as bytes, for the closed loop's
quiet-prefix memo (`harness.run_closed_loop`).

`dumps` pickles each of the package's own objects as its class and its
attribute items, and `loads` rebuilds it with one setattr per item.
Plain unpickling fills each object's `__dict__` instead, which turns off
CPython's inline attribute values: such a controller stepped about 3%
slower than a fresh one, and a rebuilt one steps no slower. Reading an
object's state fills its `__dict__` too, so `dumps` leaves the objects it
read slower in the same way. Objects without a `__dict__` (`__slots__`
classes, named tuples) and every builtin type pickle as usual; floats are
copied bit for bit. An object that refers back to itself, directly or
through others, cannot be copied this way and raises RecursionError.
"""

from __future__ import annotations

import io
import pickle


def _rebuild(cls, items):
    obj = cls.__new__(cls)
    for name, value in items:
        object.__setattr__(obj, name, value)  # frozen dataclasses too
    return obj


class _Pickler(pickle.Pickler):
    def reducer_override(self, obj):
        cls = type(obj)
        if cls.__module__.startswith("tiltphase.") and hasattr(obj, "__dict__"):
            return _rebuild, (cls, tuple(vars(obj).items()))
        return NotImplemented


def dumps(obj) -> bytes:
    buf = io.BytesIO()
    _Pickler(buf, pickle.HIGHEST_PROTOCOL).dump(obj)
    return buf.getvalue()


loads = pickle.loads
