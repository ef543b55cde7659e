"""Machine-speed calibration for a shared host.

On a host shared with other tenants, the speed available to one process
drifts by a quarter or more over tens of seconds to minutes, and the drift
moves every interpreted workload alike.  The benchmark therefore times a
fixed reference computation (exact rational arithmetic and dict updates, the
same kind of interpreter work as qks, using only the standard library) right
before and after each command, and scales the command's time to the speed at
which the reference takes `REFERENCE_S` seconds.  Raw times are printed next
to the scaled ones.  The reference runs with the garbage collector paused, so
the size of the workload's heap does not change its duration.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.025     # the reference's duration at nominal speed
_VALUES = [Fraction(17 * i % 101 - 50, 1 + 13 * i % 29) for i in range(64)]


def _reference_work() -> Fraction:
    table: dict = {}
    acc = Fraction(0)
    for i in range(4000):
        a, b = _VALUES[i % 64], _VALUES[i * 7 % 64]
        acc += a * b
        key = i % 97
        table[key] = table.get(key, Fraction(0)) + a
    return acc


def reference_seconds() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _reference_work()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scaled(seconds: float, reference: float) -> float:
    """`seconds` measured while the reference took `reference` seconds,
    expressed at nominal speed."""
    return seconds * REFERENCE_S / reference
