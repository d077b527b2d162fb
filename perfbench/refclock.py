"""A reference computation that tracks the speed of the CPU right now.

On a shared virtual machine the CPU speed can swing by up to 2x within
seconds as other tenants come and go (seen on a 2-core x86-64 VM), and a
fixed Python computation slows down with it.
The benchmark brackets each timed operation with this computation and
scales the operation's time by ``REFERENCE_S / reference time``, so a
timing reads as if the reference had taken ``REFERENCE_S``: the swings
cancel while a change to hintegral still shows in full.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Time of reference_time()'s loop on an unloaded 2-core x86-64 VM under
# Python 3.11; the unit in which scaled timings are expressed.
REFERENCE_S = 1.0e-3


def reference_time() -> float:
    """Seconds taken by a fixed loop of Fraction arithmetic and dict work
    (the kind of work hintegral does), never calling into hintegral."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    seen = {}
    for i in range(1, 400):
        acc += Fraction(i % 7 + 1, i + 3)
        seen[i] = str(acc.denominator % 1000)
    return time.perf_counter() - t0


def steady_reference_time(samples: int = 3) -> float:
    return statistics.median(reference_time() for _ in range(samples))


def scale(seconds: float, ref_before: float, ref_after: float) -> float:
    """``seconds`` at reference speed, from the references around it."""
    return seconds * REFERENCE_S * 2 / (ref_before + ref_after)
