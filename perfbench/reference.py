"""A fixed reference computation, timed beside every measured interval.

On a shared 2-vCPU Intel Xeon virtual machine (2.0 GHz) the speed moves
by up to 1.5x for seconds at a time, from other tenants' load; the same
unit of work takes 0.6 s in one stretch and 0.9 s in the next.  A fixed
computation of the same kind (numpy on small integer arrays, dict and
list work) slows at the same times, by a similar factor.  So every host
interval is timed together with this reference, just before and just
after it, and scaled to the speed at which the reference takes
``NOMINAL_S``:

    scaled_seconds = seconds * NOMINAL_S / reference_seconds

The reference is benchmark code and never changes with the program, so
a change to the program moves the scaled time in the same proportion
as the raw time.  On that machine, 10-second windows of raw unit times
spread by 26% (interquartile over median); scaled, by 4%.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.010
"""Reference duration that defines the scaled host second."""

_ARRAYS = [
    np.random.default_rng(0).integers(0, 5000, size=300) for _ in range(64)
]


def _job() -> int:
    table: dict = {}
    for _ in range(3):
        for values in _ARRAYS:
            unique = np.unique(values)
            table[len(table)] = (int(unique.sum()), values[::3].copy())
            for v in values[:40].tolist():
                table[v] = table.get(v, 0)
    return len(table)


def measure() -> float:
    """Seconds the reference takes now (median of three)."""
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        _job()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


class Scaler:
    """Scales host intervals by the reference timed around them."""

    def __init__(self) -> None:
        self.mark()

    def mark(self) -> None:
        """Time the reference now, as the 'before' of the next interval."""
        self.last = measure()

    def scale(self, seconds: float) -> float:
        """``seconds`` just measured, scaled by the mean of the reference
        before it (the last one timed) and after it (timed now)."""
        before, self.last = self.last, measure()
        return seconds * NOMINAL_S / ((before + self.last) / 2.0)
