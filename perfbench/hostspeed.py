"""The host's speed, sampled with a fixed reference computation.

The benchmark shares its host, whose speed swings by up to a factor of two
over minutes, and both set-up and ops slow down with it.  A run therefore
times a fixed piece of pure-Python work, :func:`reference_unit`, at short
intervals between ops.  It uses the same kinds of operations as the program
under test: ``Fraction`` arithmetic, tuple-keyed dicts, small sets and a sort.
The unit belongs to the benchmark, so no change to the program can move it.

A run reports its times scaled to a host on which the unit takes
:data:`NOMINAL_UNIT_S`.  Each op's time is multiplied by ``NOMINAL_UNIT_S``
divided by the median time of the units sampled from :data:`WINDOW_S` before
the op began to ``WINDOW_S`` after it ended, or of the nearest units when
there are few there, because the host's speed moves within seconds.  A set-up's time is scaled by the units timed just before
and after it.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

# The unit's median time on this benchmark's reference host (2 vCPUs of a
# shared x86-64 host, Python 3.11, at a quiet moment).  Only the ratio of two
# runs' figures matters, so its exact value does not.
NOMINAL_UNIT_S = 0.0007
# Between ops, a run times one unit when this long has passed since the last.
SAMPLE_EVERY_S = 0.05
# An op is scaled by the units sampled within this long of it; with fewer
# than WINDOW_MIN_SAMPLES there, as during a run of long ops, by the
# WINDOW_MIN_SAMPLES units nearest its middle.
WINDOW_S = 1.0
WINDOW_MIN_SAMPLES = 10


def reference_unit() -> Fraction:
    """Fixed work of about a millisecond: fractions, dicts, sets and a sort."""
    table = {}
    acc = Fraction(0)
    for i in range(1, 100):
        f = Fraction(i, i + 3) * Fraction(7, i + 1)
        acc += f
        table[(i, i % 13)] = f
        _ = {j for j in range(i % 17)}
    sorted(table.values())
    return acc


class HostSpeed:
    """Times of the reference unit, sampled through a run."""

    def __init__(self) -> None:
        self.starts: list[float] = []  # in increasing order
        self.samples: list[float] = []  # unit time of each sample
        self._last = -float("inf")

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = time.perf_counter()
            reference_unit()
            t1 = time.perf_counter()
            self.starts.append(t0)
            self.samples.append(t1 - t0)
        self._last = t1

    def maybe_sample(self) -> None:
        """Times one unit if SAMPLE_EVERY_S has passed since the last one."""
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def scale(self) -> float:
        """Factor that turns a time measured here into one on the reference
        host: NOMINAL_UNIT_S over the median unit time."""
        return NOMINAL_UNIT_S / statistics.median(self.samples)

    def scale_at(self, start: float, end: float) -> float:
        """The factor for a time measured from ``start`` to ``end``."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        if hi - lo < WINDOW_MIN_SAMPLES:
            mid = bisect.bisect_left(self.starts, (start + end) / 2)
            lo = max(0, min(mid - WINDOW_MIN_SAMPLES // 2, len(self.starts) - WINDOW_MIN_SAMPLES))
            hi = lo + WINDOW_MIN_SAMPLES
        return NOMINAL_UNIT_S / statistics.median(self.samples[lo:hi])
