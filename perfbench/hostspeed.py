"""Host speed, measured with a fixed reference task.

The shared 2-vCPU host this benchmark was tuned on changes speed by up
to 1.6x, both from second to second and for minutes at a time, which
swamps any program change smaller than that.  Each run therefore times
a fixed reference task every ``SAMPLE_EVERY_S`` while it measures (a
compile of a fixed, generated Python source and a fixed loop of
Fraction arithmetic; nothing from the program), and scales each op's
time, and each launch's set-up time, by ``NOMINAL_S`` over the mean
time of the samples taken within ``WINDOW_S`` of it.  Over ten runs of decide on that host this cut
the quartile spread of ops_per_s, p50_s and tail_s from 0.26, 0.36 and
0.41 unscaled to 0.04, 0.05 and 0.06; one scale for the whole run left
0.14, 0.16 and 0.34.  The run prints the unscaled figures beside the
scaled ones.
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from statistics import mean
from time import perf_counter

# About the time of one sample on that host (Intel Xeon at 2.1 GHz,
# Python 3.11) in its faster phase; it only fixes the unit.
NOMINAL_S = 0.0025
# About 2% of the run's time goes to sampling.
SAMPLE_EVERY_S = 0.2
WINDOW_S = 1.0

_SOURCE = "\n".join(
    f"def f{i}(a, b):\n"
    f"    x = [a * {i} + b, {{'k{i}': b, 'j': a - {i}}}, (a, b, {i})]\n"
    f"    for y in range(a):\n"
    f"        x.append(y if y % {i + 2} else -y)\n"
    f"    return x[{i % 3}] if a > {i} else sorted(x[3:])\n"
    for i in range(25)
)


def _fractions() -> None:
    s, a = Fraction(0), Fraction(1, 3)
    for i in range(1, 150):
        s += a * Fraction(i, i + 7) - Fraction(1, i)
        if s > 5:
            s -= 5


class HostSpeed:
    def __init__(self):
        self.starts: list[float] = []
        self.samples: list[float] = []
        self.sample()  # warms up; replaced by the first real sample
        self.starts.clear()
        self.samples.clear()
        self.sample()

    def sample(self) -> None:
        t0 = perf_counter()
        compile(_SOURCE, "<reference>", "exec")
        _fractions()
        self.last = perf_counter()
        self.starts.append(t0)
        self.samples.append(self.last - t0)

    def tick(self) -> None:
        """Sample if ``SAMPLE_EVERY_S`` has passed since the last sample."""
        if perf_counter() - self.last >= SAMPLE_EVERY_S:
            self.sample()

    def scale(self) -> float:
        """Factor that turns a time measured during the run into nominal
        seconds, for figures not tied to one op."""
        return NOMINAL_S / mean(self.samples)

    def scale_at(self, t0: float, t1: float) -> float:
        """The same for something that ran from ``t0`` to ``t1``."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        near = self.samples[lo:hi] or [self.samples[min(lo, len(self.samples) - 1)]]
        return NOMINAL_S / mean(near)
