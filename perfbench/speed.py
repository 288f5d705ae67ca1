"""Gauge the machine's speed while a timed interval runs.

A shared virtual machine can run identical work at speeds up to ~2x apart,
in spells of seconds to minutes. While a SpeedProbe is entered, a SIGALRM
handler times one fixed reference computation every INTERVAL_S of wall time;
`scale(start, end)` converts wall time spent in an interval into time at the
reference speed, at which the reference takes `reference_s`. The handler's
own time, `busy`, is left out of the timings it scales.

Imports nothing beyond the standard library, so that set-up probes can use it
before the program's own imports are timed.
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_left, bisect_right
from typing import Callable

INTERVAL_S = 0.02  # wall time between two samples
MARGIN_S = 0.1     # samples this close to an interval gauge its speed


class SpeedProbe:
    def __init__(self, work: Callable[[], object], reference_s: float,
                 clock=time.perf_counter):
        self.work = work
        self.reference_s = reference_s
        self.clock = clock
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.busy = 0.0

    def sample(self, *_signal_args) -> None:
        t0 = self.clock()
        self.work()
        duration = self.clock() - t0
        self.starts.append(t0)
        self.durations.append(duration)
        self.busy += duration

    def __enter__(self):
        self.sample()  # so that even an interval shorter than INTERVAL_S is gauged
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float) -> float:
        """Factor from wall time spent in [start, end] to time at the
        reference speed: reference_s over the mean duration of the samples
        taken within MARGIN_S of the interval; if there are none, of the next
        sample (or the last one)."""
        lo = bisect_left(self.starts, start - MARGIN_S)
        hi = bisect_right(self.starts, end + MARGIN_S)
        if lo == hi:
            lo = min(lo, len(self.starts) - 1)
            hi = lo + 1
        window = self.durations[lo:hi]
        return self.reference_s * len(window) / sum(window)
