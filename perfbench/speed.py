"""CPU-speed probe for reference-second timing.

On a shared machine the speed of the benchmark's core changes by up to
2x within seconds, as neighbours come and go.  CPU time changes with it,
so neither wall nor CPU time alone says what the program costs.
:class:`SpeedProbe` samples that speed on the benchmark's main thread: a
SIGALRM timer fires every ``INTERVAL_S`` and the handler times a fixed
pure-Python loop with the thread's CPU clock.  A stretch of wall time
converts to reference seconds by scaling each sample interval by
``REFERENCE_LOOP_S / loop time``: a reference second is the time the work
would take on a CPU that runs the loop in exactly ``REFERENCE_LOOP_S``.
The handler's own time is left out.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.1
LOOP_ITERATIONS = 15_000
REFERENCE_LOOP_S = 1e-3


def _loop() -> int:
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i
    return total


class SpeedProbe:
    """Context manager that samples the loop time while it is active."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # (wall end, loop s, handler wall s)
        self._previous = None

    def _sample(self, signum, frame):
        wall0 = time.perf_counter()
        cpu0 = time.thread_time()
        _loop()
        cpu = time.thread_time() - cpu0
        end = time.perf_counter()
        self.samples.append((end, cpu, end - wall0))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def reference_seconds(self, start: float, end: float) -> float:
        """Reference seconds in the wall interval [start, end], without the
        handler's own time.  Each sample's loop time stands for the interval
        since the sample before it; time after the last sample runs at the
        last sample's speed."""
        if not self.samples:
            raise RuntimeError("no speed sample taken")
        total = 0.0
        previous = start
        first = bisect.bisect_right(self.samples, start, key=lambda s: s[0])
        for wall_end, loop_s, handler_s in self.samples[first:]:
            if wall_end >= end:
                return total + (end - previous) * REFERENCE_LOOP_S / loop_s
            total += max(wall_end - previous - handler_s, 0.0) * REFERENCE_LOOP_S / loop_s
            previous = wall_end
        return total + (end - previous) * REFERENCE_LOOP_S / self.samples[-1][1]

    def median_loop_s(self, start: float, end: float) -> float:
        return statistics.median(s[1] for s in self.samples if start < s[0] <= end)
