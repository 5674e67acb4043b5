"""A reference snippet, timed at a fixed rate while a pass runs.

On a shared machine the speed of the CPU varies by tens of percent from
one second to the next, and CPU time inflates with wall time, so neither
is steady across runs.  While a pass runs, a SIGALRM handler times a
fixed snippet of the same kind of work as the checkers (string ids,
tuple keys, dict lookups) every ``PERIOD`` seconds.  The snippet slows
down with the machine but not with the library, so a pass time divided
by the median snippet time of that pass cancels most of the machine's
drift and still moves with every change to the library.  The snippet
costs about 1.5 % of a pass.

A task is divided by the snippet times sampled within ``PAD`` seconds
of it, so that short tasks follow the machine's speed at their own
moment rather than the pass's median.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD = 0.05
PAD = 0.25
# the snippet's median time on the 2 GHz machine the benchmark was sized
# on; ``setup_s`` is reported in seconds at this speed
NOMINAL_SNIPPET_S = 0.0005

_KEYS = [(f"{i}>{j}:{k:03d}", f"{j}>{i}:{k:03d}")
         for i in range(4) for j in range(4) for k in range(64)]
_TABLE = {key: key[0] for key in _KEYS}


def snippet():
    """About 0.7 ms of tuple-keyed lookups on a 2 GHz core."""
    hits = 0
    for _ in range(4):
        for key in _KEYS:
            hits += _TABLE[key] == key[1]
    return hits


class Sampler:
    """Collects ``(start, seconds)`` of each snippet while active;
    single-threaded, driven by ``ITIMER_REAL``."""

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        snippet()
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def take(self):
        """The samples since the last call."""
        out, self.samples = self.samples, []
        return out


def local_median(samples, start, end):
    """Median snippet time of the samples taken within ``PAD`` of the
    interval [start, end], or None if there are none."""
    starts = [t for t, _ in samples]
    lo = bisect.bisect_left(starts, start - PAD)
    hi = bisect.bisect_right(starts, end + PAD)
    return statistics.median(dt for _, dt in samples[lo:hi]) if hi > lo else None
