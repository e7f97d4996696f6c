"""Speed probe: a fixed pure-Python kernel timed between operations.

On a shared host the speed of one instruction stream drifts: on the 2-core
box this benchmark was built on, by ±20% and more within a run and between
runs a minute apart, through other tenants' load on caches and memory.
That drift, not the seed, dominated run-to-run spread.  The probe times a
kernel that never touches qell, at least every PROBE_EVERY_S between
operations and, for work done in-process, also from a SIGALRM timer, so it
samples during set-up and during long operations (a cold S6 build takes
seconds); each sample's start and end are kept, and ``spent_between`` gives
the probe time inside an interval, which is taken off that interval.
``factor_around`` is the median kernel time near one operation over
REFERENCE_S; a latency divided by it is in "reference seconds", what the
run would have measured on a host where the kernel takes REFERENCE_S.

The kernel is dictionary lookups over a 40 000-tuple table (about 6 MB), so
it is bound by caches and memory like the library's own loops; across runs
on that box the library's speed followed the kernel's with a log-log slope
of 1.0, and normalising cut the interquartile spread of maps-warm throughput
from 11-22% to about 6%.  A change to qell cannot move the kernel, so it
cannot move the factor, except by competing with the worker for the CPU,
which the workloads rule out (one process, no threads).
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

REFERENCE_S = 0.004
PROBE_EVERY_S = 0.2
REPEATS = 2             # a sample is the fastest of this many back-to-back kernels
clock = time.perf_counter


def _table() -> list[tuple]:
    return [tuple((i * k) % 97 for k in range(8)) for i in range(40000)]


def kernel(rows: list[tuple]) -> int:
    counts: dict = {}
    for row in rows[::3]:
        counts[row] = counts.get(row, 0) + 1
    hits = 0
    for row in rows[1::7]:
        hits += counts.get(row, 0)
    return hits


class Probe:
    def __init__(self):
        start = clock()
        self.rows = _table()
        self.samples: list[float] = []
        self.starts: list[float] = []       # when each sample began
        self.stamps: list[float] = []       # when each sample ended
        self.last = clock()
        self.spent = self.last - start      # building the table counts as probe time
        self._sampling = False

    def sample(self, *_signal_args):
        """Fastest of REPEATS kernels, so a single interruption does not count."""
        if self._sampling:          # the timer fired during a sample
            return
        self._sampling = True
        start = clock()
        times = []
        for _ in range(REPEATS):
            t0 = clock()
            kernel(self.rows)
            times.append(clock() - t0)
        self.last = clock()
        self.samples.append(min(times))
        self.starts.append(start)
        self.stamps.append(self.last)
        self.spent += self.last - start
        self._sampling = False

    def start_timer(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop_timer(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def maybe(self):
        """Sample if PROBE_EVERY_S has passed since the last sample."""
        if clock() - self.last >= PROBE_EVERY_S:
            self.sample()

    def spent_between(self, t0: float, t1: float) -> float:
        """Probe time that falls inside [t0, t1].

        Read from the samples' own start and end, so a sample the timer takes
        just before t0 or just after t1 is not counted, whenever it ran.
        """
        total = 0.0
        i = bisect.bisect_left(self.stamps, t0)
        while i < len(self.stamps) and self.starts[i] < t1:
            total += min(self.stamps[i], t1) - max(self.starts[i], t0)
            i += 1
        return total

    def factor_since(self, first: int) -> float:
        """Factor from the samples from index ``first`` on; 0.0 if there are none."""
        rest = self.samples[first:]
        return statistics.median(rest) / REFERENCE_S if rest else 0.0

    def factor(self) -> float:
        """Median kernel time over REFERENCE_S (above 1 on a slow host)."""
        if not self.samples:
            self.sample()
        return statistics.median(self.samples) / REFERENCE_S

    def factor_around(self, t0: float, t1: float) -> float:
        """The factor from the samples taken within PROBE_EVERY_S of [t0, t1]
        (the nearest sample if there is none)."""
        if not self.samples:
            self.sample()
        lo = bisect.bisect_left(self.stamps, t0 - PROBE_EVERY_S)
        hi = bisect.bisect_right(self.stamps, t1 + PROBE_EVERY_S)
        if lo == hi:
            lo, hi = (lo - 1, lo) if lo == len(self.stamps) else (lo, lo + 1)
        return statistics.median(self.samples[lo:hi]) / REFERENCE_S
