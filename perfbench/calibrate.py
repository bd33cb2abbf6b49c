"""Host-speed calibration.

The benchmark runs on small shared virtual machines whose speed drifts by
20-40% within a minute while the work stays the same.  To keep run-to-run
spread below the benchmark's bounds, every worker samples the host's speed
while it works, by timing a fixed chunk of interpreter work (rational
arithmetic and a small dict), and reports every time scaled by
``REFERENCE_CHUNK_S / chunk time`` around the same interval: "seconds on a
host that runs the chunk in the reference time".  The time spent in chunks is
subtracted from the intervals they interrupted.

A sample is the median of three chunks after one untimed chunk, so caches
the interrupted work evicted are refilled first and the program's own memory
footprint does not move the scale.  The chunk uses only the standard library
and never calls the program, and garbage collection is off inside it, so a
change to the program cannot change the scale.

In a busy process, samples are taken on a ``SIGALRM`` timer every
``PERIOD_S`` (in the main thread, between bytecodes).  A process that mostly
waits on subprocesses would sample an idle processor, so it calls
``sample(spin=True)`` between requests instead, which first runs for
``SPIN_S`` to bring the processor out of idle.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from fractions import Fraction

PERIOD_S = 0.05
SPIN_S = 0.003
MARGIN_S = 1.0
REFERENCE_CHUNK_S = 0.0002


def chunk() -> int:
    enabled = gc.isenabled()
    gc.disable()
    try:
        acc = Fraction(0)
        seen = {}
        for i in range(1, 40):
            acc += Fraction(i, i + 7) * Fraction(3, i + 1)
            seen[(i, acc.denominator % 101)] = acc.numerator % 97
        return len(seen)
    finally:
        if enabled:
            gc.enable()


class Calibrator:
    """Chunk timings, taken while the process works."""

    def __init__(self):
        self.samples: list[float] = []
        self.times: list[float] = []  # when each sample was taken
        self.spent = 0.0  # seconds spent calibrating so far

    def sample(self, *_, spin: bool = False) -> None:
        begin = time.perf_counter()
        if spin:
            while time.perf_counter() - begin < SPIN_S:
                chunk()
        chunk()
        times = []
        for _ in range(3):
            start = time.perf_counter()
            chunk()
            times.append(time.perf_counter() - start)
        self.samples.append(sorted(times)[1])
        self.times.append(begin)
        self.spent += time.perf_counter() - begin

    def start(self, burst: int = 5) -> None:
        """Take ``burst`` samples now, then one every ``PERIOD_S``."""
        for _ in range(burst):
            self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mean_since(self, index: int) -> float:
        """Mean sample since sample ``index``; when fewer than three samples
        fell in that interval, the mean of the latest ten."""
        window = self.samples[index:]
        if len(window) < 3:
            window = self.samples[-10:]
        return sum(window) / len(window)

    def scale_since(self, index: int) -> float:
        """Factor converting seconds since sample ``index`` to reference seconds."""
        return REFERENCE_CHUNK_S / self.mean_since(index)

    def scale_around(self, start: float, end: float) -> float:
        """Factor for an interval that has ended, from the samples taken
        within ``MARGIN_S`` of it: a request shorter than the sampling period
        then gets a steady estimate instead of one or two samples."""
        low = bisect.bisect_left(self.times, start - MARGIN_S)
        high = bisect.bisect_right(self.times, end + MARGIN_S)
        window = self.samples[low:high] or self.samples[-10:]
        return REFERENCE_CHUNK_S * len(window) / sum(window)
