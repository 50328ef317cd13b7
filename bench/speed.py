"""Machine-speed reference for timing on a shared machine.

On a small shared box the same code runs up to 1.7x slower for seconds at a
time, so raw wall times of identical runs spread by a quarter.  While a run
measures, SpeedSampler takes a short raw ``hashlib.sha256`` rate sample every
PERIOD seconds (SIGALRM, 2-4 % of the time).  A timed interval is then
reported in reference seconds: its wall time times the mean sampled rate
around it, over NOMINAL_RATE.  Each sample is first replaced by the median of
its SMOOTH nearest samples, so that one disturbed sample does not skew the
short ops timed against it.  On a machine that hashes NOMINAL_RATE digests
per second, a reference second is a wall-clock second.  The samples' own
time is taken out of every interval they fall in.
"""

from __future__ import annotations

import bisect
import hashlib
import signal
import statistics
import time

NOMINAL_RATE = 1.5e6  # SHA-256 digests per second of a 100-byte input
PERIOD = 0.05
SAMPLE_HASHES = 2000
SMOOTH = 5
PAYLOAD = bytes(100)


def sha256_rate(hashes: int = SAMPLE_HASHES) -> tuple:
    """(midpoint time, digests per second) of one short sample."""
    perf = time.perf_counter
    sha256 = hashlib.sha256
    start = perf()
    for _ in range(hashes):
        sha256(PAYLOAD).digest()
    end = perf()
    return (start + end) / 2, hashes / (end - start)


class SpeedSampler:
    def __init__(self):
        self.times: list = []
        self.rates: list = []
        self._busy = [0.0]  # time spent sampling before each sample, cumulative
        self._smoothed: list = []
        self._previous = None

    def sample(self, *_):
        start = time.perf_counter()
        t, rate = sha256_rate()
        self.times.append(t)
        self.rates.append(rate)
        self._busy.append(self._busy[-1] + time.perf_counter() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def scale(self, start: float, end: float) -> float:
        """Mean sampled rate from the last sample before start through the
        first after end, over NOMINAL_RATE."""
        if len(self._smoothed) != len(self.rates):
            half = SMOOTH // 2
            self._smoothed = [statistics.median(self.rates[max(i - half, 0):i + half + 1])
                              for i in range(len(self.rates))]
        lo = max(bisect.bisect_right(self.times, start) - 1, 0)
        hi = min(bisect.bisect_left(self.times, end), len(self.times) - 1)
        rates = self._smoothed[lo:hi + 1]
        return sum(rates) / len(rates) / NOMINAL_RATE

    def reference_s(self, start: float, end: float) -> float:
        """Wall time of [start, end] without the samples taken inside it,
        in reference seconds."""
        sampling = (self._busy[bisect.bisect_left(self.times, end)]
                    - self._busy[bisect.bisect_left(self.times, start)])
        return (end - start - sampling) * self.scale(start, end)

    def median_rate(self) -> float:
        return statistics.median(self.rates)
