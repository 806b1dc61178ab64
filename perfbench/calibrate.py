"""Machine-speed calibration for timings taken on a shared host.

On a host whose cores are shared with other tenants, the speed of the same
single-threaded work changes by up to 2x, from one second to the next and
for tens of seconds at a time, with CPU time equal to wall time (the
slowdown is contention, not waiting). A median over one run cannot reject a
slow stretch that lasts the whole run.

A fixed calibration kernel, independent of nkshoot, is therefore timed
throughout each measurement, and a time is normalised by the kernel's local
duration:

    normalised = measured * ref_s / kernel duration nearby

which reads in seconds at the speed at which the kernel takes ref_s. The
kernel's own time is subtracted from every measured interval it falls in.
Raw times stay in the benchmark's record.

This module imports nothing outside the standard library, so that it can
calibrate ``import nkshoot`` itself; ``interp_kernel`` is its kernel for
that. Workload passes use ``numpy_kernel.kernel``, which is closer to what
a family solve does and tracks it better.
"""
from __future__ import annotations

import signal
import statistics
from bisect import bisect_left
from time import perf_counter

PERIOD_S = 0.025         # one kernel call per this much wall time
SMOOTH = 5               # kernel durations in each rolling median
# interp_kernel's duration at reference speed, about its median on an idle
# core of the 2-vCPU host the benchmark was written on
INTERP_REF_S = 2.5e-4


def interp_kernel() -> float:
    """Fixed pure-Python work: float arithmetic, dict and list operations."""
    acc = 0.0
    slots = {}
    seen = []
    for i in range(700):
        x = (i * 0.37) % 1.0
        acc += x * x - acc * 1e-3
        slots[i & 31] = acc
        seen.append(x)
    seen.sort()
    return acc


class Calibrator:
    """While active, a SIGALRM interval timer runs ``kernel`` every
    PERIOD_S seconds of wall time in the main thread and records when each
    call ran. Normalise only after the calibrator has exited, so that
    every interval has kernel calls on both sides."""

    def __init__(self, kernel, ref_s: float):
        self.kernel = kernel
        self.ref_s = ref_s
        self.samples: list[tuple[float, float]] = []
        self._starts: list[float] = []
        self._smooth: list[float] = []
        self._old_handler = None
        self._busy = False

    def _sample(self, *_):
        if self._busy:           # a tick during a kernel call: skip it
            return
        self._busy = True
        try:
            t0 = perf_counter()
            self.kernel()
            self.samples.append((t0, perf_counter()))
        finally:
            self._busy = False

    def __enter__(self):
        self.kernel()                              # unrecorded warm-up
        for _ in range(SMOOTH):
            self._sample()
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler)
        for _ in range(SMOOTH):
            self._sample()
        self._starts = [s for s, _ in self.samples]
        d = [e - s for s, e in self.samples]
        half = SMOOTH // 2
        self._smooth = [statistics.median(d[max(0, k - half):k + half + 1])
                        for k in range(len(d))]
        return False

    def kernel_s(self, t0: float, t1: float) -> float:
        """Median duration of the kernel calls made in [t0, t1], or of the
        nearest one if none was; ref_s over this is the relative speed."""
        inside = [e - s for s, e in self.samples if t0 <= s and e <= t1]
        if inside:
            return statistics.median(inside)
        return self._smooth[min(bisect_left(self._starts, t0),
                                len(self.samples) - 1)]

    def normalise(self, t0: float, t1: float) -> tuple[float, float]:
        """(net, normalised) seconds of the interval [t0, t1]: its length
        without the kernel calls inside it, and that time rescaled piece by
        piece by the smoothed kernel duration next to each piece."""
        i = bisect_left(self._starts, t0)
        j = bisect_left(self._starts, t1)
        net = norm = 0.0
        cursor = t0
        for k in range(i, j):
            start, end = self.samples[k]
            piece = max(0.0, start - cursor)
            net += piece
            norm += piece * self.ref_s / self._smooth[k]
            cursor = end
        piece = max(0.0, t1 - cursor)
        k = min(j, len(self.samples) - 1)
        net += piece
        norm += piece * self.ref_s / self._smooth[k]
        return net, norm
