"""Wall times expressed at a fixed host speed.

The 2-vCPU virtual machines this benchmark runs on change speed by up to 2×
in phases of seconds to minutes, for every kind of code alike, and nothing
inside the machine shows why (no steal time; CPU time slows with wall time).
A run of 30 s cannot average such phases out, so the run-to-run spread of
raw wall times is as wide as the bounds allow.

:class:`HostClock` measures the phase while the program runs. A SIGALRM
handler times a fixed pure-Python kernel every ``PERIOD_S`` of wall time, in
the benchmark's own thread and core, between the program's bytecodes. An
interval's time at reference speed is its wall time, minus the kernel's own
time inside it, times ``REFERENCE_S`` over the median kernel time measured
across the window it belongs to. A program change that does more or less
work moves the result as it moves the wall time; a host phase moves the
kernel as well, and cancels.
"""
from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.05
KERNEL_ITERATIONS = 3000
# Near the kernel's median time on a 2-vCPU VM (0.4–0.65 ms). It is a fixed
# constant, so results of two commits compare directly.
REFERENCE_S = 0.0005


def _kernel() -> None:
    acc: dict[int, int] = {}
    for i in range(KERNEL_ITERATIONS):
        k = i % 97
        acc[k] = acc.get(k, 0) + i * 3


class HostClock:
    """Kernel timings ``(end, seconds)`` taken every ``PERIOD_S`` while started."""

    def __init__(self):
        self.ticks: list[tuple[float, float]] = []
        self._previous = None
        self._in_tick = False

    def _tick(self, signum=None, frame=None) -> None:
        if self._in_tick:  # a signal that lands inside the kernel is dropped
            return
        self._in_tick = True
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        self.ticks.append((t1, t1 - t0))
        self._in_tick = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _inside(self, lo: float, hi: float) -> list[tuple[float, float]]:
        return [(end, s) for end, s in self.ticks if lo <= end - s and end <= hi]

    def factor(self, lo: float, hi: float) -> float:
        """``REFERENCE_S`` over the median kernel time in ``[lo, hi]``."""
        inside = self._inside(lo, hi)
        if not inside:  # a window shorter than the period: take one sample now
            self._tick()
            inside = self.ticks[-1:]
        return REFERENCE_S / statistics.median(s for _, s in inside)

    def busy(self, lo: float, hi: float) -> float:
        """Kernel time spent inside ``[lo, hi]``."""
        return sum(s for _, s in self._inside(lo, hi))

    def seconds(self, intervals: list[tuple[float, float]]) -> list[float]:
        """Each interval's time at reference speed, with one factor for the whole window."""
        f = self.factor(intervals[0][0], intervals[-1][1])
        return [(b - a - self.busy(a, b)) * f for a, b in intervals]

    def reference_median_s(self) -> float:
        return statistics.median(s for _, s in self.ticks) if self.ticks else float("nan")
