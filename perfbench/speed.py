"""Machine speed, measured while the program runs, to scale its times.

The shared machines this benchmark runs on change speed by more than half
within minutes (other tenants' load on shared cores), which would swamp any
change to the program. A timer signal interrupts the run every
``INTERVAL_S`` seconds and times a short fixed pure-Python loop. A time
measured over a window is then reported at reference speed: the wall time
less the time the loop itself took, times ``REFERENCE_MS`` over the median
loop time in that window.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array
from bisect import bisect_left

REFERENCE_MS = 0.45  # loop time that reported seconds correspond to
INTERVAL_S = 0.05
MIN_TICKS = 5

_N = 400
_ADJ = [[(v + 1) % _N, (v - 1) % _N, (v * 7 + 3) % _N, (v * 13 + 5) % _N] for v in range(_N)]


def _reference_loop() -> int:
    """Breadth-first searches over a fixed 4-regular graph, the kind of
    interpreter work subsym's kernels do."""
    total = 0
    for src in range(0, _N, 100):
        dist = [-1] * _N
        dist[src] = 0
        queue = [src]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            d = dist[v] + 1
            for w in _ADJ[v]:
                if dist[w] < 0:
                    dist[w] = d
                    queue.append(w)
        total += sum(dist)
    return total


class Speedometer:
    def __init__(self):
        self.tick_at = array("d")  # perf_counter at each tick's start
        self.tick_ms = array("d")  # how long each tick's loop took
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _reference_loop()
        self.tick_at.append(t0)
        self.tick_ms.append((time.perf_counter() - t0) * 1e3)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def __enter__(self) -> "Speedometer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def scaled(self, start: float, end: float) -> float:
        """Seconds at reference speed for the wall-clock window [start, end]."""
        lo, hi = bisect_left(self.tick_at, start), bisect_left(self.tick_at, end)
        stolen = sum(self.tick_ms[lo:hi]) / 1e3
        # a window too short for MIN_TICKS borrows the nearest ticks around it
        while hi - lo < MIN_TICKS and (lo > 0 or hi < len(self.tick_at)):
            lo, hi = max(0, lo - 1), min(len(self.tick_at), hi + 1)
        if hi == lo:
            return end - start
        return (end - start - stolen) * REFERENCE_MS / statistics.median(self.tick_ms[lo:hi])

    def wait_for_ticks(self, since: float) -> None:
        """Wait until MIN_TICKS ticks have come since ``since``, so that a
        window ending now has ticks to scale it by."""
        while len(self.tick_at) - bisect_left(self.tick_at, since) < MIN_TICKS:
            time.sleep(INTERVAL_S)

    def median_ms(self) -> float:
        return statistics.median(self.tick_ms) if self.tick_ms else float("nan")
