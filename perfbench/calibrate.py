"""Machine-speed calibration for a shared, noisy host.

On a host whose cores are shared with other tenants, the same code runs up
to twice as slow for stretches of several seconds. A fixed pure-Python
kernel with the program's instruction mix, timed before every operation
and after the last, tracks that speed: dividing each operation's time by
the kernel time measured just before and just after it gives a time that
no longer depends on the phase the run fell into. The speed also shifts
within a second, so these nearest samples track it better than an average
over a longer window does. Timings are reported scaled to a host on which
one kernel run takes ``REFERENCE_S``, close to the kernel's fastest time on
the 2-core x86-64 host the benchmark was tuned on, so they still read as
seconds.

The kernel imports nothing from the program, so a change to the program
cannot change its time, as long as the program leaves nothing running
between calls; only the host can.
"""

from __future__ import annotations

import bisect
import math
import random
from heapq import heappop, heappush
from itertools import combinations
from time import perf_counter

REFERENCE_S = 0.0022

_VERTICES = 600
_SOURCES = (0, 1, 2)


def _graph() -> tuple[tuple[tuple[int, tuple[int]], ...], ...]:
    rng = random.Random("calibration")
    return tuple(
        tuple(sorted((rng.randrange(_VERTICES), (rng.randint(1, 9),)) for _ in range(4)))
        for _ in range(_VERTICES)
    )


_ADJACENCY = _graph()


def _row(source: int) -> tuple[float, ...]:
    best = [math.inf] * _VERTICES
    best[source] = 0
    done = [False] * _VERTICES
    row = [math.inf] * _VERTICES
    heap = [(0, source)]
    while heap:
        d, u = heappop(heap)
        if done[u]:
            continue
        done[u] = True
        row[u] = d
        for v, weights in _ADJACENCY[u]:
            if not done[v] and d + weights[0] < best[v]:
                best[v] = d + weights[0]
                heappush(heap, (best[v], v))
    return tuple(row)


def kernel() -> tuple[float, ...]:
    """The program's instruction mix in miniature: a few heap-driven
    searches, then a per-vertex pass over pairwise differences."""
    rows = [_row(s) for s in _SOURCES]
    pairs = list(combinations(range(len(rows)), 2))
    values = []
    for v in range(_VERTICES):
        column = [row[v] for row in rows]
        if math.inf in column:
            values.append(math.inf)
            continue
        values.append(math.fsum(abs(column[a] - column[b]) for a, b in pairs))
    return tuple(values)


class Speedometer:
    """Kernel timings taken through a run, and the scale they imply."""

    def __init__(self) -> None:
        self.times: list[float] = []  # when each sample was taken
        self.kernels: list[float] = []  # the kernel's time at that moment

    def sample(self) -> None:
        start = perf_counter()
        kernel()
        end = perf_counter()
        self.times.append(end)
        self.kernels.append(end - start)

    def scale(self, start: float, end: float) -> float:
        """Reference-speed factor for an interval: REFERENCE_S over the mean
        kernel time of the last sample before it and the first one after."""
        before = max(bisect.bisect_right(self.times, start) - 1, 0)
        after = min(bisect.bisect_left(self.times, end), len(self.times) - 1)
        return 2 * REFERENCE_S / (self.kernels[before] + self.kernels[after])
