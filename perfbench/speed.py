"""Machine-speed calibration, so that reported times compare across runs.

The machine this benchmark is built for is shared: the same pure-Python
or big-integer work ran up to a third slower from one five-second window
to the next, which no amount of repetition inside a 30-second run averages
away.  So every reported time is scaled to a reference speed: a fixed
calibration chunk (a bytecode loop plus big-integer multiply and gcd,
touching nothing of gibonacci) is timed before every op and after the
last, and an op's time is multiplied by ``REFERENCE_S`` over the median
chunk time around the op.  Raw
times are printed beside the scaled ones.
"""

from __future__ import annotations

import math
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

#: Nominal chunk time: scaled times read as on a machine that runs the
#: chunk in exactly this long.
REFERENCE_S = 0.005

#: Chunks this close to an op, before or after, set its speed.
WINDOW_S = 0.5

_A, _B = 3**28000, 7**21000
_G1, _G2 = 3**13000 + 1, 7**10000


def chunk() -> int:
    x = 0
    last = {}
    for j in range(20000):
        x += j * j % 7
        last[j & 255] = x
    return x + (_A * _B).bit_length() + math.gcd(_G1, _G2)


class SpeedLog:
    """Chunk timings taken between ops."""

    def __init__(self) -> None:
        self.times: list[float] = []  # midpoint of each chunk run
        self.durations: list[float] = []

    def calibrate(self) -> None:
        start = perf_counter()
        chunk()
        end = perf_counter()
        self.times.append((start + end) / 2)
        self.durations.append(end - start)

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the median time of the chunks run within
        ``WINDOW_S`` of the op, and at least the one just before and the
        one just after it: one 5 ms chunk alone is too noisy a yardstick."""
        lo = min(bisect_right(self.times, start) - 1, bisect_left(self.times, start - WINDOW_S))
        hi = max(bisect_right(self.times, end), bisect_right(self.times, end + WINDOW_S) - 1)
        return REFERENCE_S / statistics.median(self.durations[max(lo, 0):hi + 1])
