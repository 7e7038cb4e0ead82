"""Times scaled to a fixed machine speed.

The benchmark runs on shared hosts whose speed drifts: on a 2-core VM the
same single-threaded Python code runs up to 1.5x slower for seconds to
minutes at a time, with the process's CPU time drifting as much as its wall
time.  Taking a query's fastest round cannot remove a drift that lasts the
whole run.

So the run interleaves a fixed reference computation (``reference``: exact
rational elimination plus a JSON round trip, the same kinds of work as the
program's) with the queries, and scales every measured interval by how fast
the reference ran around it:

    scaled = measured * REFERENCE_S / (median reference time nearby)

A scaled time reads in seconds of a machine on which one ``reference`` call
takes ``REFERENCE_S``.  The reference is part of the benchmark, not of the
program, so a change to the program moves the scaled times exactly as it
moves the raw ones; the host's drift moves both the interval and the
reference and cancels.
"""

from __future__ import annotations

import bisect
import json
import random
import statistics
import time
from fractions import Fraction

# One reference call on an unloaded 2-core x86-64 VM with Python 3.11; only
# a unit, so that scaled times read near real seconds.
REFERENCE_S = 0.001
# a reference sample is taken after at most this much measured time
SAMPLE_EVERY_S = 0.02
# each interval is scaled by the median of this many samples nearest to it
NEAREST = 5

_RNG = random.Random(7)
_MATRIX = [[Fraction(_RNG.randint(-9, 9), _RNG.randint(1, 9)) for _ in range(6)]
           for _ in range(6)]
_DOCUMENT = json.dumps({
    "states": [f"s{i}" for i in range(40)],
    "moves": [{"from": f"s{i}", "letter": "ab"[i % 2], "to": f"s{(3 * i) % 40}",
               "p": f"{i % 5 + 1}/6"} for i in range(40)],
})


def reference() -> None:
    """A fixed piece of work: Gauss-Jordan elimination over the rationals
    and a JSON parse, rational parse and re-serialisation."""
    m = [row[:] for row in _MATRIX]
    for c in range(len(m)):
        p = next(r for r in range(c, len(m)) if m[r][c])
        m[c], m[p] = m[p], m[c]
        for r in range(len(m)):
            if r != c and m[r][c]:
                f = m[r][c] / m[c][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    doc = json.loads(_DOCUMENT)
    json.dumps([str(Fraction(move["p"])) for move in doc["moves"]])


class Clock:
    """Reference samples ``(midpoint, seconds)`` taken between measured
    intervals, in time order."""

    def __init__(self):
        self._at: list[float] = []
        self.took: list[float] = []
        self._due = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        reference()
        end = time.perf_counter()
        self._at.append((start + end) / 2)
        self.took.append(end - start)
        self._due = end + SAMPLE_EVERY_S

    def maybe_sample(self) -> None:
        """Sample if the last sample is more than SAMPLE_EVERY_S old."""
        if time.perf_counter() >= self._due:
            self.sample()

    def median(self) -> float:
        """The median reference time over every sample."""
        return statistics.median(self.took)

    def scaled(self, start: float, end: float) -> float:
        """The interval [start, end] in reference-machine seconds."""
        middle = bisect.bisect(self._at, (start + end) / 2)
        low = max(0, min(middle - NEAREST // 2, len(self._at) - NEAREST))
        nearby = self.took[low:low + NEAREST]
        return (end - start) * REFERENCE_S / statistics.median(nearby)
