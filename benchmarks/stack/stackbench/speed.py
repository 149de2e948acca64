"""Host CPU speed, sampled between timed regions, and timings corrected for it.

On the shared 2-core box this benchmark was sized on, the CPU itself runs at
anything from 0.4x to 1.4x its usual speed (CPU time moves with wall time: a
neighbour on the sibling thread, clock scaling), sometimes for a second,
sometimes for longer than a whole run.  Ten 15 s runs of ``query_fanout``'s
steady phase, keyed lower quartile over ~23 passes each, one of them wholly
inside a slow spell:

=========================================  ===========  ========
steady time                                quartile     range
                                           distance
=========================================  ===========  ========
wall clock                                 25.0 %       179 %
/ probe, x the run's own fastest probe     13.0 %       212 %
/ probe, x :data:`REFERENCE_S`             5.2 %        9.0 %
=========================================  ===========  ========

Only a reference that is the same for every run survives a spell longer than
a run, so CPU-bound closed-loop timings are divided by the cost of a short
fixed *probe* around them relative to :data:`REFERENCE_S`: a reported
millisecond is a millisecond at reference speed, and the wall-clock value of
every pass is printed beside it.  Two things are never corrected: the
open-loop leg's latency (a third of it is the gateway's 20 ms delivery timer,
and its schedule is in real time) and the generator's lateness.

The probe runs only *between* timed regions.  It is timed on the thread CPU
clock, so waiting for the GIL or for a core costs it nothing, and it is
shaped like the program — dict lookups, big-int masks, tuple and set
building — because a loop of plain arithmetic tracks the slow-down of such
code only half as well.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List

#: The probe's thread-CPU seconds at reference speed — the unit in which
#: "reference speed" is defined, near the probe's cost on the box the baseline
#: in README.md was recorded on when nothing else runs.  Changing it rescales
#: every corrected metric of every commit alike.
REFERENCE_S = 0.00025

_MASKS = {i: (1 << (i * 7 % 300)) | i for i in range(3000)}
_KEYS = list(range(0, 3000, 3))


def _work() -> float:
    started = time.thread_time()
    masks, acc, out = _MASKS, 0, []
    for key in _KEYS:
        value = masks[key]
        acc = (acc | value) & ~(value >> 3)
        out.append((key, acc & 1023))
    set(out)
    return time.thread_time() - started


def probe() -> float:
    """Thread-CPU seconds of one fixed piece of program-like work.

    The work runs twice and the second run is timed: the first pulls the
    probe's own data back into the cache, so the reading does not depend on
    how much of the cache the program under test had just displaced (cold,
    the same probe costs 1.8x as much after ``query_fanout`` as after an
    idle loop — a program change would move the ruler).
    """
    _work()
    return _work()


class SpeedTrack:
    """Probe samples along one pass, and the slow-down over any interval.

    Everything a pass times, it times on :meth:`clock`, which stands still
    while a probe runs: an interval that spans a probe (a match waiting in a
    worker across a segment boundary) does not contain it.
    """

    def __init__(self) -> None:
        self._at: List[float] = []
        self._cost: List[float] = []
        self._probing_s = 0.0

    def clock(self) -> float:
        """``perf_counter`` minus the time spent probing so far."""
        return time.perf_counter() - self._probing_s

    def sample(self, count: int = 1) -> None:
        started = time.perf_counter()
        costs = [probe() for _ in range(count)]
        self._probing_s += time.perf_counter() - started
        self._cost.extend(costs)
        self._at.extend([self.clock()] * count)

    def factor(self, start: float, end: float, margin: int = 4) -> float:
        """How much slower than reference the CPU ran over ``[start, end]``:
        the median probe among those inside it and ``margin`` on each side
        (a single probe reads +-10 %; the speed holds for a second or more)."""
        low = max(0, bisect.bisect_left(self._at, start) - margin)
        high = bisect.bisect_right(self._at, end) + margin
        return statistics.median(self._cost[low:high]) / REFERENCE_S

    def corrected(self, start: float, end: float) -> float:
        """``end - start`` in reference-speed seconds."""
        return (end - start) / self.factor(start, end)

    def median_factor(self) -> float:
        return statistics.median(self._cost) / REFERENCE_S
