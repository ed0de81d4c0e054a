"""Speed probe: a fixed piece of interpreter work, timed between jobs.

The benchmark runs on a shared host whose speed drifts by a third or
more over tens of seconds, as neighbouring tenants come and go.  The
process's CPU time equals its wall time throughout, so the drift cannot
be subtracted as time the process spent waiting.  The probe does the
same work every time, with the kinds of objects the program uses
(frozensets, dicts of sets, tuples), and none of the program's code.

A job's time multiplied by ``NOMINAL_S`` over the mean probe time next
to the job is the time the job would take when the probe takes exactly
``NOMINAL_S``.  A change to the program moves it in full; a change of
host speed mostly does not.  "Mostly": the probe's time flips between
two levels about 1.5x apart from one probe to the next, which code that
waits on memory feels less, so a single job's scaled time still varies;
the workloads' figures are medians or totals over many jobs.
"""

from __future__ import annotations

import bisect
import gc
import random
import time

# The probe's median time on the 2-vCPU Xeon VM (Python 3.11.7) where the
# benchmark was written.  Any constant would do: it only sets the scale.
NOMINAL_S = 0.020
CHECKSUM = 120_870
NEIGHBOURS = 6  # probes taken on each side of an interval
EVERY_S = 0.5  # seconds between probes


def probe_work() -> int:
    """Fixed work, independent of `sensorgames`; returns a checksum."""
    rng = random.Random(0)
    sets = [frozenset(rng.sample(range(96), 5)) for _ in range(700)]
    index: dict[int, set[int]] = {}
    for i, members in enumerate(sets):
        for x in members:
            index.setdefault(x, set()).add(i)
    pairs: dict[tuple[int, int], int] = {}
    total = 0
    for i, members in enumerate(sets):
        near = set().union(*(index[x] for x in members))
        pairs[min(members), max(members)] = len(near)
        total += len(near) + i % 7
    return total + len(pairs)


class SpeedProbe:
    """Probe timings along one process's run, and the scale they give."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.times: list[float] = []

    def probe(self) -> None:
        enabled = gc.isenabled()
        gc.disable()  # keep the program's heap out of the probe's time
        try:
            start = time.perf_counter()
            checksum = probe_work()
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        if checksum != CHECKSUM:
            raise RuntimeError(f"speed probe gave {checksum}, expected {CHECKSUM}")
        self.starts.append(start)
        self.ends.append(end)
        self.times.append(end - start)

    def tick(self) -> None:
        """Probe once per ``EVERY_S`` seconds since the last probe, at most
        ``NEIGHBOURS`` times, so that a long job has as many probes on each
        side as a short one."""
        since = time.perf_counter() - self.ends[-1] if self.ends else EVERY_S
        for _ in range(min(int(since / EVERY_S), NEIGHBOURS)):
            self.probe()

    def scale(self, start: float, end: float) -> float:
        """``NOMINAL_S`` over the mean of the probes next to [start, end]:
        up to ``NEIGHBOURS`` that ended before it, those inside it, and up
        to ``NEIGHBOURS`` that started after it."""
        first = max(bisect.bisect_right(self.ends, start) - NEIGHBOURS, 0)
        last = bisect.bisect_left(self.starts, end) + NEIGHBOURS
        near = self.times[first:last]
        if not near:
            raise RuntimeError("no speed probe was taken")
        return NOMINAL_S * len(near) / sum(near)

    def scaled(self, start: float, end: float) -> float:
        return (end - start) * self.scale(start, end)
