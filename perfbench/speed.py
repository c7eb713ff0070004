"""Times scaled to a reference CPU speed, measured as the runs go.

On a shared host the CPU can run this process at speeds up to 1.7 times
apart.  On a shared 2-vCPU x86-64 VM at 2 GHz it switched every few
seconds, and it stayed fast or slow for minutes at a time.  Repeating one
fixed kernelize call for 90 seconds there gave 3.7-4.2 ms in the one state
and 6-7 ms in the other, and the median of identical work moved by 13%
(interquartile range over median) between 45-second windows.
No statistic over a run's own timings removes that: a run that falls
entirely in one state reads that state.

So the benchmark times a fixed slice of pure-Python graph work (breadth-
first searches over a fixed random graph: the dict, set and list work that
domkernel does) between the runs, at most INTERVAL CPU seconds apart, and
scales each timed interval by REF_SLICE_S over the mean time of the slices
just before it, within it and just after it.  Over the same 45-second
windows, the scaled times of the same work moved by 2-3%.  A change to the program
changes its own time, not the slice's, so it moves the scaled time by the
same share.  A scaled time is what the interval would take on a CPU on
which the slice takes REF_SLICE_S.
"""

from __future__ import annotations

import bisect
import random

from spans import clock

REF_SLICE_S = 0.015  # about the slice's time on a 2 GHz x86-64 vCPU, fast state
INTERVAL = 0.2  # CPU seconds of work between slices, at most
_NODES = 2000
_SOURCES = range(0, _NODES, 200)


def _graph() -> dict:
    rng = random.Random(0)  # fixed: the slice is the same work in every run
    adj = {v: set() for v in range(_NODES)}
    for _ in range(3 * _NODES):
        a, b = rng.randrange(_NODES), rng.randrange(_NODES)
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    return adj


class Speed:
    """Slices timed in this process, and the scaling they give."""

    def __init__(self) -> None:
        self.adj = _graph()
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.spent = 0.0  # CPU seconds of all slices, to leave out of pass times
        self.active = False  # tick() slices only while this is set

    def slice(self) -> None:
        """Time one slice."""
        adj = self.adj
        start = clock()
        for src in _SOURCES:
            seen = {src}
            front = [src]
            while front:
                nxt = []
                for u in front:
                    for w in adj[u]:
                        if w not in seen:
                            seen.add(w)
                            nxt.append(w)
                front = nxt
        end = clock()
        self.starts.append(start)
        self.ends.append(end)
        self.spent += end - start

    def tick(self) -> None:
        """Called between runs: time a slice if INTERVAL has passed."""
        if self.active and (not self.ends or clock() - self.ends[-1] >= INTERVAL):
            self.slice()

    def factor(self, start, end) -> float:
        """Reference seconds per CPU second over the CPU-clock interval
        from start to end: REF_SLICE_S over the mean time of the slices
        just before it, within it and just after it."""
        first = max(bisect.bisect_right(self.ends, start) - 1, 0)
        last = bisect.bisect_left(self.starts, end) + 1
        near = [e - s for s, e in zip(self.starts[first:last], self.ends[first:last])]
        return REF_SLICE_S * len(near) / sum(near)

    def scaled(self, interval) -> float:
        """Seconds the (start, end) CPU-clock interval takes at the
        reference speed."""
        start, end = interval
        return (end - start) * self.factor(start, end)
