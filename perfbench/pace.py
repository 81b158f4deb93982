"""Host pace: a fixed reference workload timed beside every measurement.

On a shared host the speed one process gets drifts by tens of percent, over
seconds and over minutes, with what other tenants run; on the development
host the pace flipped between two levels (the probe below taking about 3 ms
or about 5 ms) several times a second, and the share of slow spells moved
from minute to minute.  Taking the fastest of a few samples does not remove
that: a slow spell can cover a whole run.  So every interval the benchmark
times lies among runs of :func:`probe`, a fixed pure-Python workload with a
discrete-event simulator's mix of operations (a heap of small objects, dict
updates, float math), and is reported scaled by the pace the probes saw::

    scaled = seconds * PACE_REF_S / mean(probe times)

that is, in seconds on a host where the probe takes :data:`PACE_REF_S`.  A
short interval (one cold unit) is scaled by the two probes that bracket it.
A long one (a warm pass, a cold start) spans several pace flips, which two
probes would miss, so a series of them is scaled by the mean of all the
probes taken between its intervals.  The probe runs no ``repro`` code, so a
change to the program moves a scaled figure exactly as much as the raw one;
only the host's drift cancels.  On a 2-vCPU cloud VM, over 25 s windows of
a 200 s trace, the median raw latency of a packet unit, a fluid unit and a
warm pass moved with an inter-quartile spread of 17-24%, and the
bracket-scaled ones 1-3%.
"""

from __future__ import annotations

import gc
import heapq
import math
import statistics
import time

__all__ = ["PACE_REF_S", "probe", "probes", "scaled"]

clock = time.perf_counter

#: The probe's time on an unloaded development host (2-vCPU cloud VM,
#: Python 3.11); it only sets the scale of the reported seconds.
PACE_REF_S = 0.003

#: Events the probe pushes through its heap.
PROBE_EVENTS = 2000

#: Probes taken in each gap of a series of long intervals.
PROBES_PER_GAP = 3


class _Event:
    __slots__ = ("time", "key", "value")

    def __init__(self, time_: float, key: int, value: int) -> None:
        self.time = time_
        self.key = key
        self.value = value

    def __lt__(self, other: "_Event") -> bool:
        return self.time < other.time


def _workload() -> float:
    heap: list[_Event] = []
    totals: dict[int, float] = {}
    acc = 0.0
    for i in range(PROBE_EVENTS):
        heapq.heappush(heap, _Event((i * 7919) % 1009 * 0.001, i & 63, i))
    while heap:
        event = heapq.heappop(heap)
        totals[event.key] = totals.get(event.key, 0.0) + event.time * 1.5
        acc += math.sqrt(event.value + 1.0)
    return acc + sum(totals.values())


def probe() -> float:
    """Seconds the reference workload takes now.

    The collector is off while it runs, so the size of the caller's heap
    (which a change to the program may move) cannot lengthen the probe.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        _workload()
        return clock() - start
    finally:
        if enabled:
            gc.enable()


def probes() -> list[float]:
    """:data:`PROBES_PER_GAP` probe times, taken back to back."""
    return [probe() for _ in range(PROBES_PER_GAP)]


def scaled(seconds: float, *probe_times: float) -> float:
    """``seconds`` on a host where the probe takes :data:`PACE_REF_S`, given
    the probe times measured around the interval (or series of them)."""
    return seconds * PACE_REF_S / statistics.fmean(probe_times)
