"""How fast the workload's CPU runs while a sample runs.

The benchmark's recorded host is a shared virtual machine whose CPU
speed swings by up to 3x within seconds, independently on each of its
CPUs, and stays slow for seconds to minutes at a time (README.md).
Raw wall times then measure the neighbours as much as the program.  So
while a workload process runs, the parent, pinned to the same CPU,
wakes every ``PERIOD_S`` and times ``probe``, a fixed slice of
interpreter work, on its own thread's CPU clock (time the scheduler
gives the workload is not counted).  A sample's timings are divided by
the mean probe time over the same interval, relative to
``REFERENCE_S``: they read as seconds at the speed where one probe
takes ``REFERENCE_S``, the recorded host's full speed.

A program change cannot move the probe, which is the benchmark's own
code.  What it can move is the cache the probe finds: a workload that
touches less memory leaves the probe warmer caches.  That bias is a few
percent of the probe; ``run.py`` prints every sample's slowdown.
"""

from __future__ import annotations

import json
import time
from typing import List, Sequence, Tuple

#: Seconds between the end of one probe and the start of the next.
PERIOD_S = 0.02
#: CPU seconds one probe takes beside a running workload when the
#: recorded host runs at full speed.  Roughly 2% of the workload's
#: CPU goes to probes.
REFERENCE_S = 450e-6

Probe = Tuple[float, float]


def probe() -> float:
    """CPU seconds of one fixed slice of dict, list, sort and json work,
    the mix the workloads run."""
    start = time.thread_time()
    table: dict = {}
    pairs: List[Tuple[int, int]] = []
    for i in range(600):
        key = (i * 2654435761) & 0xFF
        table[key] = table.get(key, 0) + i
        pairs.append((key, i))
    pairs.sort()
    json.dumps(pairs[:100])
    return time.thread_time() - start


def slowdown(probes: Sequence[Probe], start: float, end: float) -> float:
    """Mean probe time over probes stamped in ``[start, end)``, relative
    to ``REFERENCE_S``; all probes when none falls in the interval."""
    inside = [cost for stamp, cost in probes if start <= stamp < end]
    chosen = inside or [cost for _, cost in probes]
    return sum(chosen) / len(chosen) / REFERENCE_S
