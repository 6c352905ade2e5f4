"""A fixed piece of interpreter work that tells how fast the host runs now.

The benchmark's host is a few vCPUs shared with other tenants.  Its speed
moves by up to 1.6x between consecutive 30 s runs and within a run, so raw
seconds of the same program on the same inputs spread by 20% and more
across runs.  The benchmark therefore times this reference right before and
right after every measured stretch (a writer batch, a reader burst, a cold
set-up) and reports that stretch's seconds scaled by
``REFERENCE_S / reference seconds`` (the mean of the two): the seconds it
would have taken with the host at the speed where the reference takes
``REFERENCE_S``.

The reference is not part of the program, so a change to the program moves
the scaled seconds exactly as much as the raw ones.  It allocates no
container objects and runs with the garbage collector off, so that garbage
the program left behind cannot make it slower.
"""

from __future__ import annotations

import gc
import time

#: Seconds one :func:`reference_s` call takes at the nominal host speed:
#: about its median on a 2-vCPU Xeon (2.1 GHz, Python 3.11).
REFERENCE_S = 0.001

_LOOPS = 4000
_TABLE = dict.fromkeys(range(97), 0)


def _reference_work() -> int:
    table = _TABLE
    total = 0
    for i in range(_LOOPS):
        key = i % 97
        table[key] = (table[key] + i) & 0xFFFF
        total ^= (i * 7) + table[key]
    return total


def reference_s() -> float:
    """Seconds the reference work takes now: the median of three runs, so
    that one interrupted run does not count."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        timings = []
        for _ in range(3):
            began = time.perf_counter()
            _reference_work()
            timings.append(time.perf_counter() - began)
        return sorted(timings)[1]
    finally:
        if was_enabled:
            gc.enable()


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the nominal host speed, from the reference timings
    taken right before and right after them."""
    return seconds * 2.0 * REFERENCE_S / (before + after)
