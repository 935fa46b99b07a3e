"""A fixed pure-Python loop that measures how fast the machine runs right now.

On a shared host the same call can take twice as long from one minute to
the next, in CPU time as much as in wall time, because other tenants share
the cores' caches and execution units.  Every task process times this loop
before it imports wkpdom and again after the verb returns, and the
benchmark scales its times by ``CAL_REF_S`` over the run's mean loop time
(see ``run._scaled``).  The loop mixes what wkpdom spends its time on:
interpreter loops, big-integer bitmask rounds and dict/set updates.  It
imports nothing from wkpdom, and the garbage collector is off while it
runs, so the program's own heap does not change its time.
"""

import gc
import time

#: The loop's time on a quiet 2-core Intel Xeon under Python 3.11: a scaled
#: time is the time the call would take on a machine where the loop takes this.
CAL_REF_S = 0.04


def _int_loop() -> int:
    total = 0
    for i in range(300_000):
        total += i & 7
    return total


def _bitmask_rounds() -> int:
    n = 2048
    x = 12345
    masks = []
    for v in range(n):
        mask = 1 << v
        for _ in range(4):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            mask |= 1 << (x % n)
        masks.append(mask)
    monitored = masks[0]
    for _ in range(6):
        unmonitored = ~monitored
        for mask in masks:
            if (mask & unmonitored).bit_count() <= 3:
                monitored |= mask
    return monitored.bit_count()


def _dict_churn() -> int:
    counts: dict[int, int] = {}
    seen: set[int] = set()
    for i in range(100_000):
        key = (i * 7919) % 2003
        counts[key] = counts.get(key, 0) + 1
        seen.add(key * 4 + (i & 3))
    return len(counts) + len(seen)


def calibrate() -> float:
    """Seconds the fixed loop takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter_ns()
        _int_loop()
        _bitmask_rounds()
        _dict_churn()
        return (time.perf_counter_ns() - start) / 1e9
    finally:
        if enabled:
            gc.enable()
