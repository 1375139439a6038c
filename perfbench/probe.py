"""Host-speed probe: scales timings to a reference machine speed.

On a shared host the speed of the CPU a run gets drifts by ±25% over
seconds to minutes, so the same code at the same seed measures up to
1.5x apart from one run to the next. A fixed pure-Python kernel, which
uses none of the program's code, is timed for ``PROBE_SECONDS`` at every
window boundary, outside the timed regions. A window's *speed* is the
mean rate of the probes on either side of it over ``REFERENCE_RATE``;
its throughput is divided by that speed and its latencies multiplied by
it. A change to the program moves the scaled figures exactly as it
moves the raw ones, while the host's drift cancels. The raw figures and
the speed are printed beside the scaled ones.
"""

from __future__ import annotations

import gc
import time

#: Kernel calls per second that count as speed 1.0: about the fastest
#: rate seen on the 2-vCPU Xeon guest (Python 3.11) the benchmark was
#: tuned on, so scaled figures read close to the raw ones there.
REFERENCE_RATE = 2000.0
PROBE_SECONDS = 0.04


def _kernel() -> int:
    table: dict[int, int] = {}
    items = []
    for i in range(2000):
        key = i % 97
        table[key] = table.get(key, 0) + i
        items.append((key, str(i)))
    return len(items)


def probe(seconds: float = PROBE_SECONDS) -> float:
    """Kernel calls per second over at least ``seconds``.

    The cyclic collector is off meanwhile, so the rate does not depend
    on how many objects the program holds.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        calls = 0
        while True:
            _kernel()
            calls += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                return calls / elapsed
    finally:
        if was_enabled:
            gc.enable()


def speed(before: float, after: float) -> float:
    """Host speed over a stretch bracketed by two probe rates."""
    return (before + after) / 2.0 / REFERENCE_RATE
