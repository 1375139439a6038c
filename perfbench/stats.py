"""Percentiles under the benchmark's support rule.

A percentile is only reported as supported when at least ten samples
lie beyond it, so with ``n`` samples the highest supported percentile
is the largest ``p`` with ``n * (1 - p/100) >= 10``.
"""

from __future__ import annotations

import math

#: Percentiles considered, lowest first.
LADDER = (50.0, 90.0, 99.0, 99.9)
#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of percentile ``p`` among ``n`` samples."""
    # The epsilon keeps 99.9% of 10000 at rank 9990 despite float error.
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile of ``values`` (non-empty)."""
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``p``."""
    return n - _rank(n, p) if n else 0


def highest_supported(n: int) -> float | None:
    """Highest percentile of :data:`LADDER` with ``MIN_BEYOND`` samples past it."""
    supported = [p for p in LADDER if beyond(n, p) >= MIN_BEYOND]
    return supported[-1] if supported else None
