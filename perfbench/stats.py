"""Metric arithmetic shared by the benchmark, its traced run and its tests."""

from __future__ import annotations

import statistics
from typing import Sequence

__all__ = ["quartile_spread", "tail_p90"]

#: A tail percentile is reported only with at least this many samples
#: strictly beyond it.
MIN_BEYOND = 10


def tail_p90(values: Sequence[float]) -> tuple[float, int] | None:
    """``(p90, samples beyond it)``, or ``None`` when fewer than
    :data:`MIN_BEYOND` samples lie strictly beyond the p90.

    The p90 is linearly interpolated between order statistics
    (``statistics.quantiles`` with ``method="inclusive"``).
    """
    if len(values) <= MIN_BEYOND:
        return None
    value = statistics.quantiles(values, n=10, method="inclusive")[8]
    beyond = sum(1 for v in values if v > value)
    return (value, beyond) if beyond >= MIN_BEYOND else None


def quartile_spread(values: Sequence[float]) -> tuple[float, float, float, float]:
    """``(q1, median, q3, (q3 - q1) / median)`` as ``statistics.quantiles``
    (default method, n=4) gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / median if median else float("inf")
