"""Summary rules the benchmark reports by.

Kept apart from the harness so the rules can be tested on fixed arrays.
"""

from __future__ import annotations

import math
import statistics
from typing import Mapping, Sequence

#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]) of unsorted ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def percentile_supported(samples: int, q: float) -> bool:
    """True when ``samples`` leaves ten or more observations beyond ``q``."""
    return samples - math.ceil(q * samples) >= MIN_SAMPLES_BEYOND


def slice_rates(
    counts: Sequence[int], seconds: Sequence[float]
) -> list[float]:
    """Completions per second of each slice of the measured window."""
    return [count / span for count, span in zip(counts, seconds) if span > 0]


def median_rate(counts: Sequence[int], seconds: Sequence[float]) -> float:
    """Throughput as the median of the slice rates.

    A stall in one slice (a journal eviction sweep, a neighbour on the
    host) moves the mean of the window but not this.
    """
    return statistics.median(slice_rates(counts, seconds))


def spread_share(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the median."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / middle if middle else math.inf


def histogram_quantile(
    buckets: Mapping[str, int], overflow: int, q: float
) -> float:
    """Quantile of a fixed-bucket registry histogram, in the histogram's unit.

    ``buckets`` maps ``repr(upper bound)`` to the count *in* that bucket
    (the registry's export shape); the value is interpolated linearly
    inside the bucket the rank falls in, so its resolution is the bucket
    width.  Samples in the overflow bucket report the last bound.
    """
    bounds = sorted((float(bound), count) for bound, count in buckets.items())
    total = sum(count for _, count in bounds) + overflow
    if total <= 0:
        return 0.0
    rank = q * total
    seen = 0.0
    lower = 0.0
    for bound, count in bounds:
        if count and seen + count >= rank:
            return lower + (bound - lower) * (rank - seen) / count
        seen += count
        lower = bound
    return lower
