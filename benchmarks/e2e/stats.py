"""Order statistics the harness reports: medians, quartile spread, the
highest percentile a sample supports, and order-matched lags."""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

#: Percentiles the harness is willing to name, highest first.
CANDIDATE_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0..100) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * q / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo))


def highest_supported_percentile(count: int, beyond: int = 10) -> float:
    """The highest candidate percentile with at least ``beyond`` samples
    lying above it in a sample of ``count`` (50 when none qualifies)."""
    for q in CANDIDATE_PERCENTILES:
        # 100 - 99.9 is a hair under 0.1 in binary.
        if count * (100.0 - q) / 100.0 >= beyond - 1e-9:
            return q
    return 50.0


def order_matched_lags(
    starts: Sequence[float], arrivals: Sequence[float]
) -> List[float]:
    """Lag samples when arrivals cannot be attributed to their starts.

    The tier driver sees *how many* records have arrived, not whose, so
    the k-th arrival is matched with the k-th end-of-speech in time
    order.  Totals (and so the mean) are exact; percentiles are those of
    a FIFO system.  Starts without an arrival yet are left out.
    """
    matched = zip(sorted(starts), sorted(arrivals))
    return [arrival - start for start, arrival in matched]


def faster_half_mean(values: Sequence[float], faster: str = "higher") -> float:
    """Mean of the faster half of repeated measurements of one thing
    (the middle one included when the count is odd); ``faster`` says
    whether the higher values (rates) or the lower ones (times) are the
    fast ones.

    Interference on a shared machine only ever slows a round down, so the
    faster half repeats better from run to run than the median does;
    like the median it still moves once a change slows more than half
    the rounds.
    """
    if not values:
        raise ValueError("faster half of an empty sample")
    ordered = sorted(values, reverse=faster == "higher")
    return statistics.fmean(ordered[: (len(ordered) + 1) // 2])


def sliced_rates(
    times: Sequence[float],
    amounts: Sequence[float],
    start: float,
    stop: float,
    slice_s: float = 1.0,
) -> List[float]:
    """Amount completed per second in each whole slice of ``[start,
    stop)``: ``amounts[k]`` is credited to the slice that holds
    ``times[k]``.  Empty when the window holds fewer than three slices of
    ``slice_s``."""
    count = int((stop - start) / slice_s)
    if count < 3:
        return []
    length = (stop - start) / count
    sums = [0.0] * count
    for when, amount in zip(times, amounts):
        index = int((when - start) / length)
        if when >= start and index < count:
            sums[index] += amount
    return [total / length for total in sums]


def quartile_spread(values: Sequence[float]) -> Tuple[float, float, float, float]:
    """``(q1, median, q3, (q3 - q1) / median)`` as the benchmark driver
    computes them (``statistics.quantiles(values, n=4)``)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return q1, median, q3, spread


def summarize_lags(lags_s: Sequence[float]) -> Dict[str, float]:
    """Median, p90 and the highest supported percentile of a lag sample,
    in milliseconds, with the sample count."""
    if not lags_s:
        return {"count": 0, "p50_ms": 0.0, "p90_ms": 0.0, "hi_q": 50.0, "hi_ms": 0.0}
    hi_q = highest_supported_percentile(len(lags_s))
    return {
        "count": len(lags_s),
        "p50_ms": 1e3 * percentile(lags_s, 50.0),
        "p90_ms": 1e3 * percentile(lags_s, 90.0),
        "hi_q": hi_q,
        "hi_ms": 1e3 * percentile(lags_s, hi_q),
    }
