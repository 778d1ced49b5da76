"""Percentiles, the "ten samples beyond" rule, and the solo run time of jobs."""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple

#: a tail percentile is only reported when this many samples lie beyond it
MIN_SAMPLES_BEYOND = 10

#: the tails a run may report, highest first
TAIL_PERCENTILES = (99, 95, 90, 80, 75)


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``pct``% at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``pct`` percentile."""
    return count - max(1, math.ceil(pct / 100.0 * count))


def highest_supported_percentile(count: int) -> int | None:
    """The highest tail percentile with at least ten samples beyond it."""
    for pct in TAIL_PERCENTILES:
        if samples_beyond(count, pct) >= MIN_SAMPLES_BEYOND:
            return pct
    return None


def median(samples: Sequence[float]) -> float:
    if not samples:
        raise ValueError("median of no samples")
    return float(statistics.median(samples))


def overlaps(intervals: Sequence[Tuple[float, float]]) -> list:
    """For each ``(start, end)``, the summed time the other intervals overlap it."""
    return [
        sum(
            max(0.0, min(end, other_end) - max(start, other_start))
            for index_other, (other_start, other_end) in enumerate(intervals)
            if index_other != index
        )
        for index, (start, end) in enumerate(intervals)
    ]


def solo_time(intervals: Sequence[Tuple[float, float]]) -> float:
    """How long a job takes with no other job running beside it.

    Jobs that share a process slow each other down (one GIL, two cores), and
    how often they overlap depends on how the clients happen to fall into
    step, which differs from run to run.  A least-squares line of each job's
    run time against the time other jobs overlap it, read off at zero
    overlap, uses every job and leaves that phase out.  Without any spread in
    overlap the line has no slope to fit, and the median run time is the
    answer.
    """
    durations = [end - start for start, end in intervals]
    overlap = overlaps(intervals)
    if len(set(overlap)) < 2:
        return median(durations)
    return float(statistics.linear_regression(overlap, durations).intercept)
