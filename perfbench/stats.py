"""Summary statistics shared by the benchmark and its tests."""

from __future__ import annotations

import math
import statistics


def tail_percentile(calls_per_round: int) -> float:
    """The highest percentile with at least ten calls beyond it.

    With N calls per round the nearest-rank percentile 100 * (N - 10) / N
    leaves exactly ten calls above it.  Rounds of ten calls or fewer have
    no such percentile, so the tail is the maximum (100).  The percentile
    depends on the round, not on how many rounds a run completed, so runs
    of different length report the same percentile.
    """
    if calls_per_round <= 10:
        return 100.0
    return 100.0 * (calls_per_round - 10) / calls_per_round


def nearest_rank(values: list[float], percentile: float) -> float:
    """Nearest-rank percentile: the smallest value with at least that share
    of the samples at or below it."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered) - 1e-9))
    return ordered[min(rank, len(ordered)) - 1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as statistics.quantiles
    gives them; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def best_time(rounds: list[list[float]]) -> float:
    """A call's fastest time over several rounds, taken stretch by stretch.

    Each round gives the call's latency cut into stretches at points that
    fall at the same place in its work every round.  The best time sums,
    over the stretches, each stretch's fastest time.  A host that slows
    some seconds of a long call then costs it only where every round was
    slowed.  Rounds cut into different numbers of stretches cannot be
    matched, so the fastest whole round counts instead.
    """
    if len({len(r) for r in rounds}) != 1:
        return min(sum(r) for r in rounds)
    return sum(min(column) for column in zip(*rounds))
