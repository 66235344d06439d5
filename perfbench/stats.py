"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

import math
import statistics

TAIL_PERCENTILE = 90
MIN_BEYOND = 10                                        # samples above the tail value
MIN_SAMPLES = MIN_BEYOND * 100 // (100 - TAIL_PERCENTILE)  # 100 for p90


def tail(samples) -> tuple:
    """(value, percentile, samples beyond it) for the p90 tail.

    The guide's tail is the highest percentile with at least ten samples
    beyond it. On a shared machine that order statistic (the 11th largest)
    tracks bursts of outside load: one burst of ten slow frames moved it
    by a third between runs. p90 is used instead, and the frame loop runs
    until it has MIN_SAMPLES frames, so at least MIN_BEYOND lie beyond it.
    """
    ordered = sorted(samples)
    rank = max(0, math.ceil(len(ordered) * TAIL_PERCENTILE / 100) - 1)  # nearest rank
    return ordered[rank], TAIL_PERCENTILE, len(ordered) - rank - 1


def median(samples) -> float:
    return statistics.median(samples) if samples else 0.0


def mean(samples) -> float:
    return statistics.fmean(samples) if samples else 0.0
