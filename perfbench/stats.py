"""Percentiles under the ten-samples-beyond rule, and small summaries."""

from __future__ import annotations

import math
from typing import Sequence

#: a percentile is only reported when at least this many samples lie beyond it
SAMPLES_BEYOND = 10


def min_samples(q: float) -> int:
    """Fewest samples for which percentile ``q`` (0 < q < 100) has
    :data:`SAMPLES_BEYOND` samples beyond it."""
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    return math.ceil(SAMPLES_BEYOND * 100 / (100 - q) - 1e-9)


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile of ``samples``.

    Raises :class:`ValueError` when fewer than :func:`min_samples` samples
    are given, so no reported tail rests on fewer than ten samples.
    """
    need = min_samples(q)
    if len(samples) < need:
        raise ValueError(
            f"p{q:g} needs at least {need} samples, got {len(samples)}")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * q / 100
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for no values (a layer the workload never ran)."""
    return sum(values) / len(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``; 0.0 when the denominator is 0."""
    return numerator / denominator if denominator else 0.0
