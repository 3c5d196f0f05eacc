"""Small statistics helpers used by experiments and reports.

Implemented without numpy so the core library stays dependency-free; the
benchmark layer may still use numpy for heavier analysis.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; raises on empty input."""
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def median(values: Sequence[float]) -> float:
    """Median; raises on empty input."""
    return percentile(values, 50.0)


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile, ``pct`` in [0, 100].

    Edge cases are pinned down explicitly: an empty sequence raises
    ``ValueError`` (there is no value to return), a single element is
    every percentile of itself, ``pct=0``/``pct=100`` return the exact
    minimum/maximum with no interpolation arithmetic, and anything
    outside [0, 100] (including NaN) raises.
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    if math.isnan(pct) or not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile out of range: {pct}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    if pct == 0.0:
        return ordered[0]
    if pct == 100.0:
        return ordered[-1]
    rank = (pct / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    frac = rank - low
    interpolated = ordered[low] * (1 - frac) + ordered[high] * frac
    # Clamp away float rounding drift so the result stays within the
    # bracketing sample values.
    return min(max(interpolated, ordered[low]), ordered[high])


def percentiles(
    values: Sequence[float], pcts: Sequence[float]
) -> Dict[float, float]:
    """Several percentiles of one sample, sorting it only once.

    The latency-histogram fast path: ``percentiles(lat, (50, 95, 99,
    99.9))`` walks the sorted sample once per requested point instead of
    re-sorting per call. Same edge-case contract as :func:`percentile`.
    """
    if not values:
        raise ValueError("percentiles of empty sequence")
    ordered = sorted(values)
    out: Dict[float, float] = {}
    n = len(ordered)
    for pct in pcts:
        if math.isnan(pct) or not 0.0 <= pct <= 100.0:
            raise ValueError(f"percentile out of range: {pct}")
        if n == 1 or pct == 0.0:
            out[pct] = ordered[0]
            continue
        if pct == 100.0:
            out[pct] = ordered[-1]
            continue
        rank = (pct / 100.0) * (n - 1)
        low = math.floor(rank)
        high = math.ceil(rank)
        if low == high:
            out[pct] = ordered[low]
            continue
        frac = rank - low
        interpolated = ordered[low] * (1 - frac) + ordered[high] * frac
        out[pct] = min(max(interpolated, ordered[low]), ordered[high])
    return out
