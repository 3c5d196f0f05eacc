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
    """Linear-interpolated percentile, ``pct`` in [0, 100]: :func:`percentiles`
    at one point."""
    return percentiles(values, (pct,))[pct]


def percentiles(
    values: Sequence[float], pcts: Sequence[float]
) -> Dict[float, float]:
    """Several linear-interpolated percentiles of one sample, sorting it once.

    Edge cases are pinned down explicitly: an empty sequence raises
    ``ValueError`` (there is no value to return), a single element is
    every percentile of itself, ``pct=0``/``pct=100`` return the exact
    minimum/maximum with no interpolation arithmetic, and anything
    outside [0, 100] (including NaN) raises.
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
        # Clamp away float rounding drift so the result stays within the
        # bracketing sample values.
        out[pct] = min(max(interpolated, ordered[low]), ordered[high])
    return out
