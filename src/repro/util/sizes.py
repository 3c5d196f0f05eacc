"""Byte-size constants and link-rate conversion."""

from __future__ import annotations

KB = 1024
MB = 1024 * KB
GB = 1024 * MB


def mbit_per_s(megabits: float) -> float:
    """Convert a link speed in megabits/second into bytes/second."""
    if megabits < 0:
        raise ValueError("bandwidth must be non-negative")
    return megabits * 1_000_000 / 8.0
