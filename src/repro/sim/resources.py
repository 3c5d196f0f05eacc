"""Per-node CPU and memory accounting for the overhead experiments.

Fig. 12a/12b report per-node CPU utilization (%) and memory (MB) sampled
over a 50-second recovery window. Recovery mechanisms record piecewise
usage intervals here; the profile can then be sampled on a fixed grid to
produce the same time series the paper plots.
"""

from __future__ import annotations

from array import array
from typing import Iterator, List, Sequence, Tuple


class ResourceProfile:
    """Accumulates piecewise-constant CPU and memory usage for one node.

    CPU is recorded as a utilization fraction in [0, 1] over an interval;
    overlapping intervals add up (and are clamped at 1.0 when sampled, as a
    core cannot be more than fully busy). Memory is recorded in bytes over
    an interval; overlapping intervals add up on top of ``baseline_memory``.

    Each resource is one flat float64 array of ``start, end, amount``
    triples in the order they were recorded, which is the order they are
    summed in.
    """

    __slots__ = ("name", "baseline_cpu", "baseline_memory", "_cpu", "_memory")

    def __init__(self, name: str, baseline_cpu: float = 0.0, baseline_memory: float = 0.0) -> None:
        if not 0.0 <= baseline_cpu <= 1.0:
            raise ValueError("baseline_cpu must be within [0, 1]")
        if baseline_memory < 0:
            raise ValueError("baseline_memory must be non-negative")
        self.name = name
        self.baseline_cpu = baseline_cpu
        self.baseline_memory = baseline_memory
        self._cpu = array("d")
        self._memory = array("d")

    def add_cpu(self, start: float, end: float, utilization: float) -> None:
        """Record CPU busy time: ``utilization`` of one core over [start, end)."""
        self._cpu.fromlist(_interval(start, end, utilization, "utilization"))

    def add_memory(self, start: float, end: float, nbytes: float) -> None:
        """Record ``nbytes`` of extra resident memory over [start, end)."""
        self._memory.fromlist(_interval(start, end, nbytes, "memory"))

    def cpu_at(self, t: float) -> float:
        """Total CPU utilization fraction at instant ``t``, clamped to 1.0."""
        return min(1.0, self.baseline_cpu + _amount_at(self._cpu, t))

    def memory_at(self, t: float) -> float:
        """Resident memory in bytes at instant ``t``."""
        return self.baseline_memory + _amount_at(self._memory, t)

    def cpu_series(self, times: Sequence[float]) -> List[float]:
        """CPU utilization sampled at each time point (fractions in [0, 1])."""
        return [self.cpu_at(t) for t in times]

    def memory_series(self, times: Sequence[float]) -> List[float]:
        """Memory in bytes sampled at each time point."""
        return [self.memory_at(t) for t in times]

    def cpu_seconds(self) -> float:
        """Integral of recorded (non-baseline) CPU usage — total core-seconds."""
        return sum(amount * (end - start) for start, end, amount in _triples(self._cpu))

    def peak_memory(self, times: Sequence[float]) -> float:
        """Peak sampled memory over the given grid."""
        series = self.memory_series(times)
        return max(series) if series else self.baseline_memory


def _interval(start: float, end: float, amount: float, what: str) -> List[float]:
    if end < start:
        raise ValueError(f"interval ends before it starts: [{start}, {end})")
    if amount < 0:
        raise ValueError(f"{what} must be non-negative")
    return [start, end, amount]


def _triples(intervals: array) -> Iterator[Tuple[float, float, float]]:
    flat = iter(intervals)
    return zip(flat, flat, flat)


def _amount_at(intervals: array, t: float) -> float:
    """Sum of the amounts whose half-open interval contains ``t``."""
    return sum(amount for start, end, amount in _triples(intervals) if start <= t < end)


def sample_grid(start: float, end: float, step: float) -> List[float]:
    """An inclusive-start, exclusive-end sampling grid."""
    if step <= 0:
        raise ValueError("step must be positive")
    if end < start:
        raise ValueError("grid ends before it starts")
    points = []
    t = start
    while t < end - 1e-12:
        points.append(t)
        t += step
    return points
