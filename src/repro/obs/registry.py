"""Metric primitives and the per-simulation registry.

One :class:`MetricsRegistry` per simulation unifies the four primitive
kinds behind name-keyed accessors:

- :class:`Counter` — monotonic totals with labelled sub-counts (bytes
  moved, routes performed, recoveries completed);
- :class:`TimeSeries` — append-only ``(time, value)`` points (CPU and
  memory load curves, Fig. 12);
- :class:`Gauge` — a current value that moves both ways (pending events,
  live flows);
- :class:`Histogram` — a value distribution with percentiles (route hop
  counts, recovery durations).

Everything is deterministic plain-Python state: ``dump()``
round-trips to a JSON-friendly dict for experiment artifacts.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import defaultdict, deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.util.stats import percentile

__all__ = [
    "Counter",
    "TimeSeries",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]


class Counter:
    """A named monotonic counter with labelled sub-counts."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.total = 0.0
        self._by_label: Dict[str, float] = defaultdict(float)

    def add(self, amount: float, label: str = "") -> None:
        if amount < 0:
            raise ValueError("counters are monotonic; amount must be >= 0")
        self.total += amount
        if label:
            self._by_label[label] += amount

    def get(self, label: str) -> float:
        return self._by_label.get(label, 0.0)

    def labels(self) -> Dict[str, float]:
        return dict(self._by_label)

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.total})"


class TimeSeries:
    """Append-only (time, value) series; points must arrive in time order.

    A series is float64: its points are one flat ``array('d')`` of
    ``time, value`` pairs, so an ``int`` a caller records reads back as the
    equal ``float``. ``kind`` says what the points are; the telemetry
    pipeline retags its copies (``gauge``, ``rate``, ``percentile``).
    """

    __slots__ = ("name", "kind", "_flat")

    def __init__(self, name: str) -> None:
        self.name = name
        self.kind = "series"
        self._flat = array("d")

    def record(self, time: float, value: float) -> None:
        flat = self._flat
        if flat and time < flat[-2]:
            raise ValueError("time series points must be appended in order")
        flat.fromlist([time, value])  # both or, on a type error, neither

    def __len__(self) -> int:
        return len(self._flat) // 2

    @property
    def points(self) -> List[Tuple[float, float]]:
        return self.points_from(0)

    def points_from(self, index: int) -> List[Tuple[float, float]]:
        """The points from position ``index`` on: the tail a cursor has not seen."""
        flat = iter(self._flat[2 * index :])
        return list(zip(flat, flat))

    def values(self) -> List[float]:
        return self._flat[1::2].tolist()

    def times(self) -> List[float]:
        return self._flat[::2].tolist()

    def last(self) -> Optional[Tuple[float, float]]:
        """The newest point, or None while the series is empty."""
        if not self._flat:
            return None
        return self._flat[-2], self._flat[-1]

    def window(self, t0: float, t1: float) -> List[Tuple[float, float]]:
        """Points with ``t0 < t <= t1`` (trailing-window semantics)."""
        return [(t, v) for t, v in self.points if t0 < t <= t1]

    def values_in(self, t0: float, t1: float) -> List[float]:
        return [v for _, v in self.window(t0, t1)]

    def value_at(self, time: float) -> float:
        """Step-function lookup: last value at or before ``time``."""
        index = bisect_right(self._flat[::2], time)
        if not index or not self._flat[2 * index - 2] <= time:  # a NaN time is after nothing
            raise ValueError(f"no point at or before t={time} in {self.name}")
        return self._flat[2 * index - 1]


class Gauge:
    """A named value that can move in both directions."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """A named value distribution; keeps every observation.

    Simulation scale (thousands of observations, not billions) makes exact
    storage cheaper than bucketing and keeps percentiles precise.

    Aggregates carry no timestamps, which is all the batch reports need —
    but time-series replay (the telemetry pipeline's windowed percentiles)
    does need them, so :meth:`keep_observations` opts a histogram into
    retaining the most recent ``(sim_time, value)`` pairs in a bounded
    ring. The time comes from the registry's bound clock (the simulator
    binds its virtual clock at construction) unless the call site passes
    ``at`` explicitly.
    """

    def __init__(self, name: str, clock: Optional[Callable[[], float]] = None) -> None:
        self.name = name
        self._values: List[float] = []
        self._clock = clock
        self._observations: Optional[Deque[Tuple[float, float]]] = None

    def keep_observations(self, limit: int = 4096) -> None:
        """Opt in to timestamped retention of the last ``limit`` observations."""
        if limit <= 0:
            raise ValueError("observation limit must be positive")
        if self._observations is None:
            self._observations = deque(maxlen=int(limit))
        elif self._observations.maxlen != int(limit):
            self._observations = deque(self._observations, maxlen=int(limit))

    @property
    def keeps_observations(self) -> bool:
        return self._observations is not None

    def observations(self) -> List[Tuple[float, float]]:
        """The retained ``(sim_time, value)`` pairs, oldest first."""
        return list(self._observations or ())

    def observe(self, value: float, at: Optional[float] = None) -> None:
        value = float(value)
        self._values.append(value)
        if self._observations is not None:
            if at is None:
                at = self._clock() if self._clock is not None else 0.0
            self._observations.append((float(at), value))

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def total(self) -> float:
        return sum(self._values)

    @property
    def mean(self) -> float:
        if not self._values:
            raise ValueError(f"histogram {self.name} is empty")
        return self.total / len(self._values)

    @property
    def min(self) -> float:
        if not self._values:
            raise ValueError(f"histogram {self.name} is empty")
        return min(self._values)

    @property
    def max(self) -> float:
        if not self._values:
            raise ValueError(f"histogram {self.name} is empty")
        return max(self._values)

    def percentile(self, q: float) -> float:
        """The q-th percentile (0..100), interpolated as everywhere else
        (:func:`repro.util.stats.percentile`)."""
        if not self._values:
            raise ValueError(f"histogram {self.name} is empty")
        return percentile(self._values, q)

    def values(self) -> List[float]:
        return list(self._values)

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.count})"


class MetricsRegistry:
    """All metrics of one simulation, keyed by name.

    Accessors create on first use, so call sites never pre-register; a
    name is permanently bound to the first kind that claimed it.
    """

    def __init__(self, name: str = "metrics") -> None:
        self.name = name
        self._counters: Dict[str, Counter] = {}
        self._series: Dict[str, TimeSeries] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._collectors: List[Callable[[], Dict[str, float]]] = []
        self._clock: Optional[Callable[[], float]] = None

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Give timestamped observations a time source (the sim's clock)."""
        self._clock = clock
        for histogram in self._histograms.values():
            histogram._clock = clock

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def series(self, name: str) -> TimeSeries:
        if name not in self._series:
            self._series[name] = TimeSeries(name)
        return self._series[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self._gauges:
            self._gauges[name] = Gauge(name)
        return self._gauges[name]

    def histogram(self, name: str) -> Histogram:
        if name not in self._histograms:
            self._histograms[name] = Histogram(name, clock=self._clock)
        return self._histograms[name]

    def add_collector(self, collect: Callable[[], Dict[str, float]]) -> None:
        """Register a source of live readings, computed only when sampled.

        ``collect()`` returns ``{series name: value}`` for what is active at
        the call; a name it leaves out reads 0.0. Nothing is stored, so a
        run nobody samples pays nothing and :meth:`dump` never holds it.
        """
        self._collectors.append(collect)

    def remove_collector(self, collect: Callable[[], Dict[str, float]]) -> None:
        """Stop sampling ``collect``; one never added is ignored."""
        if collect in self._collectors:
            self._collectors.remove(collect)

    def collect(self) -> Dict[str, float]:
        """The current readings of every registered collector."""
        readings: Dict[str, float] = {}
        for collect in self._collectors:
            readings.update(collect())
        return readings

    def counters(self) -> Dict[str, Counter]:
        return dict(self._counters)

    def all_series(self) -> Dict[str, TimeSeries]:
        return dict(self._series)

    def gauges(self) -> Dict[str, Gauge]:
        return dict(self._gauges)

    def histograms(self) -> Dict[str, Histogram]:
        return dict(self._histograms)

    def dump(self) -> Dict[str, object]:
        """A deterministic, JSON-friendly snapshot of every metric."""
        return {
            "name": self.name,
            "counters": {
                n: {"total": c.total, "labels": dict(sorted(c.labels().items()))}
                for n, c in sorted(self._counters.items())
            },
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: self._dump_histogram(h)
                for n, h in sorted(self._histograms.items())
            },
            "series": {
                n: s.points for n, s in sorted(self._series.items())
            },
        }

    @staticmethod
    def _dump_histogram(h: Histogram) -> Dict[str, object]:
        out: Dict[str, object] = {
            "count": h.count,
            "total": h.total,
            "min": h.min if h.count else None,
            "max": h.max if h.count else None,
        }
        if h.keeps_observations:
            out["observations"] = [[t, v] for t, v in h.observations()]
        return out
