"""User-felt metrics for recovery under live traffic.

The numbers the fault-recovery benchmarking literature (Vogel et al.,
arXiv 2404.06203 / 2405.07917) argues actually matter in production:
per-tuple end-to-end latency percentiles segmented around the recovery
window, how far the source reader fell behind (replay lag), how fast the
pipeline caught back up, and how long until the backlog drained.

"During" runs from the kill to the moment the pipeline was restored (the
end of the run if it never was), and a tuple belongs to the phase its
*arrival* falls in (a user who clicked during the outage experienced the
outage, whenever their click finally got served). The backlog numbers
are read from the ``live.backlog`` series the driver records every tick.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.util.stats import percentiles

__all__ = [
    "LATENCY_PERCENTILES",
    "PhaseSummary",
    "LatencyRecorder",
    "LiveReport",
]

#: The latency points every phase summary reports.
LATENCY_PERCENTILES = (50.0, 95.0, 99.0, 99.9)

#: Phase names in report order.
PHASES = ("before", "during", "after")


@dataclass(frozen=True)
class PhaseSummary:
    """Latency percentiles of the tuples arriving in one phase."""

    phase: str
    count: int
    p50: float
    p95: float
    p99: float
    p999: float
    mean: float
    maximum: float

    @classmethod
    def from_latencies(cls, phase: str, latencies: List[float]) -> "PhaseSummary":
        if not latencies:
            raise ValueError(f"no samples in phase {phase!r}")
        points = percentiles(latencies, LATENCY_PERCENTILES)
        return cls(
            phase=phase,
            count=len(latencies),
            p50=points[50.0],
            p95=points[95.0],
            p99=points[99.0],
            p999=points[99.9],
            mean=sum(latencies) / len(latencies),
            maximum=max(latencies),
        )


class LatencyRecorder:
    """Per-tuple (arrival, completion) pairs, split into phases at report time."""

    def __init__(self) -> None:
        self._events: List[Tuple[float, float]] = []

    def record(self, arrival: float, completion: float) -> None:
        self._events.append((arrival, completion))

    def split(
        self, window: Optional[Tuple[float, float]]
    ) -> Dict[str, List[float]]:
        """Latencies per phase, keyed by the tuple's *arrival* time.

        ``window`` is the (start, end) of the recovery on the simulated
        clock; with no window (no failure happened) every tuple is
        "before".
        """
        phases: Dict[str, List[float]] = {name: [] for name in PHASES}
        if window is None:
            phases["before"] = [done - ts for ts, done in self._events]
            return phases
        start, end = window
        for ts, done in self._events:
            if ts < start:
                phase = "before"
            elif ts <= end:
                phase = "during"
            else:
                phase = "after"
            phases[phase].append(done - ts)
        return phases


@dataclass
class LiveReport:
    """Everything one live run measured."""

    arrived: int
    served: int
    replayed: int
    phases: Dict[str, Optional[PhaseSummary]]
    killed_at: Optional[float]
    recovered_at: Optional[float]
    recovery_s: Optional[float]
    recovery_window: Optional[Tuple[float, float]]
    replay_lag_peak: int
    replay_lag_at_recovery: int
    drained_at: Optional[float]
    drain_s: Optional[float]
    catchup_events_per_s: Optional[float]

    def phase(self, name: str) -> PhaseSummary:
        summary = self.phases.get(name)
        if summary is None:
            raise KeyError(f"phase {name!r} has no samples")
        return summary

    def format(self) -> str:
        """A terminal-friendly phase table (the example script's output)."""
        lines = [
            f"arrived={self.arrived} served={self.served} "
            f"replayed={self.replayed} "
            f"replay_lag_peak={self.replay_lag_peak}"
        ]
        if self.recovery_s is not None:
            lines.append(
                f"recovery {self.recovery_s:.3f}s"
                + (
                    f", drain {self.drain_s:.3f}s"
                    if self.drain_s is not None and not math.isinf(self.drain_s)
                    else ", backlog never drained"
                )
            )
        header = f"{'phase':8s} {'count':>7s} {'p50':>9s} {'p95':>9s} {'p99':>9s} {'p99.9':>9s}"
        lines.append(header)
        for name in PHASES:
            summary = self.phases.get(name)
            if summary is None:
                continue
            lines.append(
                f"{name:8s} {summary.count:7d} "
                f"{summary.p50 * 1e3:8.1f}ms {summary.p95 * 1e3:8.1f}ms "
                f"{summary.p99 * 1e3:8.1f}ms {summary.p999 * 1e3:8.1f}ms"
            )
        return "\n".join(lines)
