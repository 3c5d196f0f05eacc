"""Lightweight statistical anomaly detection over telemetry series.

One robust detector (median/MAD, not mean/stdev, so one outlier cannot
poison the baseline that should flag it): a **spike** is a newest sample
whose robust z-score (``0.6745 * (x - median) / MAD`` over a trailing
window) exceeds the threshold. It catches latency spikes, backlog jumps,
utilisation bursts and throughput collapses.

Anomalies are deduplicated per series by timestamp (one scan per new
point) and rate-limited by a cooldown, so a sustained excursion flags
once rather than every sample. Like SLO alerts, anomalies convert to
``metric-anomaly`` diagnoses and can drive policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigError
from repro.obs.timeseries import TelemetryPipeline
from repro.util.stats import median

__all__ = ["Anomaly", "AnomalyDetector"]

#: Scale factor making MAD consistent with the stdev of a normal
#: distribution — the conventional robust z-score normaliser.
_MAD_TO_SIGMA = 0.6745


def _mad(values: Sequence[float], center: float) -> float:
    return median([abs(v - center) for v in values])


@dataclass(frozen=True)
class Anomaly:
    """One flagged excursion, pinned to the simulated clock."""

    series: str
    at: float
    value: float
    score: float
    kind: str  # "spike"
    baseline: float


class AnomalyDetector:
    """Scans pipeline series for spikes."""

    def __init__(
        self,
        pipeline: TelemetryPipeline,
        series: Optional[Sequence[str]] = None,
        window: int = 32,
        z_threshold: float = 4.5,
        min_points: int = 12,
        cooldown_s: float = 5.0,
    ) -> None:
        if window < 4:
            raise ConfigError("window must be at least 4 points")
        if min_points < 4 or min_points > window:
            raise ConfigError("min_points must lie in [4, window]")
        if z_threshold <= 0:
            raise ConfigError("z_threshold must be positive")
        if cooldown_s < 0:
            raise ConfigError("cooldown_s must be non-negative")
        self.pipeline = pipeline
        #: None watches every series the pipeline produces (including ones
        #: that appear after construction); a list pins the watch set.
        self.watch = None if series is None else list(series)
        self.window = int(window)
        self.z_threshold = float(z_threshold)
        self.min_points = int(min_points)
        self.cooldown_s = float(cooldown_s)
        self.anomalies: List[Anomaly] = []
        self._last_fired: Dict[str, float] = {}
        self._last_scanned: Dict[str, float] = {}

    # ------------------------------------------------------------- scanning

    def scan(self, now: float) -> List[Anomaly]:
        """Newly flagged anomalies as of ``now``."""
        del now  # scans key off each series' own newest timestamp
        found: List[Anomaly] = []
        names = self.watch if self.watch is not None else self.pipeline.names()
        for name in names:
            if not self.pipeline.has_series(name):
                continue
            buf = self.pipeline.series(name)
            points = buf.points_from(max(0, len(buf) - self.window))
            if len(points) < self.min_points:
                continue
            at = points[-1][0]
            if self._last_scanned.get(name) == at:
                continue  # no new point since the last scan
            self._last_scanned[name] = at
            spike = self._spike(name, points)
            if spike is not None:
                found.append(spike)
        self.anomalies.extend(found)
        return found

    def _spike(self, name: str, points) -> Optional[Anomaly]:
        at, value = points[-1]
        last = self._last_fired.get(name)
        if last is not None and at - last < self.cooldown_s:
            return None
        baseline = [v for _, v in points[:-1]]
        center = median(baseline)
        mad = _mad(baseline, center)
        # A constant baseline has zero MAD; treat 5% of the level (or of
        # the excursion itself, for a flat-zero baseline) as one robust
        # sigma so collapses and surges still score far above threshold
        # while rounding jitter stays quiet.
        denom = mad if mad > 0 else max(abs(center), abs(value)) * 0.05
        denom = max(denom, 1e-9)
        score = _MAD_TO_SIGMA * (value - center) / denom
        if abs(score) < self.z_threshold:
            return None
        self._last_fired[name] = at
        return Anomaly(
            series=name,
            at=at,
            value=value,
            score=score,
            kind="spike",
            baseline=center,
        )
