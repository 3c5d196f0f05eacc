"""Declarative SLOs with multi-window burn-rate alerting.

An :class:`SLO` names a telemetry series (any series the
:class:`~repro.obs.timeseries.TelemetryPipeline` produces), a good/bad
predicate over its samples (``value <= threshold`` or ``value >=
threshold``), and an error budget — the fraction of samples allowed to be bad. The
:class:`SLOEngine` evaluates every objective against sliding windows on
the simulated clock using the SRE multi-window burn-rate recipe: an
alert fires when *both* a long window and a short window burn the budget
faster than the window's ``burn_rate`` multiple. The long window keeps
one transient sample from paging; the short window makes the alert reset
quickly once the system heals.

Burn rate is ``bad_fraction(window) / budget``: burning at exactly 1.0
spends the budget exactly; a threshold of 4.0 over a 6-second window
means the objective is violated four times faster than the budget
sustains. Fired alerts latch per (objective, severity) and re-arm only
after the long-window burn drops below 1.0, so a sustained outage pages
once, not once per evaluation.

The remediation controller turns each alert into a ``slo-burning``
diagnosis (:func:`repro.control.diagnose.slo_diagnosis`) that a policy
rule matches like any world-scan condition, which is what lets a policy
trigger proactive recovery from telemetry alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.obs.timeseries import TelemetryPipeline

__all__ = [
    "BurnWindow",
    "DEFAULT_WINDOWS",
    "SLO",
    "SLOAlert",
    "SLOEngine",
]


@dataclass(frozen=True)
class BurnWindow:
    """One (long, short) window pair with its burn threshold."""

    long_s: float
    short_s: float
    burn_rate: float
    severity: str = "critical"

    def __post_init__(self) -> None:
        if self.long_s <= 0 or self.short_s <= 0:
            raise ConfigError("burn windows must be positive")
        if self.short_s > self.long_s:
            raise ConfigError("the short window cannot exceed the long window")
        if self.burn_rate <= 0:
            raise ConfigError("burn_rate must be positive")


#: Paging-then-warning defaults scaled to simulation timescales (seconds,
#: not hours): page on a fast burn over 6s, warn on a slow burn over 30s.
DEFAULT_WINDOWS: Tuple[BurnWindow, ...] = (
    BurnWindow(long_s=6.0, short_s=1.5, burn_rate=4.0, severity="critical"),
    BurnWindow(long_s=30.0, short_s=6.0, burn_rate=2.0, severity="warning"),
)


@dataclass(frozen=True)
class SLO:
    """One objective over one telemetry series."""

    name: str
    series: str
    #: ``le``: samples are good while ``value <= threshold`` (latency,
    #: backlog); ``ge``: good while ``value >= threshold`` (throughput,
    #: availability).
    objective: str
    threshold: float
    #: Fraction of samples allowed to be bad before the budget is spent.
    budget: float = 0.05
    windows: Tuple[BurnWindow, ...] = DEFAULT_WINDOWS
    #: Optional subject binding: the protected state a violated objective
    #: implicates, forwarded into the alert (and so into the diagnosis).
    state: Optional[str] = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.objective not in ("le", "ge"):
            raise ConfigError("objective must be 'le' or 'ge'")
        if not 0 < self.budget < 1:
            raise ConfigError("budget must lie in (0, 1)")
        if not self.windows:
            raise ConfigError("an SLO needs at least one burn window")

    def good(self, value: float) -> bool:
        if self.objective == "le":
            return value <= self.threshold
        return value >= self.threshold


@dataclass(frozen=True)
class SLOAlert:
    """One burn-rate alert, pinned to the simulated clock."""

    slo: str
    series: str
    at: float
    severity: str
    burn_long: float
    burn_short: float
    long_s: float
    short_s: float
    threshold: float
    state: Optional[str] = None


@dataclass
class SLOEngine:
    """Evaluates a set of objectives against one telemetry pipeline."""

    pipeline: TelemetryPipeline
    objectives: List[SLO] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.alerts: List[SLOAlert] = []
        self._firing: Dict[Tuple[str, str], BurnWindow] = {}

    def add(self, slo: SLO) -> SLO:
        if any(existing.name == slo.name for existing in self.objectives):
            raise ConfigError(f"duplicate SLO name {slo.name!r}")
        self.objectives.append(slo)
        return slo

    # ----------------------------------------------------------- burn math

    def bad_fraction(self, slo: SLO, window_s: float, now: float) -> Optional[float]:
        """Fraction of window samples violating the objective; None if empty."""
        if not self.pipeline.has_series(slo.series):
            return None
        values = self.pipeline.series(slo.series).values_in(now - window_s, now)
        if not values:
            return None
        bad = sum(1 for v in values if not slo.good(v))
        return bad / len(values)

    def burn_rate(self, slo: SLO, window_s: float, now: float) -> float:
        """Budget-burn multiple over the trailing window (0 when empty)."""
        fraction = self.bad_fraction(slo, window_s, now)
        if fraction is None:
            return 0.0
        return fraction / slo.budget

    # ----------------------------------------------------------- evaluation

    def evaluate(self, now: float) -> List[SLOAlert]:
        """Newly fired alerts at ``now`` (latched alerts stay silent)."""
        fired: List[SLOAlert] = []
        for slo in self.objectives:
            for window in slo.windows:
                key = (slo.name, window.severity)
                burn_long = self.burn_rate(slo, window.long_s, now)
                if key in self._firing:
                    if burn_long < 1.0:
                        del self._firing[key]  # healed: re-arm
                    continue
                burn_short = self.burn_rate(slo, window.short_s, now)
                if burn_long >= window.burn_rate and burn_short >= window.burn_rate:
                    alert = SLOAlert(
                        slo=slo.name,
                        series=slo.series,
                        at=now,
                        severity=window.severity,
                        burn_long=burn_long,
                        burn_short=burn_short,
                        long_s=window.long_s,
                        short_s=window.short_s,
                        threshold=slo.threshold,
                        state=slo.state,
                    )
                    self._firing[key] = window
                    self.alerts.append(alert)
                    fired.append(alert)
                    break  # one alert per objective per pass: page > warn
        return fired

    def firing(self) -> List[Tuple[str, str]]:
        """Currently latched (objective, severity) pairs, sorted."""
        return sorted(self._firing)

    # -------------------------------------------------------------- status

    def status(self, now: float) -> List[Dict[str, object]]:
        """One deterministic status row per objective (dashboard table)."""
        rows: List[Dict[str, object]] = []
        for slo in sorted(self.objectives, key=lambda s: s.name):
            window = slo.windows[0]
            last = None
            if self.pipeline.has_series(slo.series):
                point = self.pipeline.series(slo.series).last()
                if point is not None:
                    last = point[1]
            burn_long = self.burn_rate(slo, window.long_s, now)
            burn_short = self.burn_rate(slo, window.short_s, now)
            is_firing = any(name == slo.name for name, _ in self._firing)
            rows.append(
                {
                    "slo": slo.name,
                    "series": slo.series,
                    "objective": f"{'<=' if slo.objective == 'le' else '>='} "
                    f"{slo.threshold:g}",
                    "budget": slo.budget,
                    "last": last,
                    "burn_long": round(burn_long, 6),
                    "burn_short": round(burn_short, 6),
                    "state": "firing" if is_firing else "ok",
                }
            )
        return rows
