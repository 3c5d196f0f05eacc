"""Sim-clock time-series: what the system looks like *while it runs*.

Everything else in :mod:`repro.obs` is post-hoc — span profiles after the
run, one-shot metric dumps at exit. This module is the continuous view:
a :class:`TelemetryPipeline` periodically samples the simulation's
existing :class:`~repro.obs.registry.MetricsRegistry` (and, when tracing
is on, the span tracer) into kind-tagged
:class:`~repro.obs.registry.TimeSeries` of its own, so the SLO engine
(:mod:`repro.obs.slo`) and the anomaly detector (:mod:`repro.obs.anomaly`)
can evaluate objectives over sliding windows on the virtual clock.

The pipeline *subscribes* rather than re-instruments: call sites keep
feeding the registry primitives they already feed, and each sample tick
derives series from them —

- every counter becomes a rate series (``<name>.rate``, delta/interval);
- every gauge becomes a sampled level series (same name);
- every registry :class:`~repro.obs.registry.TimeSeries` is mirrored
  point-for-point (cursor-copied, so nothing is scanned twice);
- every reading of the registry's collectors (the network's per-host
  ``net.host.<name>.{up_util,down_util,flows}``) is read live and appended
  when it moved; a name read at the last tick and absent now gets its drop
  to 0.0. Their owner stores nothing: they exist only where sampled;
- every histogram that opted into timestamped observations
  (:meth:`~repro.obs.registry.Histogram.keep_observations`) yields
  windowed percentile series (``<name>.p50``, ``<name>.p99``, ...);
- open ``recovery*`` spans become a ``telemetry.recovery_active`` gauge
  series when the simulation carries a real tracer.

The pipeline keeps every point it copies. Everything is deterministic:
sampling happens on the simulated clock, iteration orders are sorted, and
no wall time is consulted.

Embeddings that own the event loop (the live :class:`~repro.live.driver.
LoadDriver`) call :meth:`TelemetryPipeline.sample` from their own tick;
batch embeddings call :meth:`TelemetryPipeline.start` to self-schedule
on the simulator and :meth:`TelemetryPipeline.stop` before waiting for
quiescence.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.errors import ConfigError
from repro.obs.registry import TimeSeries
from repro.util.stats import percentile

__all__ = ["TelemetryPipeline"]

#: Series kinds the pipeline produces (anomaly detection keys off these).
SERIES_KINDS = ("gauge", "rate", "series", "percentile")

#: Seconds of simulated time between the samples ``start()`` schedules. It
#: paces ``start()`` only: an embedding that owns the loop calls ``sample()``
#: from its own tick and never reads it.
SAMPLE_INTERVAL = 0.5
#: Trailing window of the histogram percentile series, and the percentiles
#: derived from observation-keeping histograms, by series suffix.
HISTOGRAM_WINDOW = 5.0
HISTOGRAM_PERCENTILES = (("p50", 50.0), ("p99", 99.0))


class TelemetryPipeline:
    """Samples one simulation's registry (and tracer) into series of its own."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self._buffers: Dict[str, TimeSeries] = {}
        self._counter_totals: Dict[str, float] = {}
        self._series_cursors: Dict[str, int] = {}
        self._live: Set[str] = set()  # collector names read at the last tick
        self._last_sample: Optional[float] = None
        self._running = False
        self.samples = 0

    # -------------------------------------------------------------- series

    def _ensure(self, name: str, kind: str) -> TimeSeries:
        buf = self._buffers.get(name)
        if buf is None:
            if kind not in SERIES_KINDS:
                raise ConfigError(f"unknown series kind {kind!r}; known: {SERIES_KINDS}")
            buf = self._buffers[name] = TimeSeries(name)
            buf.kind = kind
        return buf

    def series(self, name: str) -> TimeSeries:
        """The named series; raises for names the pipeline never produced."""
        buf = self._buffers.get(name)
        if buf is None:
            raise ConfigError(
                f"unknown telemetry series {name!r}; known: {self.names()}"
            )
        return buf

    def has_series(self, name: str) -> bool:
        return name in self._buffers

    def names(self) -> List[str]:
        return sorted(self._buffers)

    def record(self, name: str, t: float, value: float, kind: str = "gauge") -> None:
        """Directly feed a point (for embedders with pipeline-only signals)."""
        self._ensure(name, kind).record(t, value)

    # ------------------------------------------------------------ sampling

    def sample(self, now: Optional[float] = None) -> None:
        """Take one sample of everything the registry and tracer expose."""
        if now is None:
            now = self.sim.now
        registry = self.sim.metrics
        dt = None if self._last_sample is None else now - self._last_sample
        if dt is not None and dt <= 0:
            return  # same-instant re-sample: nothing new can have happened
        counters = registry.counters()
        for name in sorted(counters):
            total = counters[name].total
            previous = self._counter_totals.get(name)
            self._counter_totals[name] = total
            if previous is None or dt is None:
                continue  # first sight: no interval to rate over
            self._ensure(f"{name}.rate", "rate").record(now, (total - previous) / dt)
        gauges = registry.gauges()
        for name in sorted(gauges):
            self._ensure(name, "gauge").record(now, gauges[name].value)
        all_series = registry.all_series()
        for name in sorted(all_series):
            series = all_series[name]
            buf = self._ensure(name, "series")
            for t, v in series.points_from(self._series_cursors.get(name, 0)):
                buf.record(t, v)
            self._series_cursors[name] = len(series)
        live = registry.collect()
        readings = dict.fromkeys(self._live - live.keys(), 0.0)  # idle since last tick
        readings.update(live)
        self._live = set(live)
        for name in sorted(readings):
            buf = self._ensure(name, "series")
            last = buf.last()
            if last is None or last[1] != readings[name]:
                buf.record(now, readings[name])
        histograms = registry.histograms()
        for name in sorted(histograms):
            histogram = histograms[name]
            if not histogram.keeps_observations:
                continue
            window_values = [
                v
                for t, v in histogram.observations()
                if now - HISTOGRAM_WINDOW < t <= now
            ]
            if not window_values:
                continue
            for suffix, q in HISTOGRAM_PERCENTILES:
                self._ensure(f"{name}.{suffix}", "percentile").record(
                    now, percentile(window_values, q)
                )
        spans = getattr(self.sim.tracer, "spans", None)
        if spans:  # NullTracer keeps an empty list — nothing to count
            open_recoveries = sum(
                1
                for span in spans
                if span.category.startswith("recovery") and not span.done
            )
            self._ensure("telemetry.recovery_active", "gauge").record(
                now, float(open_recoveries)
            )
        self._last_sample = now
        self.samples += 1

    # ------------------------------------------- self-scheduled (batch) mode

    def start(self) -> None:
        """Schedule periodic sampling on the simulator itself."""
        if self._running:
            raise ConfigError("telemetry pipeline already running")
        self._running = True
        self.sim.schedule(SAMPLE_INTERVAL, self._tick)

    def stop(self) -> None:
        """Stop self-scheduled sampling (the pending tick becomes a no-op)."""
        self._running = False

    @property
    def running(self) -> bool:
        return self._running

    def _tick(self) -> None:
        if not self._running:
            return
        self.sample(self.sim.now)
        self.sim.schedule(SAMPLE_INTERVAL, self._tick)
