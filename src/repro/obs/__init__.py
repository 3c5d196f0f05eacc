"""Recovery observability: span tracing, metrics, and trace export.

The layer behind every "where does recovery time go" question:

- :mod:`repro.obs.tracer` — hierarchical spans on the simulation clock
  (``recovery/star`` → ``fetch shard 3 from node-17`` → the network flow),
  with a zero-cost :class:`NullTracer` default;
- :mod:`repro.obs.registry` — counters, time series, gauges, and
  histograms behind one named :class:`MetricsRegistry` per simulation;
- :mod:`repro.obs.recorder` — the tracers and registries a bench run
  keeps, and how a worker process ships them to its parent;
- :mod:`repro.obs.export` — Chrome ``trace_event`` JSON and plain-dict
  dumps, byte-identical across same-seed runs;
- :mod:`repro.obs.critical_path` — the critical path through a recovery's
  span DAG with per-category blame attribution;
- :mod:`repro.obs.profile` — deterministic :class:`RecoveryProfile`
  reports (blame fractions, bytes on the critical path, predicted vs
  observed mechanism cost);
- :mod:`repro.obs.flamegraph` — collapsed-stack and speedscope exports;
- :mod:`repro.obs.timeseries` — the continuous telemetry pipeline: a
  :class:`TelemetryPipeline` samples the registry and tracer into
  sim-clock series (rates from counters, windowed percentiles from
  histograms);
- :mod:`repro.obs.slo` — multi-window burn-rate SLO alerting over those
  series;
- :mod:`repro.obs.anomaly` — rolling median/MAD z-score spikes and
  level-shift change points;
- :mod:`repro.obs.dashboard` — a self-contained HTML dashboard (inline
  SVG sparklines, SLO status, alert timeline).

Trace one deployment by handing it a tracer
(``SR3.create(tracer=Tracer())``). The bench CLI cannot reach the
simulations an experiment builds, so it starts :mod:`repro.obs.recorder`
instead: until it stops, every new :class:`~repro.sim.kernel.Simulator`
records into a recorded tracer while spans are asked for (``--trace``,
``--profile``, ``--flamegraph``, ``--speedscope``, ``--baseline``) and
into a recorded registry while metrics are (``--metrics-out``).
"""

from repro._exports import export_table

__getattr__, __all__ = export_table(__name__, {
    "repro.obs.critical_path": (
        "BLAME_BY_CATEGORY", "BLAME_CATEGORIES", "CriticalSegment", "blame_breakdown", "blame_of",
        "critical_path", "recovery_roots",
    ),
    "repro.obs.export": ("chrome_trace", "dumps_trace", "trace_dict", "write_trace"),
    "repro.obs.flamegraph": (
        "collapsed_stacks", "flamegraph_text", "speedscope_document", "write_flamegraph",
        "write_speedscope",
    ),
    "repro.obs.profile": (
        "ProfileReport", "RecoveryProfile", "build_report", "profile_recovery", "profile_tracers",
        "write_profile",
    ),
    "repro.obs.registry": ("Counter", "Gauge", "Histogram", "MetricsRegistry", "TimeSeries"),
    "repro.obs.anomaly": ("Anomaly", "AnomalyDetector"),
    "repro.obs.dashboard": ("render_dashboard", "write_dashboard"),
    "repro.obs.slo": ("DEFAULT_WINDOWS", "SLO", "BurnWindow", "SLOAlert", "SLOEngine"),
    "repro.obs.timeseries": ("SERIES_KINDS", "TelemetryPipeline"),
    "repro.obs.tracer": ("NULL_SPAN", "NULL_TRACER", "NullTracer", "Span", "Tracer"),
})
