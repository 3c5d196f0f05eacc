"""Live-traffic recovery harness: sustained ingest, interference, user-felt metrics.

``repro.live`` measures what a *user* of the streaming application feels
when a state owner dies mid-stream: the load driver plays a rate curve
against a topology, mirrors the offered load into the network's max-min
allocator as first-class app flows, kills an owner, and reports latency
percentiles segmented around the recovery window, replay lag, catch-up
throughput, and time-to-drain.
"""

from repro._exports import export_table

__getattr__, __all__ = export_table(__name__, {
    "repro.live.driver": ("LiveCell", "LoadDriver", "build_live_cell"),
    "repro.live.metrics": ("LATENCY_PERCENTILES", "LatencyRecorder", "LiveReport", "PhaseSummary"),
    "repro.live.rates": ("ConstantRate", "FlashCrowd", "RateCurve"),
})
