"""Live-traffic recovery harness: sustained ingest, interference, user-felt metrics.

``repro.live`` measures what a *user* of the streaming application feels
when a state owner dies mid-stream: the load driver plays a rate curve
against a topology, mirrors the offered load into the network's max-min
allocator as first-class app flows, kills an owner, and reports latency
percentiles segmented around the recovery window, replay lag, catch-up
throughput, and time-to-drain.
"""

from repro.live.driver import LiveCell, LoadDriver, build_live_cell
from repro.live.metrics import (
    LATENCY_PERCENTILES,
    BacklogTimeline,
    LatencyRecorder,
    LiveReport,
    PhaseSummary,
    recovery_window,
)
from repro.live.rates import ConstantRate, FlashCrowd, RateCurve

__all__ = [
    "LiveCell",
    "LoadDriver",
    "build_live_cell",
    "LATENCY_PERCENTILES",
    "BacklogTimeline",
    "LatencyRecorder",
    "LiveReport",
    "PhaseSummary",
    "recovery_window",
    "ConstantRate",
    "FlashCrowd",
    "RateCurve",
]
