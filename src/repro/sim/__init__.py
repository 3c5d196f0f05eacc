"""Deterministic discrete-event cluster simulator.

This package replaces the paper's 50-VM emulation testbed. It provides:

- :mod:`repro.sim.kernel` — event queue and virtual clock,
- :mod:`repro.sim.network` — max-min fair flow-level network with
  asymmetric per-host up/down bandwidth and a remote-storage model,
- :mod:`repro.sim.resources` — per-node CPU/memory accounting,
- :mod:`repro.sim.failure` — the log of injected failures (the injectors
  are :mod:`repro.chaos.injectors`).

The metric primitives re-exported here live in :mod:`repro.obs.registry`.
"""

from repro.sim.kernel import Event, Simulator
from repro.sim.network import Flow, Host, Network, RemoteStorage
from repro.sim.resources import ResourceProfile
from repro.sim.failure import FailureLog
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry, TimeSeries

__all__ = [
    "Event",
    "Simulator",
    "Flow",
    "Host",
    "Network",
    "RemoteStorage",
    "ResourceProfile",
    "FailureLog",
    "Counter",
    "TimeSeries",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]
