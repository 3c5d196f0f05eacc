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

from repro._exports import export_table

__getattr__, __all__ = export_table(__name__, {
    "repro.sim.kernel": ("Event", "Simulator"),
    "repro.sim.network": ("Flow", "Host", "Network", "RemoteStorage"),
    "repro.sim.resources": ("ResourceProfile",),
    "repro.sim.failure": ("FailureLog",),
    "repro.obs.registry": ("Counter", "Gauge", "Histogram", "MetricsRegistry", "TimeSeries"),
})
