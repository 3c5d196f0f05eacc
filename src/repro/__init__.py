"""SR3: Customizable Recovery for Stateful Stream Processing Systems.

A faithful, fully self-contained Python reproduction of the Middleware '20
paper by Xu, Liu, Cruz-Diaz, Da Silva and Hu. The package contains:

- ``repro.sim`` — a deterministic discrete-event cluster simulator with a
  max-min fair flow-level network (replaces the paper's 50-VM testbed);
- ``repro.dht`` — a Pastry-style DHT overlay (routing tables, leaf sets,
  O(log N) routing, self-repair);
- ``repro.multicast`` — Scribe-style topic trees;
- ``repro.state`` — hashtable state stores, shards, replication,
  placement, and version control;
- ``repro.recovery`` — the star-, line- and tree-structured recovery
  mechanisms, the Fig. 7 selection heuristic, and the baselines
  (checkpointing, replication, DStream lineage, and a cost model of FP4S
  erasure coding);
- ``repro.streaming`` — a Storm-like topology engine with stateful bolts
  and the SR3 state backend;
- ``repro.workloads`` — seeded synthetic equivalents of the paper's
  datasets and the Fig. 1 applications;
- ``repro.bench`` — the experiment harness regenerating every table and
  figure of the evaluation;
- ``repro.obs`` — deterministic span tracing and the metrics registry
  behind every layer above;
- ``repro.control`` — the closed-loop auto-remediation control plane
  (diagnose → plan → act → verify over a live deployment);
- ``repro.live`` — the live-traffic recovery harness: sustained ingest,
  app-flow interference, and user-felt latency metrics around failures.

Quick start: :class:`repro.SR3` (see ``examples/quickstart.py``).
"""

from repro._exports import export_table

__version__ = "1.0.0"

__getattr__, __all__ = export_table(__name__, {
    "repro.api": ("SR3", "SelectionResult", "SplitResult"),
    "repro.control": (
        "Controller", "ControlPlane", "Diagnosis", "PolicyRule", "PolicyTable",
        "RemediationRecord", "default_policy",
    ),
    "repro.errors": ("ReproError",),
    "repro.live": ("LiveCell", "LiveReport", "LoadDriver", "build_live_cell"),
    "repro.recovery.deployment": ("MECHANISMS", "Deployment", "build_deployment"),
})
__all__.append("__version__")
