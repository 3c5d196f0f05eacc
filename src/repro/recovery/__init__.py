"""SR3 recovery mechanisms and the mechanism-selection heuristic.

Layer 3 of the SR3 design: three customizable recovery mechanisms —

- :class:`~repro.recovery.star.StarRecovery` (Sec. 3.4): leaf-set
  providers upload shards directly to the replacing node in parallel;
  fastest for small state, centralized bottleneck for large state.
- :class:`~repro.recovery.line.LineRecovery` (Sec. 3.5): shards are merged
  along a pipelined chain of providers, balancing download and compute
  load; latency grows with path length.
- :class:`~repro.recovery.tree.TreeRecovery` (Sec. 3.6): shards split into
  sub-shards and aggregated up Scribe-style spanning trees in parallel;
  best for very large state and many simultaneous failures.

plus the runtime heuristic of Sec. 3.7 that picks one per application,
and :mod:`~repro.recovery.deployment`: the one builder of a simulated
deployment and the one name → mechanism table every layer above uses.
"""

from repro._exports import export_table

__getattr__, __all__ = export_table(__name__, {
    "repro.recovery.model": ("CostModel", "RecoveryContext", "RecoveryHandle", "RecoveryResult"),
    "repro.recovery.save": ("SaveResult", "sr3_save"),
    "repro.recovery.star": ("StarRecovery",),
    "repro.recovery.line": ("LineRecovery",),
    "repro.recovery.tree": ("TreeRecovery",),
    "repro.recovery.standby": ("StandbyRecovery", "StandbySyncReport", "sync_standby"),
    "repro.recovery.online": ("OnlineSelector",),
    "repro.recovery.selection": (
        "Mechanism", "SelectionExplanation", "SelectionInputs", "explain_selection",
        "predict_recovery_seconds", "select_mechanism",
    ),
    "repro.recovery.speculation": ("SpeculationConfig", "SpeculativeStarRecovery"),
    "repro.recovery.manager": ("RecoveryManager",),
    "repro.recovery.deployment": (
        "MECHANISMS", "Deployment", "HoldsDeployment", "build_deployment",
    ),
})
