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

from repro.recovery.model import (
    CostModel,
    RecoveryContext,
    RecoveryHandle,
    RecoveryResult,
)
from repro.recovery.save import SaveResult, sr3_save
from repro.recovery.star import StarRecovery
from repro.recovery.line import LineRecovery
from repro.recovery.tree import TreeRecovery
from repro.recovery.standby import (
    StandbyRecovery,
    StandbySyncReport,
    standby_coverage,
    standby_node_of,
    sync_standby,
)
from repro.recovery.online import OnlineSelector, ShardDecision, ShardProfile
from repro.recovery.selection import (
    Mechanism,
    SelectionExplanation,
    SelectionInputs,
    explain_selection,
    predict_recovery_seconds,
    select_mechanism,
)
from repro.recovery.speculation import SpeculationConfig, SpeculativeStarRecovery
from repro.recovery.manager import RecoveryManager
from repro.recovery.deployment import (
    MECHANISMS,
    Deployment,
    HoldsDeployment,
    build_deployment,
)

__all__ = [
    "CostModel",
    "RecoveryContext",
    "RecoveryHandle",
    "RecoveryResult",
    "SaveResult",
    "sr3_save",
    "StarRecovery",
    "LineRecovery",
    "TreeRecovery",
    "StandbyRecovery",
    "StandbySyncReport",
    "standby_coverage",
    "standby_node_of",
    "sync_standby",
    "OnlineSelector",
    "ShardDecision",
    "ShardProfile",
    "Mechanism",
    "SelectionExplanation",
    "SelectionInputs",
    "explain_selection",
    "predict_recovery_seconds",
    "select_mechanism",
    "SpeculationConfig",
    "SpeculativeStarRecovery",
    "RecoveryManager",
    "MECHANISMS",
    "Deployment",
    "HoldsDeployment",
    "build_deployment",
]
