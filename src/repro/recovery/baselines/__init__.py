"""Baseline recovery approaches SR3 is evaluated against (Sec. 2.2, 2.3).

- :mod:`checkpointing` — periodic checkpoints to remote storage plus
  serial upstream replay (Storm/TimeStream/Trident style); the paper's
  primary comparison baseline.
- :mod:`replication` — hot-standby replication (Flux/Borealis): instant
  failover at 2x hardware cost.
- :mod:`lineage` — DStream lineage recovery (Spark Streaming): re-run
  lost tasks along the lineage graph; slow for long lineages and poorly
  suited to simultaneous failures.
- :mod:`fp4s` — the authors' prior erasure-coded mechanism, as a
  closed-form cost model of its (n, m) code: fragment counts, the storage
  increment and calibrated coding throughputs.
"""

from repro.recovery.baselines.checkpointing import (
    CheckpointConfig,
    CheckpointingBaseline,
)
from repro.recovery.baselines.replication import ReplicationBaseline
from repro.recovery.baselines.lineage import LineageBaseline, LineageConfig
from repro.recovery.baselines.fp4s import Fp4sBaseline, Fp4sConfig

__all__ = [
    "CheckpointConfig",
    "CheckpointingBaseline",
    "ReplicationBaseline",
    "LineageBaseline",
    "LineageConfig",
    "Fp4sBaseline",
    "Fp4sConfig",
]
