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

from repro._exports import export_table

__getattr__, __all__ = export_table(__name__, {
    "repro.recovery.baselines.checkpointing": ("CheckpointConfig", "CheckpointingBaseline"),
    "repro.recovery.baselines.replication": ("ReplicationBaseline",),
    "repro.recovery.baselines.lineage": ("LineageBaseline", "LineageConfig"),
    "repro.recovery.baselines.fp4s": ("Fp4sBaseline", "Fp4sConfig"),
})
