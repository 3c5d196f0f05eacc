"""State layer: operator state, shards, replication, placement, versions.

Layer 2 of the SR3 design (Sec. 3.3): each operator's state lives in an
in-memory hashtable; periodically it is divided into ``m`` shards, each
replicated ``n`` times and distributed to peer nodes so that, on failure,
different sets of available shards reconstruct the lost state in parallel.
"""

from repro._exports import export_table

__getattr__, __all__ = export_table(__name__, {
    "repro.state.version": ("StateVersion", "VersionClock"),
    "repro.state.store": ("StateSnapshot", "StateStore"),
    "repro.state.shard": ("DeltaShard", "Shard", "ShardReplica", "SubShard"),
    "repro.state.partitioner": ("merge_shards", "partition_snapshot", "partition_synthetic"),
    "repro.state.chain": (
        "ChainLink", "CompactionPolicy", "VersionChain", "chain_digest",
        "diff_snapshots", "partition_delta", "reconstruct_chain",
    ),
    "repro.state.placement": ("HashPlacement", "LeafSetPlacement", "PlacedShard", "PlacementPlan"),
})
