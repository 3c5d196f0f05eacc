"""Partitioning snapshots into shards and merging shards back.

The partitioner implements ``StateSplit`` from the SR3 API (Table 2): it
divides a state into ``m`` shards by stable key hashing (so the same key
always lands in the same shard across save rounds) and creates ``n``
replicas of each. :func:`merge_shards` is the inverse used by every
recovery mechanism, with completeness and version checks.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Sequence

from repro.errors import IntegrityError, ShardError, VersionConflictError
from repro.state.shard import Shard, ShardReplica
from repro.state.store import StateSnapshot
from repro.state.version import StateVersion


def shard_index_for_key(key: Any, num_shards: int) -> int:
    """Stable shard assignment of one state key."""
    if num_shards <= 0:
        raise ShardError("num_shards must be positive")
    digest = hashlib.sha256(repr(key).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % num_shards


def partition_snapshot(snapshot: StateSnapshot, num_shards: int) -> List[Shard]:
    """Split a materialized snapshot into ``num_shards`` shards."""
    if num_shards <= 0:
        raise ShardError("num_shards must be positive")
    buckets: List[Dict[Any, Any]] = [{} for _ in range(num_shards)]
    for key, value in snapshot.items():
        buckets[shard_index_for_key(key, num_shards)][key] = value
    return [
        Shard(snapshot.name, i, num_shards, snapshot.version, entries=bucket)
        for i, bucket in enumerate(buckets)
    ]


def partition_synthetic(
    state_name: str,
    total_bytes: int,
    num_shards: int,
    version: StateVersion,
) -> List[Shard]:
    """Split a size-only state into equal synthetic shards."""
    if total_bytes < 0:
        raise ShardError("state size must be non-negative")
    if num_shards <= 0:
        raise ShardError("num_shards must be positive")
    base = total_bytes // num_shards
    remainder = total_bytes - base * num_shards
    return [
        Shard.synthetic_shard(
            state_name,
            i,
            num_shards,
            version,
            base + (1 if i < remainder else 0),
        )
        for i in range(num_shards)
    ]


def replicate(shards: Sequence[Shard], num_replicas: int) -> List[ShardReplica]:
    """Create ``num_replicas`` replicas of every shard."""
    if num_replicas <= 0:
        raise ShardError("num_replicas must be positive")
    return [
        ShardReplica(shard, r, num_replicas)
        for shard in shards
        for r in range(num_replicas)
    ]


def check_reconstruction_set(shards: Sequence[Shard]) -> StateVersion:
    """Validate that ``shards`` form a complete, consistent partition.

    Checks: one shard per index, a single ``num_shards``, a single state
    name, and a single version — SR3's version control guarantees recovery
    never mixes shards from different save rounds (Sec. 4).
    Returns the common version.
    """
    if not shards:
        raise ShardError("cannot reconstruct from zero shards")
    names = {s.state_name for s in shards}
    if len(names) != 1:
        raise ShardError(f"shards from different states: {sorted(names)}")
    counts = {s.num_shards for s in shards}
    if len(counts) != 1:
        raise ShardError(f"inconsistent num_shards: {sorted(counts)}")
    # A save round stamps one version object: the dataclass's __eq__ and
    # __hash__ run only on a mismatch.
    version = shards[0].version
    for shard in shards:
        if shard.version is not version and shard.version != version:
            versions = {s.version for s in shards}
            raise VersionConflictError(
                f"shards from different save rounds: {sorted(versions)}"
            )
    expected = counts.pop()
    indexes = sorted(s.index for s in shards)
    if indexes != list(range(expected)):
        missing = sorted(set(range(expected)) - set(indexes))
        raise ShardError(f"incomplete shard set; missing indexes {missing}")
    return version


def merge_shards(shards: Sequence[Shard]) -> StateSnapshot:
    """Rebuild the full snapshot from one complete shard set.

    Materialized shards are checksum-verified and merged key-by-key;
    synthetic shards merge by size only (their "snapshot" carries no
    entries but reports the reconstructed byte count).
    """
    version = check_reconstruction_set(shards)
    state_name = shards[0].state_name
    if all(s.synthetic for s in shards):
        snapshot = StateSnapshot(state_name, {}, version)
        snapshot.size_bytes = sum(s.size_bytes for s in shards)
        return snapshot
    if any(s.synthetic for s in shards):
        raise ShardError("cannot merge a mix of synthetic and materialized shards")
    merged: Dict[Any, Any] = {}
    for shard in sorted(shards, key=lambda s: s.index):
        if not shard.verify():
            raise IntegrityError(f"checksum mismatch on {shard!r}")
        for key, value in shard.entries.items():
            if key in merged:
                raise ShardError(f"key {key!r} appears in two shards")
            merged[key] = value
    return StateSnapshot(state_name, merged, version)
