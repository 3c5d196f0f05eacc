"""Shards, sub-shards, and replicas.

A save round divides a state snapshot into ``m`` shards (Fig. 3's
``s_0..s_{m-1}``); each shard is replicated ``n`` times (``s_{i,r}``); the
tree-structured mechanism further splits each shard into sub-shards
(``s_{i,j,r}``, Fig. 5) so reconstruction parallelizes below shard
granularity. Shards either carry real entries (streaming-engine states) or
are *synthetic* — metadata plus a byte size — so experiments can model the
paper's multi-megabyte states without materializing them.

Incremental saves extend the model with :class:`DeltaShard`: a shard whose
payload is only the keys that changed (plus tombstones for deletions)
since a *parent* version. A recovered state is then a version chain — one
base shard set plus zero or more delta shard sets applied in version
order (see :mod:`repro.state.chain`).
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.errors import ShardError
from repro.state.store import estimate_entry_bytes
from repro.state.version import StateVersion

#: Fixed serialization overhead of a delta shard (parent-version header,
#: link metadata). Keeps zero-change deltas from producing zero-byte
#: network flows.
DELTA_HEADER_BYTES = 64

#: Approximate wire footprint of one deletion tombstone.
DELTA_TOMBSTONE_BYTES = 24


def _entries_checksum(entries: Dict[Any, Any]) -> str:
    digest = hashlib.sha256()
    for key in sorted(entries, key=repr):
        digest.update(repr(key).encode("utf-8"))
        digest.update(b"=")
        digest.update(repr(entries[key]).encode("utf-8"))
        digest.update(b";")
    return digest.hexdigest()


class ReplicaKey(NamedTuple):
    """Globally unique identity of one stored shard replica.

    ``link`` distinguishes chain positions: base shards store at link 0,
    the k-th delta round at link k — so a delta replica never collides
    with the base replica of the same shard index on the same node. A
    named tuple hashes in C, to what a frozen dataclass of these fields does.
    """

    state_name: str
    shard_index: int
    replica_index: int
    link: int = 0

    def __repr__(self) -> str:
        suffix = f".d{self.link}" if self.link else ""
        return f"{self.state_name}/s{self.shard_index}.r{self.replica_index}{suffix}"


class Shard:
    """One horizontal partition of a state snapshot."""

    #: Chain position: 0 for base shards, k for the k-th delta round.
    chain_link: int = 0
    #: Version this shard's payload diffs against (None for base shards).
    parent_version: Optional[StateVersion] = None

    def __init__(
        self,
        state_name: str,
        index: int,
        num_shards: int,
        version: StateVersion,
        entries: Optional[Dict[Any, Any]] = None,
        size_bytes: Optional[int] = None,
    ) -> None:
        if not 0 <= index < num_shards:
            raise ShardError(f"shard index {index} out of range for m={num_shards}")
        if entries is None and size_bytes is None:
            raise ShardError("a shard needs either entries or an explicit size")
        self.state_name = state_name
        self.index = index
        self.num_shards = num_shards
        self.version = version
        self.entries = entries
        if size_bytes is not None:
            self.size_bytes = int(size_bytes)
        else:
            self.size_bytes = sum(estimate_entry_bytes(k, v) for k, v in entries.items())
        self.checksum = (
            _entries_checksum(entries)
            if entries is not None
            else hashlib.sha256(
                f"{state_name}/{index}/{num_shards}/{version!r}/{self.size_bytes}".encode()
            ).hexdigest()
        )

    @property
    def synthetic(self) -> bool:
        """True when the shard models size only (no materialized entries)."""
        return self.entries is None

    @classmethod
    def synthetic_shard(
        cls,
        state_name: str,
        index: int,
        num_shards: int,
        version: StateVersion,
        size_bytes: int,
    ) -> "Shard":
        """A size-only shard for large-state experiments."""
        if size_bytes < 0:
            raise ShardError("shard size must be non-negative")
        return cls(state_name, index, num_shards, version, entries=None, size_bytes=size_bytes)

    def verify(self) -> bool:
        """Recompute and compare the checksum (materialized shards only)."""
        if self.entries is None:
            return True
        return _entries_checksum(self.entries) == self.checksum

    def sub_shards(self, count: int) -> List["SubShard"]:
        """Split into ``count`` sub-shards for tree-structured recovery."""
        if count <= 0:
            raise ShardError("sub-shard count must be positive")
        if self.entries is not None:
            keys = sorted(self.entries, key=repr)
            buckets: List[Dict[Any, Any]] = [{} for _ in range(count)]
            for i, key in enumerate(keys):
                buckets[i % count][key] = self.entries[key]
            return [
                SubShard(self, j, count, entries=bucket)
                for j, bucket in enumerate(buckets)
            ]
        base = self.size_bytes // count
        remainder = self.size_bytes - base * count
        return [
            SubShard(self, j, count, size_bytes=base + (1 if j < remainder else 0))
            for j in range(count)
        ]

    def __repr__(self) -> str:
        kind = "synthetic" if self.synthetic else f"{len(self.entries)} entries"
        return (
            f"Shard({self.state_name!r}, {self.index}/{self.num_shards}, "
            f"{self.size_bytes}B, {kind})"
        )


class DeltaShard(Shard):
    """A shard carrying only the keys changed since a parent version.

    The payload is the changed/inserted entries for this shard index plus
    tombstones (``deletions``) for keys removed since ``parent_version``.
    Applying a delta means: upsert every entry, then drop every tombstoned
    key. Synthetic delta shards model size only, like synthetic bases.
    """

    def __init__(
        self,
        state_name: str,
        index: int,
        num_shards: int,
        version: StateVersion,
        parent_version: StateVersion,
        chain_link: int,
        entries: Optional[Dict[Any, Any]] = None,
        deletions: Tuple[Any, ...] = (),
        size_bytes: Optional[int] = None,
    ) -> None:
        if chain_link < 1:
            raise ShardError("delta shards start at chain link 1")
        if not parent_version < version:
            raise ShardError(
                f"delta version {version!r} must follow parent {parent_version!r}"
            )
        self.parent_version = parent_version
        self.chain_link = chain_link
        self.deletions = tuple(sorted(deletions, key=repr))
        if size_bytes is None and entries is not None:
            size_bytes = (
                sum(estimate_entry_bytes(k, v) for k, v in entries.items())
                + DELTA_TOMBSTONE_BYTES * len(self.deletions)
                + DELTA_HEADER_BYTES
            )
        super().__init__(
            state_name, index, num_shards, version,
            entries=entries, size_bytes=size_bytes,
        )
        # Fold the delta-specific identity (parent link, tombstones) into
        # the checksum so two deltas with equal entries but different
        # lineage never alias.
        digest = hashlib.sha256(self.checksum.encode("utf-8"))
        digest.update(f"|parent={self.parent_version!r}|link={self.chain_link}".encode())
        for key in self.deletions:
            digest.update(b"|del=")
            digest.update(repr(key).encode("utf-8"))
        self.checksum = digest.hexdigest()

    @classmethod
    def synthetic_delta(
        cls,
        state_name: str,
        index: int,
        num_shards: int,
        version: StateVersion,
        parent_version: StateVersion,
        chain_link: int,
        size_bytes: int,
    ) -> "DeltaShard":
        """A size-only delta shard for large-state experiments."""
        if size_bytes < 0:
            raise ShardError("delta shard size must be non-negative")
        return cls(
            state_name, index, num_shards, version, parent_version,
            chain_link, entries=None, size_bytes=size_bytes,
        )

    def verify(self) -> bool:
        """Recompute and compare the checksum (materialized deltas only)."""
        if self.entries is None:
            return True
        digest = hashlib.sha256(_entries_checksum(self.entries).encode("utf-8"))
        digest.update(f"|parent={self.parent_version!r}|link={self.chain_link}".encode())
        for key in self.deletions:
            digest.update(b"|del=")
            digest.update(repr(key).encode("utf-8"))
        return digest.hexdigest() == self.checksum

    def __repr__(self) -> str:
        kind = "synthetic" if self.synthetic else (
            f"{len(self.entries)} entries, {len(self.deletions)} tombstones"
        )
        return (
            f"DeltaShard({self.state_name!r}, {self.index}/{self.num_shards}, "
            f"link {self.chain_link}, {self.size_bytes}B, {kind})"
        )


class SubShard:
    """A fraction of one shard (``s_{i,j}`` in Fig. 5)."""

    def __init__(
        self,
        parent: Shard,
        sub_index: int,
        num_sub_shards: int,
        entries: Optional[Dict[Any, Any]] = None,
        size_bytes: Optional[int] = None,
    ) -> None:
        if not 0 <= sub_index < num_sub_shards:
            raise ShardError(
                f"sub-shard index {sub_index} out of range for {num_sub_shards}"
            )
        self.parent = parent
        self.sub_index = sub_index
        self.num_sub_shards = num_sub_shards
        self.entries = entries
        if size_bytes is not None:
            self.size_bytes = int(size_bytes)
        elif entries is not None:
            self.size_bytes = sum(estimate_entry_bytes(k, v) for k, v in entries.items())
        else:
            raise ShardError("a sub-shard needs either entries or a size")

    def __repr__(self) -> str:
        return (
            f"SubShard({self.parent.state_name!r}, s{self.parent.index}."
            f"{self.sub_index}/{self.num_sub_shards}, {self.size_bytes}B)"
        )


class ShardReplica:
    """One stored copy of a shard on a peer node."""

    # Warm-standby copies (``repro.recovery.standby``) are flagged so
    # diagnosis/rebalancing treat them as deliberate concentration rather
    # than load skew to disperse.
    standby = False

    def __init__(self, shard: Shard, replica_index: int, num_replicas: int) -> None:
        if not 0 <= replica_index < num_replicas:
            raise ShardError(
                f"replica index {replica_index} out of range for n={num_replicas}"
            )
        self.shard = shard
        self.replica_index = replica_index
        self.num_replicas = num_replicas
        # Built once: every field it reads is assigned once, and placement
        # and recovery look replicas up by key on every provider scan.
        self.key = ReplicaKey(
            shard.state_name, shard.index, replica_index, link=shard.chain_link
        )

    @property
    def size_bytes(self) -> int:
        return self.shard.size_bytes

    def __repr__(self) -> str:
        return f"ShardReplica({self.key!r}, {self.size_bytes}B)"
