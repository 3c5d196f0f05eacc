"""Version chains: base + delta shard sets and chain-aware placement.

A full save round writes a *base* link — the complete partitioned state.
Every incremental round after it appends a *delta* link: ``m`` delta
shards carrying only the keys that changed since the previous link's
version (plus deletion tombstones). Recovery then fetches one surviving
replica per chain *segment* — ``links × m`` shards in total — and replays
base-then-deltas in version order.

:class:`CompactionPolicy` bounds the chain: when it grows past
``max_chain_len`` links or the accumulated delta bytes exceed
``max_delta_ratio`` of the base, the next save is forced full and the
chain resets (the save pipeline's fallback conditions live in
:meth:`repro.recovery.manager.RecoveryManager.save_delta`).

A :class:`VersionChain` is the whole saved state of one protected state,
and its placement plan too: star/line/tree/speculation recover a chain
without knowing it is one beyond the ``length``/``delta_bytes`` they
annotate onto their spans.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from repro.errors import IntegrityError, ShardError, VersionConflictError
from repro.state.partitioner import check_reconstruction_set, shard_index_for_key
from repro.state.placement import PlacementPlan
from repro.state.shard import DeltaShard, Shard
from repro.state.store import StateSnapshot
from repro.state.version import StateVersion

__all__ = [
    "ChainLink",
    "CompactionPolicy",
    "VersionChain",
    "chain_digest",
    "diff_snapshots",
    "partition_delta",
    "reconstruct_chain",
]


@dataclass(frozen=True)
class CompactionPolicy:
    """When to stop appending deltas and rewrite a full base.

    ``max_chain_len`` caps the number of links (base included); a longer
    chain means more segments to fetch and replay on recovery.
    ``max_delta_ratio`` caps accumulated delta bytes as a fraction of the
    base — past it, replaying deltas costs more than refetching a base.
    """

    max_chain_len: int = 4
    max_delta_ratio: float = 0.5

    def __post_init__(self) -> None:
        if self.max_chain_len < 1:
            raise ShardError("compaction policy needs max_chain_len >= 1")
        if self.max_delta_ratio <= 0:
            raise ShardError("compaction policy needs a positive max_delta_ratio")


@dataclass
class ChainLink:
    """One save round in a chain: its shards and where they were placed."""

    kind: str  # "base" | "delta"
    version: StateVersion
    shards: List[Shard]
    plan: Any  # PlacementPlan of this round's replicas

    @property
    def bytes(self) -> int:
        return sum(s.size_bytes for s in self.shards)


class VersionChain:
    """The ordered base + delta history of one protected state, and its plan.

    Built from its base link, so it is never empty. It answers the
    :class:`~repro.state.placement.PlacementPlan` protocol the mechanisms
    read: global segment ``k * m + i`` is shard ``i`` of link ``k``, so
    the base occupies segments ``0..m-1`` and the j-th delta round
    ``j*m..j*m+m-1``. Mechanisms iterate ``shard_indexes()`` and query
    ``providers_for()`` exactly as on one round's flat plan, and read
    ``length``/``delta_bytes`` for the replay they annotate onto spans.
    """

    def __init__(self, state_name: str, base_shards: Sequence[Shard], plan: Any) -> None:
        self.state_name = state_name
        self.reset(base_shards, plan)

    @property
    def length(self) -> int:
        return len(self.links)

    @property
    def num_shards(self) -> int:
        return self.links[0].shards[0].num_shards

    @property
    def tip_version(self) -> StateVersion:
        return self.links[-1].version

    @property
    def base_bytes(self) -> int:
        return self.links[0].bytes

    @property
    def delta_bytes(self) -> int:
        return sum(link.bytes for link in self.links[1:])

    def reset(self, base_shards: Sequence[Shard], plan: Any) -> None:
        """Start a fresh chain from a full save round."""
        shards = sorted(base_shards, key=lambda s: s.index)
        version = check_reconstruction_set(shards)
        if any(s.chain_link != 0 for s in shards):
            raise ShardError("a chain base must be built from link-0 shards")
        self.links = [ChainLink("base", version, list(shards), plan)]

    def append_delta(self, delta_shards: Sequence[Shard], plan: Any) -> None:
        """Append one delta save round against the current tip."""
        shards = sorted(delta_shards, key=lambda s: s.index)
        version = check_reconstruction_set(shards)
        tip = self.tip_version
        link_pos = len(self.links)
        for shard in shards:
            if not isinstance(shard, DeltaShard):
                raise ShardError(f"chain deltas must be DeltaShards, got {shard!r}")
            if shard.parent_version != tip:
                raise VersionConflictError(
                    f"delta parent {shard.parent_version!r} does not match "
                    f"chain tip {tip!r}"
                )
            if shard.chain_link != link_pos:
                raise ShardError(
                    f"delta link {shard.chain_link} out of order; expected {link_pos}"
                )
        self.links.append(ChainLink("delta", version, list(shards), plan))

    def needs_compaction(
        self, policy: CompactionPolicy, extra_delta_bytes: int = 0
    ) -> bool:
        """Would appending another delta round violate the policy?"""
        if self.length + 1 > policy.max_chain_len:
            return True
        base = self.base_bytes
        if base <= 0:
            return True
        ratio = (self.delta_bytes + extra_delta_bytes) / base
        return ratio > policy.max_delta_ratio

    # ------------------------------------------------- placement-plan protocol

    @property
    def owner(self):
        return self.links[0].plan.owner

    @property
    def placements(self) -> List[Any]:
        """Every link's placements, base first (a new list each read)."""
        return [p for link in self.links for p in link.plan.placements]

    def _locate(self, segment: int) -> Tuple[Any, int]:
        m = self.num_shards
        link_pos, index = divmod(segment, m)
        if not 0 <= link_pos < self.length:
            raise ShardError(
                f"segment {segment} out of range for a {self.length}-link "
                f"chain of {m} shards"
            )
        return self.links[link_pos].plan, index

    def providers_for(self, segment: int) -> List[Any]:
        plan, index = self._locate(segment)
        return plan.providers_for(index)

    def shard_indexes(self) -> List[int]:
        return list(range(self.length * self.num_shards))

    # The same walk over shard_indexes() and providers_for() as one round's.
    available_shards = PlacementPlan.available_shards

    def __repr__(self) -> str:
        return (
            f"VersionChain({self.state_name!r}, {self.length} links, "
            f"base {self.base_bytes}B + deltas {self.delta_bytes}B)"
        )


def diff_snapshots(
    parent: StateSnapshot, current: StateSnapshot
) -> Tuple[Dict[Any, Any], List[Any]]:
    """Changed entries and deleted keys between two snapshots of one state."""
    if parent.name != current.name:
        raise ShardError(
            f"cannot diff snapshots of different states: "
            f"{parent.name!r} vs {current.name!r}"
        )
    if not parent.version < current.version:
        raise VersionConflictError(
            f"diff requires parent {parent.version!r} < current {current.version!r}"
        )
    parent_entries = parent.as_dict()
    changed: Dict[Any, Any] = {}
    for key, value in current.items():
        if key not in parent_entries or parent_entries[key] != value:
            changed[key] = value
    deletions = [key for key in parent_entries if key not in current]
    return changed, deletions


def partition_delta(
    state_name: str,
    changed: Dict[Any, Any],
    deletions: Sequence[Any],
    num_shards: int,
    version: StateVersion,
    parent_version: StateVersion,
    chain_link: int,
) -> List[DeltaShard]:
    """Split one delta round into ``num_shards`` delta shards.

    Every shard index is produced, even when its bucket is empty — uniform
    segments per link keep chain recovery (and the selection model's
    per-link shard term) regular. Keys hash to the same shard index as in
    the base partition, so replaying a delta only ever touches keys the
    base shard owns.
    """
    if num_shards <= 0:
        raise ShardError("num_shards must be positive")
    buckets: List[Dict[Any, Any]] = [{} for _ in range(num_shards)]
    for key, value in changed.items():
        buckets[shard_index_for_key(key, num_shards)][key] = value
    tombstones: List[List[Any]] = [[] for _ in range(num_shards)]
    for key in deletions:
        tombstones[shard_index_for_key(key, num_shards)].append(key)
    return [
        DeltaShard(
            state_name,
            i,
            num_shards,
            version,
            parent_version,
            chain_link,
            entries=buckets[i],
            deletions=tuple(tombstones[i]),
        )
        for i in range(num_shards)
    ]


def _group_links(segments: Sequence[Shard]) -> List[List[Shard]]:
    """Group fetched segments by chain link and validate each round."""
    if not segments:
        raise ShardError("cannot reconstruct from zero chain segments")
    by_link: Dict[int, List[Shard]] = {}
    for shard in segments:
        by_link.setdefault(shard.chain_link, []).append(shard)
    link_ids = sorted(by_link)
    if link_ids != list(range(len(link_ids))):
        missing = sorted(set(range(max(link_ids) + 1)) - set(link_ids))
        raise ShardError(f"chain is missing whole links {missing}")
    ordered: List[List[Shard]] = []
    for link_pos in link_ids:
        shards = sorted(by_link[link_pos], key=lambda s: s.index)
        check_reconstruction_set(shards)
        ordered.append(shards)
    return ordered


def reconstruct_chain(segments: Sequence[Shard]) -> StateSnapshot:
    """Rebuild a snapshot from fetched chain segments, base-then-deltas.

    Applies each delta round in version order on top of the merged base:
    upsert every changed entry, then drop every tombstoned key. Parent
    versions must link (each round's ``parent_version`` equals the prior
    round's version) and every materialized shard is checksum-verified.
    Synthetic chains reconstruct by size: the base byte count stands in
    for the live footprint (deltas overwrite in place).
    """
    rounds = _group_links(segments)
    base = rounds[0]
    if any(s.chain_link != 0 for s in base):
        raise ShardError("link 0 of a chain must be base shards")
    synthetic = all(s.synthetic for s in segments)
    if not synthetic and any(s.synthetic for s in segments):
        raise ShardError("cannot mix synthetic and materialized chain segments")

    state_name = base[0].state_name
    tip_version = base[0].version
    for link_pos, shards in enumerate(rounds[1:], start=1):
        for shard in shards:
            if not isinstance(shard, DeltaShard):
                raise ShardError(
                    f"link {link_pos} must be delta shards, got {shard!r}"
                )
            if shard.parent_version != tip_version:
                raise VersionConflictError(
                    f"link {link_pos} parent {shard.parent_version!r} does not "
                    f"match prior version {tip_version!r}"
                )
        tip_version = shards[0].version

    if synthetic:
        snapshot = StateSnapshot(state_name, {}, tip_version)
        snapshot.size_bytes = sum(s.size_bytes for s in base)
        return snapshot

    merged: Dict[Any, Any] = {}
    for shard in base:
        if not shard.verify():
            raise IntegrityError(f"checksum mismatch on {shard!r}")
        for key, value in shard.entries.items():
            if key in merged:
                raise ShardError(f"key {key!r} appears in two base shards")
            merged[key] = value
    for shards in rounds[1:]:
        for shard in shards:
            if not shard.verify():
                raise IntegrityError(f"checksum mismatch on {shard!r}")
            merged.update(shard.entries)
            for key in shard.deletions:
                merged.pop(key, None)
    return StateSnapshot(state_name, merged, tip_version)


def chain_digest(segments: Sequence[Shard]) -> str:
    """Deterministic digest of a chain's (link, index, checksum) triples.

    Works for synthetic and materialized chains alike — the ground truth
    the chaos invariant compares against after recovery.
    """
    digest = hashlib.sha256()
    for shard in sorted(segments, key=lambda s: (s.chain_link, s.index)):
        digest.update(f"{shard.chain_link}/{shard.index}/{shard.checksum};".encode())
    return digest.hexdigest()
