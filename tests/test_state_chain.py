"""Unit tests for the version-chain layer (delta shards, chains, replay)."""

import pytest

from repro.errors import (
    IntegrityError,
    ShardError,
    VersionConflictError,
)
from repro.state.chain import (
    CompactionPolicy,
    VersionChain,
    chain_digest,
    diff_snapshots,
    partition_delta,
    reconstruct_chain,
)
from repro.state.partitioner import (
    partition_snapshot,
    partition_synthetic,
    shard_index_for_key,
)
from repro.state.shard import (
    DELTA_HEADER_BYTES,
    DeltaShard,
    Shard,
)
from repro.state.store import StateSnapshot
from repro.state.version import StateVersion
from repro.util.sizes import MB

V0 = StateVersion(0.0, 1)
V1 = StateVersion(1.0, 2)
V2 = StateVersion(2.0, 3)


def snapshot(entries, version=V0, name="app/state"):
    return StateSnapshot(name, dict(entries), version)


def base_shards(entries, version=V0, num_shards=4, name="app/state"):
    return partition_snapshot(snapshot(entries, version, name), num_shards)


class TestDeltaShard:
    def test_requires_link_at_least_one(self):
        with pytest.raises(ShardError):
            DeltaShard("s", 0, 4, V1, V0, chain_link=0, entries={})

    def test_version_must_follow_parent(self):
        with pytest.raises(ShardError):
            DeltaShard("s", 0, 4, V0, V1, chain_link=1, entries={})

    def test_checksum_folds_lineage(self):
        a = DeltaShard("s", 0, 4, V2, V0, 1, entries={"k": 1})
        b = DeltaShard("s", 0, 4, V2, V1, 1, entries={"k": 1})
        c = DeltaShard("s", 0, 4, V2, V0, 1, entries={"k": 1}, deletions=("gone",))
        assert a.checksum != b.checksum
        assert a.checksum != c.checksum

    def test_verify_detects_tamper(self):
        shard = DeltaShard("s", 0, 4, V1, V0, 1, entries={"k": 1})
        assert shard.verify()
        shard.entries["k"] = 2
        assert not shard.verify()

    def test_empty_delta_still_has_wire_footprint(self):
        shard = DeltaShard("s", 0, 4, V1, V0, 1, entries={})
        assert shard.size_bytes == DELTA_HEADER_BYTES

    def test_replica_key_link_disambiguates(self):
        base = Shard("s", 0, 4, V0, entries={"k": 1})
        delta = DeltaShard("s", 0, 4, V1, V0, 1, entries={"k": 2})
        from repro.state.partitioner import replicate

        base_key = replicate([base], 1)[0].key
        delta_key = replicate([delta], 1)[0].key
        assert base_key != delta_key
        assert delta_key.link == 1


class TestDiffSnapshots:
    def test_changed_and_deleted(self):
        parent = snapshot({"a": 1, "b": 2, "c": 3}, V0)
        current = snapshot({"a": 1, "b": 20, "d": 4}, V1)
        changed, deletions = diff_snapshots(parent, current)
        assert changed == {"b": 20, "d": 4}
        assert deletions == ["c"]

    def test_rejects_different_states(self):
        with pytest.raises(ShardError):
            diff_snapshots(snapshot({}, V0, "x"), snapshot({}, V1, "y"))

    def test_rejects_non_advancing_version(self):
        with pytest.raises(VersionConflictError):
            diff_snapshots(snapshot({}, V1), snapshot({}, V0))


class TestPartitionDelta:
    def test_every_shard_index_produced(self):
        shards = partition_delta("s", {"k": 1}, [], 4, V1, V0, 1)
        assert [s.index for s in shards] == [0, 1, 2, 3]
        assert all(s.chain_link == 1 for s in shards)

    def test_keys_route_like_the_base_partition(self):
        changed = {f"key-{i}": i for i in range(32)}
        deleted = [f"dead-{i}" for i in range(8)]
        shards = partition_delta("s", changed, deleted, 4, V1, V0, 1)
        for key, value in changed.items():
            bucket = shards[shard_index_for_key(key, 4)]
            assert bucket.entries[key] == value
        for key in deleted:
            assert key in shards[shard_index_for_key(key, 4)].deletions

    def test_rejects_nonpositive_shard_count(self):
        with pytest.raises(ShardError):
            partition_delta("s", {}, [], 0, V1, V0, 1)


class TestVersionChain:
    def test_reset_then_append(self):
        chain = VersionChain("s", base_shards({"a": 9}, V0, name="s"), plan=None)
        chain.reset(base_shards({"a": 1, "b": 2}, V0, name="s"), plan=None)
        assert chain.length == 1 and chain.tip_version == V0
        chain.append_delta(partition_delta("s", {"a": 9}, [], 4, V1, V0, 1), plan=None)
        assert chain.length == 2 and chain.tip_version == V1
        assert chain.delta_bytes > 0

    def test_base_must_be_link_zero(self):
        with pytest.raises(ShardError):
            VersionChain("s", partition_delta("s", {"a": 1}, [], 4, V1, V0, 1), plan=None)

    def test_delta_parent_must_match_tip(self):
        chain = VersionChain("s", base_shards({"a": 1}, V0, name="s"), plan=None)
        stale = partition_delta("s", {"a": 2}, [], 4, V2, V1, 1)
        with pytest.raises(VersionConflictError):
            chain.append_delta(stale, plan=None)

    def test_delta_link_must_be_in_order(self):
        chain = VersionChain("s", base_shards({"a": 1}, V0, name="s"), plan=None)
        skipped = partition_delta("s", {"a": 2}, [], 4, V1, V0, chain_link=2)
        with pytest.raises(ShardError):
            chain.append_delta(skipped, plan=None)

    def test_needs_compaction_by_length(self):
        policy = CompactionPolicy(max_chain_len=2, max_delta_ratio=100.0)
        chain = VersionChain("s", partition_synthetic("s", 8 * MB, 4, V0), plan=None)
        assert not chain.needs_compaction(policy)
        delta = [
            DeltaShard.synthetic_delta("s", i, 4, V1, V0, 1, 1024) for i in range(4)
        ]
        chain.append_delta(delta, plan=None)
        assert chain.needs_compaction(policy)

    def test_needs_compaction_by_delta_ratio(self):
        policy = CompactionPolicy(max_chain_len=10, max_delta_ratio=0.5)
        chain = VersionChain("s", partition_synthetic("s", 8 * MB, 4, V0), plan=None)
        assert not chain.needs_compaction(policy, extra_delta_bytes=1 * MB)
        assert chain.needs_compaction(policy, extra_delta_bytes=5 * MB)

    def test_policy_validation(self):
        with pytest.raises(ShardError):
            CompactionPolicy(max_chain_len=0)
        with pytest.raises(ShardError):
            CompactionPolicy(max_delta_ratio=0.0)


class TestReconstructChain:
    def chain_segments(self):
        base = base_shards({"a": 1, "b": 2, "c": 3}, V0, name="s")
        d1 = partition_delta("s", {"a": 10, "d": 4}, ["b"], 4, V1, V0, 1)
        d2 = partition_delta("s", {"e": 5}, ["c"], 4, V2, V1, 2)
        return base + d1 + d2

    def test_base_then_deltas_with_tombstones(self):
        rebuilt = reconstruct_chain(self.chain_segments())
        assert rebuilt.as_dict() == {"a": 10, "d": 4, "e": 5}
        assert rebuilt.version == V2

    def test_missing_whole_link_rejected(self):
        segments = [s for s in self.chain_segments() if s.chain_link != 1]
        with pytest.raises(ShardError):
            reconstruct_chain(segments)

    def test_broken_parent_linkage_rejected(self):
        base = base_shards({"a": 1}, V0, name="s")
        orphan = partition_delta("s", {"a": 2}, [], 4, V2, V1, 1)
        with pytest.raises(VersionConflictError):
            reconstruct_chain(base + orphan)

    def test_tampered_delta_fails_integrity(self):
        segments = self.chain_segments()
        victim = next(s for s in segments if s.chain_link == 1 and s.entries)
        victim.entries[next(iter(victim.entries))] = "corrupted"
        with pytest.raises(IntegrityError):
            reconstruct_chain(segments)

    def test_synthetic_chain_reconstructs_by_size(self):
        base = partition_synthetic("s", 8 * MB, 4, V0)
        delta = [
            DeltaShard.synthetic_delta("s", i, 4, V1, V0, 1, 1024) for i in range(4)
        ]
        rebuilt = reconstruct_chain(base + delta)
        assert rebuilt.size_bytes == 8 * MB
        assert rebuilt.version == V1

    def test_mixing_synthetic_and_materialized_rejected(self):
        base = base_shards({"a": 1}, V0, name="s")
        delta = [
            DeltaShard.synthetic_delta("s", i, 4, V1, V0, 1, 1024) for i in range(4)
        ]
        with pytest.raises(ShardError):
            reconstruct_chain(base + delta)

    def test_empty_segment_set_rejected(self):
        with pytest.raises(ShardError):
            reconstruct_chain([])


class TestChainDigest:
    def test_order_insensitive_but_content_sensitive(self):
        base = base_shards({"a": 1, "b": 2}, V0, name="s")
        delta = partition_delta("s", {"a": 9}, [], 4, V1, V0, 1)
        forward = chain_digest(base + delta)
        backward = chain_digest(list(reversed(base + delta)))
        assert forward == backward
        other = partition_delta("s", {"a": 8}, [], 4, V1, V0, 1)
        assert chain_digest(base + other) != forward


class TestChainPlan:
    def saved_chain(self, world, rounds=2):
        from repro.recovery.deployment import saved_delta

        registered, _ = world.save_synthetic()
        for _ in range(rounds):
            saved_delta(world, "app/state", 64 * 1024)
        return registered

    def test_segments_map_links_to_shards(self, world):
        registered = self.saved_chain(world, rounds=2)
        plan = registered.plan
        assert isinstance(plan, VersionChain)
        assert plan.length == 3
        assert plan.shard_indexes() == list(range(3 * 4))
        # Segment k*m+i serves shard i of link k.
        for segment in plan.shard_indexes():
            link, index = divmod(segment, 4)
            for placed in plan.providers_for(segment):
                assert placed.replica.shard.index == index
                assert placed.replica.shard.chain_link == link

    def test_out_of_range_segment_rejected(self, world):
        plan = self.saved_chain(world, rounds=1).plan
        with pytest.raises(ShardError):
            plan.providers_for(2 * 4)

    def test_available_shards_covers_every_segment(self, world):
        registered = self.saved_chain(world, rounds=2)
        shards = registered.plan.available_shards()
        assert len(shards) == 3 * 4
        saved = [shard for link in registered.plan.links for shard in link.shards]
        assert chain_digest(shards) == chain_digest(saved)

    def test_plan_requires_a_base(self):
        with pytest.raises(ShardError):
            VersionChain("s", [], plan=None)
