"""Unit and property tests for shards, partitioning, and merging."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    IntegrityError,
    ShardError,
    VersionConflictError,
)
from repro.state.partitioner import (
    check_reconstruction_set,
    merge_shards,
    partition_snapshot,
    partition_synthetic,
    replicate,
    shard_index_for_key,
)
from repro.state.shard import ReplicaKey, Shard, ShardReplica
from repro.state.store import StateSnapshot
from repro.state.version import StateVersion

V1 = StateVersion(1.0, 1)


def snapshot_of(entries):
    return StateSnapshot("app/state", entries, V1)


state_dicts = st.dictionaries(
    st.text(min_size=1, max_size=8), st.integers(), min_size=0, max_size=60
)


class TestShardIndex:
    def test_stable(self):
        assert shard_index_for_key("k", 8) == shard_index_for_key("k", 8)

    def test_in_range(self):
        for key in range(100):
            assert 0 <= shard_index_for_key(key, 7) < 7

    def test_invalid_count(self):
        with pytest.raises(ShardError):
            shard_index_for_key("k", 0)


class TestPartition:
    def test_all_entries_covered_once(self):
        entries = {f"k{i}": i for i in range(100)}
        shards = partition_snapshot(snapshot_of(entries), 8)
        assert len(shards) == 8
        merged = {}
        for shard in shards:
            for key, value in shard.entries.items():
                assert key not in merged
                merged[key] = value
        assert merged == entries

    def test_key_lands_in_stable_shard(self):
        entries = {f"k{i}": i for i in range(50)}
        shards = partition_snapshot(snapshot_of(entries), 4)
        for shard in shards:
            for key in shard.entries:
                assert shard_index_for_key(key, 4) == shard.index

    @given(state_dicts, st.integers(min_value=1, max_value=12))
    @settings(max_examples=50)
    def test_partition_merge_roundtrip(self, entries, num_shards):
        snapshot = snapshot_of(entries)
        merged = merge_shards(partition_snapshot(snapshot, num_shards))
        assert merged.as_dict() == entries
        assert merged.version == V1

    def test_synthetic_sizes_sum(self):
        shards = partition_synthetic("s", 1000, 7, V1)
        assert sum(s.size_bytes for s in shards) == 1000
        assert max(s.size_bytes for s in shards) - min(s.size_bytes for s in shards) <= 1

    def test_synthetic_merge_reports_bytes(self):
        shards = partition_synthetic("s", 1000, 4, V1)
        merged = merge_shards(shards)
        assert merged.size_bytes == 1000

    def test_invalid_shard_count(self):
        with pytest.raises(ShardError):
            partition_snapshot(snapshot_of({}), 0)
        with pytest.raises(ShardError):
            partition_synthetic("s", 10, 0, V1)


class TestShard:
    def test_requires_payload_or_size(self):
        with pytest.raises(ShardError):
            Shard("s", 0, 1, V1)

    def test_index_bounds(self):
        with pytest.raises(ShardError):
            Shard("s", 3, 3, V1, entries={})

    def test_checksum_detects_tampering(self):
        shard = Shard("s", 0, 1, V1, entries={"a": 1})
        assert shard.verify()
        shard.entries["a"] = 2
        assert not shard.verify()

    def test_synthetic_flag(self):
        assert Shard.synthetic_shard("s", 0, 1, V1, 10).synthetic
        assert not Shard("s", 0, 1, V1, entries={}).synthetic

    def test_sub_shards_cover_entries(self):
        shard = Shard("s", 0, 1, V1, entries={f"k{i}": i for i in range(10)})
        subs = shard.sub_shards(3)
        assert len(subs) == 3
        combined = {}
        for sub in subs:
            combined.update(sub.entries)
        assert combined == shard.entries

    def test_sub_shards_synthetic_sizes(self):
        shard = Shard.synthetic_shard("s", 0, 1, V1, 100)
        subs = shard.sub_shards(3)
        assert sum(s.size_bytes for s in subs) == 100

    def test_sub_shard_count_invalid(self):
        shard = Shard.synthetic_shard("s", 0, 1, V1, 10)
        with pytest.raises(ShardError):
            shard.sub_shards(0)


class TestReplicas:
    def test_replicate_counts(self):
        shards = partition_synthetic("s", 100, 4, V1)
        replicas = replicate(shards, 3)
        assert len(replicas) == 12
        keys = {r.key for r in replicas}
        assert len(keys) == 12

    def test_replica_key_repr(self):
        shard = Shard.synthetic_shard("s", 2, 4, V1, 10)
        replica = ShardReplica(shard, 1, 2)
        assert replica.key == ReplicaKey("s", 2, 1)
        assert replica.size_bytes == 10

    def test_replica_key_is_built_once_and_finds_the_stored_replica(self):
        from repro.dht.node import DhtNode
        from repro.sim.kernel import Simulator
        from repro.sim.network import Network
        from repro.state.shard import DeltaShard
        from repro.util.ids import NodeId

        node = DhtNode(NodeId(7), Network(Simulator()).add_host("n"))
        base = Shard.synthetic_shard("s", 2, 4, V1, 10)
        delta = DeltaShard.synthetic_delta("s", 2, 4, StateVersion(2.0, 2), V1, 3, 10)
        for shard, link, text in ((base, 0, "s/s2.r1"), (delta, 3, "s/s2.r1.d3")):
            replica = ShardReplica(shard, 1, 2)
            fresh = ReplicaKey("s", 2, 1, link)
            assert replica.key is replica.key
            assert replica.key == fresh and hash(replica.key) == hash(fresh)
            assert repr(replica.key) == text and text in repr(replica)
            node.store_shard(replica.key, replica)
            assert node.get_shard(fresh) is replica
        assert node.stored_shard_count() == 2 and node.drop_shard(ReplicaKey("s", 2, 1))

    def test_replica_index_bounds(self):
        shard = Shard.synthetic_shard("s", 0, 1, V1, 10)
        with pytest.raises(ShardError):
            ShardReplica(shard, 2, 2)

    def test_replicate_invalid(self):
        with pytest.raises(ShardError):
            replicate(partition_synthetic("s", 10, 2, V1), 0)


class TestReconstructionChecks:
    def test_missing_shard_detected(self):
        shards = partition_synthetic("s", 100, 4, V1)
        with pytest.raises(ShardError, match="missing"):
            merge_shards(shards[:3])

    def test_duplicate_index_detected(self):
        shards = partition_synthetic("s", 100, 4, V1)
        with pytest.raises(ShardError):
            check_reconstruction_set([shards[0], shards[0], shards[2], shards[3]])

    def test_mixed_versions_rejected(self):
        a = partition_synthetic("s", 100, 2, V1)
        b = partition_synthetic("s", 100, 2, StateVersion(2.0, 2))
        with pytest.raises(VersionConflictError):
            merge_shards([a[0], b[1]])

    def test_mixed_states_rejected(self):
        a = partition_synthetic("s1", 100, 2, V1)
        b = partition_synthetic("s2", 100, 2, V1)
        with pytest.raises(ShardError):
            merge_shards([a[0], b[1]])

    def test_mixed_synthetic_and_real_rejected(self):
        real = partition_snapshot(snapshot_of({"a": 1}), 2)
        synthetic = partition_synthetic("app/state", 100, 2, V1)
        with pytest.raises(ShardError):
            merge_shards([real[0], synthetic[1]])

    def test_corrupt_shard_rejected_at_merge(self):
        shards = partition_snapshot(snapshot_of({"a": 1, "b": 2, "c": 3}), 2)
        target = next(s for s in shards if s.entries)
        key = next(iter(target.entries))
        target.entries[key] = 999
        with pytest.raises(IntegrityError):
            merge_shards(shards)

    def test_empty_set_rejected(self):
        with pytest.raises(ShardError):
            merge_shards([])
