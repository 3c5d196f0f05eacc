"""Split/merge/migrate state-plane primitives and placement under loss."""

import pytest

from repro.errors import ShardError, StateError
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.state.partitioner import (
    _sub_bucket_for_key,
    check_reconstruction_set,
    merge_shard_pair,
    merge_shards,
    partition_snapshot,
    partition_synthetic,
    replicate,
    split_shard,
)
from repro.state.placement import HashPlacement, migrate_replica
from repro.state.shard import Shard
from repro.state.store import StateSnapshot
from repro.state.version import StateVersion

V1 = StateVersion(0.0, 1)


def materialized(num_shards=4, keys=200):
    snapshot = StateSnapshot("app/state", {f"k{i}": i for i in range(keys)}, V1)
    return snapshot, partition_snapshot(snapshot, num_shards)


class TestSplit:
    def test_split_grows_partition_by_one(self):
        _, shards = materialized(4)
        out = split_shard(shards, 1)
        assert len(out) == 5
        assert check_reconstruction_set(out) == V1
        assert [s.index for s in out] == [0, 1, 2, 3, 4]
        assert all(s.num_shards == 5 for s in out)

    def test_merged_snapshot_is_preserved(self):
        snapshot, shards = materialized(4)
        for index in range(4):
            out = split_shard(shards, index)
            assert dict(merge_shards(out).items()) == dict(snapshot.items())

    def test_halves_follow_the_next_hash_bit(self):
        _, shards = materialized(4)
        hot = shards[2]
        out = split_shard(shards, 2)
        lower, upper = out[2], out[3]
        for key in hot.entries:
            half = _sub_bucket_for_key(key, 4)
            assert key in (lower, upper)[half].entries

    def test_untouched_shards_keep_contents(self):
        _, shards = materialized(4)
        out = split_shard(shards, 1)
        assert out[0].entries == shards[0].entries
        assert out[3].entries == shards[2].entries  # shifted up by one
        assert out[4].entries == shards[3].entries

    def test_synthetic_split_conserves_bytes(self):
        shards = partition_synthetic("app/state", 1001, 4, V1)
        out = split_shard(shards, 0)
        assert sum(s.size_bytes for s in out) == 1001
        assert check_reconstruction_set(out) == V1

    def test_index_out_of_range(self):
        _, shards = materialized(4)
        with pytest.raises(ShardError):
            split_shard(shards, 4)

    def test_rejects_chain_link_shards(self):
        _, shards = materialized(4)
        shards[0].chain_link = 1
        with pytest.raises(ShardError, match="base partition"):
            split_shard(shards, 0)

    def test_keys_stay_stable_across_save_rounds(self):
        # The sub-bucket derives from the digest quotient, so repeated
        # splits of the same key set are deterministic.
        _, shards = materialized(4)
        first = {s.index: set(s.entries) for s in split_shard(shards, 1)}
        second = {s.index: set(s.entries) for s in split_shard(shards, 1)}
        assert first == second


class TestMergePair:
    def test_merge_shrinks_partition_by_one(self):
        snapshot, shards = materialized(5)
        out = merge_shard_pair(shards, 1, 3)
        assert len(out) == 4
        assert check_reconstruction_set(out) == V1
        assert dict(merge_shards(out).items()) == dict(snapshot.items())

    def test_pair_unions_into_the_lower_index(self):
        _, shards = materialized(5)
        out = merge_shard_pair(shards, 3, 1)  # order must not matter
        assert set(out[1].entries) == set(shards[1].entries) | set(shards[3].entries)
        assert out[3].entries == shards[4].entries  # shifted down past the gap

    def test_synthetic_merge_conserves_bytes(self):
        shards = partition_synthetic("app/state", 999, 4, V1)
        out = merge_shard_pair(shards, 0, 2)
        assert sum(s.size_bytes for s in out) == 999

    def test_merge_with_itself_rejected(self):
        _, shards = materialized(4)
        with pytest.raises(ShardError):
            merge_shard_pair(shards, 2, 2)

    def test_out_of_range_rejected(self):
        _, shards = materialized(4)
        with pytest.raises(ShardError):
            merge_shard_pair(shards, 0, 4)

    def test_mixed_synthetic_rejected(self):
        _, shards = materialized(4)
        hybrid = list(shards)
        hybrid[1] = Shard.synthetic_shard(
            "app/state", 1, 4, V1, shards[1].size_bytes
        )
        with pytest.raises(ShardError, match="synthetic"):
            merge_shard_pair(hybrid, 0, 1)

    def test_split_then_merge_round_trips(self):
        snapshot, shards = materialized(4)
        widened = split_shard(shards, 2)
        narrowed = merge_shard_pair(widened, 2, 3)
        assert len(narrowed) == 4
        assert dict(merge_shards(narrowed).items()) == dict(snapshot.items())


def place(shards, replicas=2, seed=0):
    import random

    from repro.dht.overlay import Overlay

    sim = Simulator()
    network = Network(sim)
    overlay = Overlay(sim, network, rng=random.Random(seed))
    overlay.build(16, host_factory=lambda n: network.add_host(n))
    plan = HashPlacement().place(
        overlay.nodes[0], replicate(shards, replicas), overlay
    )
    plan.store_all()
    return sim, network, overlay, plan


class TestPlacementUnderLoss:
    def test_providers_exclude_lost_replicas(self):
        _, shards = materialized(4)
        _, _, overlay, plan = place(shards)
        victim = plan.providers_for(0)[0]
        overlay.fail_node(victim.node)
        survivors = plan.providers_for(0)
        assert len(survivors) == 1
        assert all(p.node.alive for p in survivors)
        assert victim.node.node_id not in {p.node.node_id for p in survivors}

    def test_available_shards_survive_partial_loss(self):
        _, shards = materialized(4)
        _, _, overlay, plan = place(shards)
        overlay.fail_node(plan.providers_for(2)[0].node)
        available = plan.available_shards()
        assert sorted(s.index for s in available) == [0, 1, 2, 3]
        assert check_reconstruction_set(available) == V1

    def test_total_loss_drops_the_index(self):
        _, shards = materialized(4)
        _, _, overlay, plan = place(shards)
        for placed in list(plan.for_shard(1)):
            placed.node.drop_shard(placed.replica.key)
        assert plan.providers_for(1) == []
        assert sorted(s.index for s in plan.available_shards()) == [0, 2, 3]

    def test_post_split_placement_remaps_indexes(self):
        snapshot, shards = materialized(4)
        out = split_shard(shards, 1)
        _, _, _, plan = place(out)
        assert plan.shard_indexes() == [0, 1, 2, 3, 4]
        assert all(len(plan.providers_for(i)) == 2 for i in range(5))
        rebuilt = merge_shards(plan.available_shards())
        assert dict(rebuilt.items()) == dict(snapshot.items())


class TestMigrateReplica:
    def test_migrate_moves_one_replica(self):
        _, shards = materialized(4)
        sim, network, overlay, plan = place(shards)
        placed = plan.providers_for(0)[0]
        source = placed.node
        held = {p.node.node_id for p in plan.for_shard(0)}
        target = next(
            n
            for n in overlay.alive_nodes()
            if n.node_id not in held and n.node_id != plan.owner.node_id
        )
        done = []
        migrate_replica(
            network, plan, 0, source, target, on_done=done.append
        )
        sim.run_until_idle()
        assert len(done) == 1
        assert done[0].node is target
        assert source.get_shard(placed.replica.key) is None
        assert target.get_shard(placed.replica.key) is not None
        providers = {p.node.node_id for p in plan.providers_for(0)}
        assert target.node_id in providers and source.node_id not in providers
        assert len(providers) == 2  # replication factor preserved

    def test_migrate_preserves_checksums(self):
        snapshot, shards = materialized(4)
        sim, network, overlay, plan = place(shards)
        placed = plan.providers_for(3)[0]
        held = {p.node.node_id for p in plan.for_shard(3)}
        target = next(
            n
            for n in overlay.alive_nodes()
            if n.node_id not in held and n.node_id != plan.owner.node_id
        )
        migrate_replica(network, plan, 3, placed.node, target)
        sim.run_until_idle()
        assert all(s.verify() for s in plan.available_shards())
        assert dict(merge_shards(plan.available_shards()).items()) == dict(
            snapshot.items()
        )

    def test_migrate_rejects_owner_and_duplicates(self):
        _, shards = materialized(4)
        sim, network, overlay, plan = place(shards)
        placed = plan.providers_for(0)[0]
        with pytest.raises(StateError, match="onto its owner"):
            migrate_replica(network, plan, 0, placed.node, plan.owner)
        other = plan.providers_for(0)[1]
        with pytest.raises(StateError, match="already holds"):
            migrate_replica(network, plan, 0, placed.node, other.node)

    def test_migrate_requires_a_live_replica(self):
        _, shards = materialized(4)
        sim, network, overlay, plan = place(shards)
        stranger = plan.owner  # owner never holds replicas
        target = overlay.alive_nodes()[-1]
        with pytest.raises(StateError, match="no live replica"):
            migrate_replica(network, plan, 0, stranger, target)
