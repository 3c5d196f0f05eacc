"""Unit tests for replica placement strategies."""

import random

import pytest

from repro.dht.overlay import Overlay
from repro.errors import StateError
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.state.partitioner import (
    check_reconstruction_set, partition_snapshot, partition_synthetic, replicate,
)
from repro.state.placement import HashPlacement, LeafSetPlacement, PlacementPlan
from repro.state.store import StateSnapshot
from repro.state.version import StateVersion

V1 = StateVersion(1.0, 1)


def build_overlay(count, seed=0, leaf_set_size=24):
    sim = Simulator()
    net = Network(sim)
    overlay = Overlay(sim, net, leaf_set_size=leaf_set_size, rng=random.Random(seed))
    overlay.build(count)
    return overlay


def make_replicas(name="app/state", size=1000, shards=4, replicas=2):
    return replicate(partition_synthetic(name, size, shards, V1), replicas)


class TestLeafSetPlacement:
    def test_replicas_of_shard_on_distinct_nodes(self):
        overlay = build_overlay(64)
        plan = LeafSetPlacement().place(overlay.nodes[0], make_replicas(replicas=3), overlay)
        for index in plan.shard_indexes():
            nodes = {p.node.node_id for p in plan.for_shard(index)}
            assert len(nodes) == 3

    def test_never_places_on_owner(self):
        overlay = build_overlay(64)
        owner = overlay.nodes[0]
        plan = LeafSetPlacement().place(owner, make_replicas(), overlay)
        assert all(p.node.node_id != owner.node_id for p in plan.placements)

    def test_targets_are_leaf_set_members(self):
        overlay = build_overlay(64, seed=2)
        owner = overlay.nodes[0]
        plan = LeafSetPlacement().place(owner, make_replicas(), overlay)
        leafs = {n.node_id for n in overlay.leaf_set_of(owner)}
        assert all(p.node.node_id in leafs for p in plan.placements)

    def test_leaf_set_too_small_rejected(self):
        overlay = build_overlay(8, leaf_set_size=4)
        with pytest.raises(StateError):
            LeafSetPlacement().place(
                overlay.nodes[0], make_replicas(replicas=6), overlay
            )

    def test_spreads_over_leaf_set(self):
        overlay = build_overlay(64, seed=3)
        plan = LeafSetPlacement().place(
            overlay.nodes[0], make_replicas(shards=12, replicas=2), overlay
        )
        assert len({p.node.node_id for p in plan.placements}) >= 12


class TestHashPlacement:
    def test_distinct_replica_nodes(self):
        overlay = build_overlay(64, seed=1)
        plan = HashPlacement().place(overlay.nodes[0], make_replicas(replicas=3), overlay)
        for index in plan.shard_indexes():
            nodes = {p.node.node_id for p in plan.for_shard(index)}
            assert len(nodes) == 3

    def test_owner_excluded(self):
        overlay = build_overlay(64, seed=1)
        owner = overlay.nodes[0]
        plan = HashPlacement().place(owner, make_replicas(shards=16), overlay)
        assert all(p.node.node_id != owner.node_id for p in plan.placements)

    def test_no_owner_allowed(self):
        overlay = build_overlay(64, seed=1)
        plan = HashPlacement().place(None, make_replicas(), overlay)
        assert len(plan.placements) == 8

    def test_deterministic(self):
        a = HashPlacement().place(None, make_replicas(), build_overlay(64, seed=5))
        b = HashPlacement().place(None, make_replicas(), build_overlay(64, seed=5))
        assert [p.node.name for p in a.placements] == [
            p.node.name for p in b.placements
        ]

    def test_tiny_overlay_rejected(self):
        overlay = build_overlay(2)
        with pytest.raises(StateError):
            HashPlacement().place(None, make_replicas(replicas=4), overlay)


class TestPlacementPlan:
    def _plan(self):
        overlay = build_overlay(64, seed=7)
        plan = LeafSetPlacement().place(overlay.nodes[0], make_replicas(), overlay)
        return overlay, plan

    def test_store_all_installs_replicas(self):
        _, plan = self._plan()
        plan.store_all()
        for placed in plan.placements:
            assert placed.node.get_shard(placed.replica.key) is placed.replica

    def test_providers_require_stored_data(self):
        _, plan = self._plan()
        assert plan.providers_for(0) == []
        plan.store_all()
        assert len(plan.providers_for(0)) == 2

    def test_providers_exclude_dead_nodes(self):
        overlay, plan = self._plan()
        plan.store_all()
        victim = plan.for_shard(0)[0].node
        victim.fail()
        providers = plan.providers_for(0)
        assert all(p.node.alive for p in providers)
        assert len(providers) == 1

    def test_providers_exclude_dropped_shards(self):
        _, plan = self._plan()
        plan.store_all()
        placed = plan.for_shard(1)[0]
        assert placed.node.drop_shard(placed.replica.key)
        assert len(plan.providers_for(1)) == 1

    def test_available_shards_one_per_index(self):
        _, plan = self._plan()
        plan.store_all()
        shards = plan.available_shards()
        assert sorted(s.index for s in shards) == plan.shard_indexes()

    def test_empty_plan(self):
        plan = PlacementPlan(owner=None)
        assert plan.placements == []
        assert plan.shard_indexes() == []


def placed_materialized(num_shards=4, keys=200, replicas=2, seed=0):
    """A materialized snapshot's shards hash-placed on 16 nodes and stored."""
    snapshot = StateSnapshot("app/state", {f"k{i}": i for i in range(keys)}, V1)
    sim = Simulator()
    network = Network(sim)
    overlay = Overlay(sim, network, rng=random.Random(seed))
    overlay.build(16, host_factory=lambda n: network.add_host(n))
    plan = HashPlacement().place(
        overlay.nodes[0], replicate(partition_snapshot(snapshot, num_shards), replicas), overlay
    )
    plan.store_all()
    return overlay, plan


class TestPlacementUnderLoss:
    def test_providers_exclude_lost_replicas(self):
        overlay, plan = placed_materialized()
        victim = plan.providers_for(0)[0]
        overlay.fail_node(victim.node)
        survivors = plan.providers_for(0)
        assert len(survivors) == 1
        assert all(p.node.alive for p in survivors)
        assert victim.node.node_id not in {p.node.node_id for p in survivors}

    def test_available_shards_survive_partial_loss(self):
        overlay, plan = placed_materialized()
        overlay.fail_node(plan.providers_for(2)[0].node)
        available = plan.available_shards()
        assert sorted(s.index for s in available) == [0, 1, 2, 3]
        assert check_reconstruction_set(available) == V1

    def test_total_loss_drops_the_index(self):
        _, plan = placed_materialized()
        for placed in list(plan.for_shard(1)):
            placed.node.drop_shard(placed.replica.key)
        assert plan.providers_for(1) == []
        assert sorted(s.index for s in plan.available_shards()) == [0, 2, 3]
