"""Replica lookups against the scans they replaced.

``PlacementPlan.providers_for`` is one comprehension over the placements,
``available_shards`` one pass that keeps each index's first live holder, a
``VersionChain`` joins its links' passes, and ``LeafSetPlacement.place``
checks distinctness in a set. The functions and the placement class below
are the scans of the commit before, kept as references: a provider list
filtered out of ``for_shard``, a walk of ``shard_indexes()`` asking
``providers_for`` for each, and a rescan of the plan for every replica
placed. Seeded plans and chains of one to three links, with holders dying
and reviving and replicas dropped and stored again, must get the same
lists in the same order, the same objects, and the same errors.
"""

import random
from dataclasses import dataclass

import pytest

from repro.dht.overlay import Overlay
from repro.errors import StateError
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.state.chain import VersionChain, partition_delta
from repro.state.partitioner import partition_snapshot, partition_synthetic, replicate
from repro.state.placement import LeafSetPlacement, PlacedShard, PlacementPlan
from repro.state.shard import ReplicaKey
from repro.state.store import StateSnapshot
from repro.state.version import StateVersion

STATE = "app/state"


# ------------------------------------------------------------- the references


def reference_providers_for(plan, index):
    for_shard = [p for p in plan.placements if p.replica.shard.index == index]
    return [
        p
        for p in for_shard
        if p.node.alive and p.node.get_shard(p.replica.key) is not None
    ]


def reference_lookups(plan):
    """``(index, flat plan, shard index)`` for each of ``shard_indexes()``: a
    chain's segment ``k*m+i`` is shard ``i`` of link ``k``."""
    if isinstance(plan, VersionChain):
        m = plan.num_shards
        return [(s, plan.links[s // m].plan, s % m) for s in plan.shard_indexes()]
    return [(index, plan, index) for index in plan.shard_indexes()]


def reference_available_shards(plan):
    """The walk over ``shard_indexes()``, asking each index's providers."""
    result = []
    for _index, flat, shard_index in reference_lookups(plan):
        providers = reference_providers_for(flat, shard_index)
        if providers:
            result.append(providers[0].replica.shard)
    return result


class ReferenceLeafSetPlacement(LeafSetPlacement):
    def place(self, owner, replicas, overlay):
        leaf_nodes = overlay.leaf_set_of(owner)
        if not leaf_nodes:
            raise StateError(f"owner {owner.name} has an empty leaf set")
        num_replicas = max(r.num_replicas for r in replicas) if replicas else 0
        if len(leaf_nodes) < num_replicas:
            raise StateError(
                f"leaf set of {owner.name} ({len(leaf_nodes)} nodes) cannot hold "
                f"{num_replicas} distinct replicas per shard"
            )
        plan = PlacementPlan(owner=owner)
        cursor = 0
        for replica in sorted(replicas, key=lambda r: (r.shard.index, r.replica_index)):
            node = leaf_nodes[cursor % len(leaf_nodes)]
            attempts = 0
            while any(
                p.node.node_id == node.node_id
                and p.replica.shard.index == replica.shard.index
                for p in plan.placements
            ):
                cursor += 1
                node = leaf_nodes[cursor % len(leaf_nodes)]
                attempts += 1
                if attempts > len(leaf_nodes):
                    raise StateError("leaf set too small for replica separation")
            plan.placements.append(PlacedShard(replica, node))
            cursor += 1
        return plan


@dataclass(frozen=True)
class ReferenceReplicaKey:
    state_name: str
    shard_index: int
    replica_index: int
    link: int = 0


# ----------------------------------------------------------------- the worlds


def build_overlay(rng):
    sim = Simulator()
    overlay = Overlay(
        sim, Network(sim), leaf_set_size=rng.choice([4, 8, 16]), rng=random.Random(rng.random())
    )
    overlay.build(rng.randrange(6, 40))
    return overlay


def placed(rng, overlay, replicas):
    """Both placements of ``replicas`` from one owner, or both errors."""
    owner = rng.choice(overlay.nodes)
    outcomes = []
    for strategy in (LeafSetPlacement(), ReferenceLeafSetPlacement()):
        try:
            plan = strategy.place(owner, replicas, overlay)
        except StateError as err:
            outcomes.append(("error", str(err)))
        else:
            outcomes.append([(p.replica, p.node) for p in plan.placements])
    assert outcomes[0] == outcomes[1]
    return None if outcomes[0][0] == "error" else plan


def shuffle_holders(rng, overlay, plans):
    """Kill or revive nodes and drop or restore replicas, at random."""
    for node in rng.sample(overlay.nodes, rng.randrange(len(overlay.nodes) // 2)):
        node.alive = not node.alive
    for plan in plans:
        for p in plan.placements:
            roll = rng.random()
            if roll < 0.3:
                p.node.drop_shard(p.replica.key)
            elif roll < 0.4:
                p.node.store_shard(p.replica.key, p.replica)


def assert_lookups_match(plan):
    lookups = reference_lookups(plan)
    if not isinstance(plan, VersionChain):  # and indexes no placement holds
        lookups = [(i, plan, i) for i in range(-1, max(plan.shard_indexes(), default=0) + 2)]
    for index, flat, shard_index in lookups:
        expected = reference_providers_for(flat, shard_index)
        assert [id(p) for p in plan.providers_for(index)] == [id(p) for p in expected]
    assert [id(s) for s in plan.available_shards()] == [
        id(s) for s in reference_available_shards(plan)
    ]


# ------------------------------------------------------------------ the tests


@pytest.mark.parametrize("seed", range(40))
def test_flat_plans_answer_like_the_scans(seed):
    rng = random.Random(seed)
    overlay = build_overlay(rng)
    shards = partition_synthetic(STATE, 4096, rng.randrange(1, 7), StateVersion(1.0, 1))
    replicas = replicate(shards, rng.randrange(1, 5))
    rng.shuffle(replicas)
    del replicas[: rng.randrange(len(replicas) // 2 + 1)]  # some replicas never placed
    plan = placed(rng, overlay, replicas)
    if plan is None:
        return
    if seed % 2:  # a second shard object per index: which holder comes first matters
        again = partition_synthetic(STATE, 2048, len(shards), StateVersion(1.0, 1))
        plan.placements += placed(rng, overlay, replicate(again, 1)).placements
    plan.store_all()
    for _ in range(4):
        assert_lookups_match(plan)
        shuffle_holders(rng, overlay, [plan])


@pytest.mark.parametrize("seed", range(30))
def test_chains_of_one_to_three_links_answer_like_the_scans(seed):
    rng = random.Random(seed)
    overlay = build_overlay(rng)
    m, n = rng.randrange(1, 5), rng.randrange(1, 4)
    version = StateVersion(1.0, 1)
    entries = {f"k{i}": i for i in range(20)}
    base = partition_snapshot(StateSnapshot(STATE, entries, version), m)
    plan = placed(rng, overlay, replicate(base, n))
    if plan is None:
        return
    plan.store_all()
    chain = VersionChain(STATE, base, plan)
    for link in range(1, rng.randrange(1, 4)):
        parent, version = version, StateVersion(1.0 + link, 1 + link)
        changed = {f"k{rng.randrange(30)}": link for _ in range(3)}
        delta = partition_delta(STATE, changed, [f"k{link}"], m, version, parent, link)
        link_plan = placed(rng, overlay, replicate(delta, n))
        if link_plan is None:
            break
        link_plan.store_all()
        chain.append_delta(delta, link_plan)
    for _ in range(4):
        assert_lookups_match(chain)
        shuffle_holders(rng, overlay, [link.plan for link in chain.links])


def test_placement_errors_match_on_a_small_leaf_set():
    rng = random.Random(5)
    overlay = build_overlay(rng)
    shards = partition_synthetic(STATE, 4096, 3, StateVersion(1.0, 1))
    for n in range(1, 20):
        placed(rng, overlay, replicate(shards, n))


def test_replica_keys_hash_compare_and_print_as_before():
    rng = random.Random(0)
    for _ in range(200):
        fields = (f"app/s{rng.randrange(5)}", rng.randrange(8), rng.randrange(4), rng.randrange(3))
        key, reference = ReplicaKey(*fields), ReferenceReplicaKey(*fields)
        assert hash(key) == hash(reference)
        assert key == ReplicaKey(*fields) and key != ReplicaKey(*fields[:3], fields[3] + 1)
        suffix = f".d{fields[3]}" if fields[3] else ""
        assert repr(key) == f"{fields[0]}/s{fields[1]}.r{fields[2]}{suffix}"
    assert ReplicaKey("s", 1, 2) == ReplicaKey("s", 1, 2, 0) == ReplicaKey("s", 1, 2, link=0)
