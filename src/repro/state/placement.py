"""Replica placement over the overlay.

Two strategies, matching the paper's two uses of the ring:

- :class:`LeafSetPlacement` scatters shard replicas round-robin across the
  owner node's leaf set — nodes "geographically close to the original node
  (e.g., within the same rack)" with abundant bandwidth (Sec. 3.4). This
  is what the star/line/tree mechanisms recover from.
- :class:`HashPlacement` hashes every (app, state, shard, replica) tuple to
  its own ring position, spreading the aggregate state of many concurrent
  applications uniformly — the load-balance property of Fig. 11.

Both guarantee the replicas of one shard land on distinct nodes, never on
the owner itself (a replica co-located with the state it protects is lost
with it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.dht.node import DhtNode
from repro.dht.overlay import Overlay
from repro.errors import StateError
from repro.state.shard import Shard, ShardReplica
from repro.util.ids import node_id_from_name


@dataclass(frozen=True)
class PlacedShard:
    """One replica assigned to one storage node."""

    replica: ShardReplica
    node: DhtNode


@dataclass
class PlacementPlan:
    """The full placement of one save round."""

    owner: Optional[DhtNode]
    placements: List[PlacedShard] = field(default_factory=list)

    def for_shard(self, shard_index: int) -> List[PlacedShard]:
        """Every replica placement of one shard."""
        return [p for p in self.placements if p.replica.shard.index == shard_index]

    def providers_for(self, shard_index: int) -> List[PlacedShard]:
        """Alive nodes still holding a replica of the shard."""
        return [
            p
            for p in self.for_shard(shard_index)
            if p.node.alive and p.node.get_shard(p.replica.key) is not None
        ]

    def shard_indexes(self) -> List[int]:
        return sorted({p.replica.shard.index for p in self.placements})

    def store_all(self) -> None:
        """Write every replica into its node's shard store (instantly).

        The timed transfer of shard bytes is the save pipeline's job
        (:mod:`repro.recovery.save`); this merely installs the data so
        providers can serve it.
        """
        for placed in self.placements:
            placed.node.store_shard(placed.replica.key, placed.replica)

    def available_shards(self) -> List[Shard]:
        """One surviving shard object per index, if any replica survives."""
        result: List[Shard] = []
        for index in self.shard_indexes():
            providers = self.providers_for(index)
            if providers:
                result.append(providers[0].replica.shard)
        return result


class LeafSetPlacement:
    """Round-robin placement across the owner's leaf set (Fig. 3)."""

    def place(
        self,
        owner: DhtNode,
        replicas: Sequence[ShardReplica],
        overlay: Overlay,
    ) -> PlacementPlan:
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
        # Walk the leaf set round-robin; replicas of shard i occupy
        # consecutive leaf positions so they are always distinct nodes.
        cursor = 0
        for replica in sorted(replicas, key=lambda r: (r.shard.index, r.replica_index)):
            node = leaf_nodes[cursor % len(leaf_nodes)]
            # Never co-locate two replicas of the same shard.
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


class HashPlacement:
    """DHT-hash placement: each replica keys to its own ring position."""

    def place(
        self,
        owner: Optional[DhtNode],
        replicas: Sequence[ShardReplica],
        overlay: Overlay,
    ) -> PlacementPlan:
        plan = PlacementPlan(owner=owner)
        occupied = set()
        for replica in replicas:
            node = self._target(owner, replica, overlay, occupied)
            occupied.add((node.node_id, replica.shard.index))
            plan.placements.append(PlacedShard(replica, node))
        return plan

    @staticmethod
    def _target(
        owner: Optional[DhtNode],
        replica: ShardReplica,
        overlay: Overlay,
        occupied: set,
    ) -> DhtNode:
        shard = replica.shard
        salt = 0
        while True:
            key = node_id_from_name(
                f"{shard.state_name}/shard-{shard.index}/r{replica.replica_index}/{salt}"
            )
            node = overlay.responsible_node(key)
            owner_clash = owner is not None and node.node_id == owner.node_id
            sibling_clash = (node.node_id, shard.index) in occupied
            if not owner_clash and not sibling_clash:
                return node
            salt += 1
            if salt > 64:
                raise StateError(
                    f"cannot find a distinct node for {replica!r}; overlay too small"
                )
