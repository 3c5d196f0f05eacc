"""A DHT node: the unit of state placement and recovery in SR3.

Each stream operator is associated with one node (Sec. 3.3, Layer 1). The
node carries its ring id, the simulated host it runs on (bandwidth,
latency), its Pastry routing state, and an in-memory shard store holding
replicas placed on it by the state layer.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from repro.dht.leafset import LeafSet
from repro.dht.routing_table import RoutingTable
from repro.util.ids import NodeId

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.sim.network import Host
    from repro.state.shard import ShardReplica


class DhtNode:
    """One peer of the consistent ring overlay."""

    __slots__ = (
        "node_id", "host", "_routing_table", "leaf_set", "alive", "join_order",
        "_on_liveness_change", "_settle_routing", "shard_store",
    )

    def __init__(
        self,
        node_id: NodeId,
        host: "Host",
        leaf_set_size: int = 24,
        bits_per_digit: int = 4,
    ) -> None:
        self.node_id = node_id
        self.host = host
        self._routing_table = RoutingTable(node_id, bits_per_digit)
        self.leaf_set = LeafSet(node_id, leaf_set_size)
        self.alive = True
        # Position in the overlay's join sequence (the overlay sets this
        # when it adopts the node); -1 for nodes outside any overlay.
        self.join_order = -1
        # Overlay hooks. One fires with this node when its liveness actually
        # flips, so the alive ring, list and count never go stale even when
        # callers use fail()/revive() directly; the other runs before every
        # read of the routing table, whose rows a build leaves unplaced until
        # the first one (Overlay.settle_routing, the table door).
        self._on_liveness_change: Optional[Callable[["DhtNode"], None]] = None
        self._settle_routing: Optional[Callable[[], None]] = None
        # Shard replicas stored on behalf of other operators, keyed by the
        # replica's globally unique key (see repro.state.shard).
        self.shard_store: Dict[object, "ShardReplica"] = {}

    @property
    def name(self) -> str:
        return self.host.name

    @property
    def routing_table(self) -> RoutingTable:
        if self._settle_routing is not None:
            self._settle_routing()
        return self._routing_table

    def __repr__(self) -> str:
        return f"DhtNode({self.name}, {self.node_id!r}, alive={self.alive})"

    # ----------------------------------------------------------- shard store

    def store_shard(self, key: object, replica: "ShardReplica") -> None:
        """Accept a shard replica for storage."""
        self.shard_store[key] = replica

    def get_shard(self, key: object) -> Optional["ShardReplica"]:
        """Fetch a stored replica, or None when absent/lost."""
        return self.shard_store.get(key)

    def drop_shard(self, key: object) -> bool:
        """Remove a replica (shard-loss injection); True if it existed."""
        return self.shard_store.pop(key, None) is not None

    def stored_shard_count(self) -> int:
        return len(self.shard_store)

    # ------------------------------------------------------------- neighbours

    def known_nodes(self) -> List["DhtNode"]:
        """Everything this node can reach in one hop (table + leaf set)."""
        seen = {}
        for node in self.routing_table.all_entries() + self.leaf_set.members():
            seen[node.node_id] = node
        return list(seen.values())

    def fail(self) -> None:
        """Mark the node dead. The overlay handles repair and flow aborts."""
        if not self.alive:
            return
        self.alive = False
        if self._on_liveness_change is not None:
            self._on_liveness_change(self)

    def revive(self) -> None:
        if self.alive:
            return
        self.alive = True
        if self._on_liveness_change is not None:
            self._on_liveness_change(self)
