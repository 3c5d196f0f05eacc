"""Pastry leaf set: the numerically closest neighbours on the ring.

The leaf set holds ``size/2`` nodes clockwise and ``size/2`` nodes
counter-clockwise of the owner. SR3's star-structured recovery distributes
shard replicas across the leaf set (Sec. 3.4); the paper's deployment uses
a leaf set of 24 (Sec. 5.1).
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, TYPE_CHECKING

from repro.util.ids import NodeId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.dht.node import DhtNode


class LeafSet:
    """The leaf set owned by a single DHT node.

    The two nearest-first member lists are the only copy of the
    membership: ``contains`` scans them (at most ``size`` entries).
    """

    __slots__ = ("owner_id", "size", "_clockwise", "_counter", "on_membership_change")

    def __init__(self, owner_id: NodeId, size: int = 24) -> None:
        if size < 2 or size % 2:
            raise ValueError("leaf set size must be even and >= 2")
        self.owner_id = owner_id
        self.size = size
        self._clockwise: List["DhtNode"] = []
        self._counter: List["DhtNode"] = []
        # Observer called with (owner_id, added_id_values, removed_id_values)
        # on any membership change. The overlay uses it to maintain a
        # reverse index (id -> holding nodes) so a crash repairs only the
        # actual holders instead of scanning all N nodes.
        self.on_membership_change: Optional[Callable[..., None]] = None

    @property
    def half(self) -> int:
        return self.size // 2

    def members(self) -> List["DhtNode"]:
        """All current members, counter-clockwise side first."""
        return self._counter + self._clockwise

    def clockwise(self) -> List["DhtNode"]:
        """Members clockwise of the owner, nearest first."""
        return list(self._clockwise)

    def counter_clockwise(self) -> List["DhtNode"]:
        """Members counter-clockwise of the owner, nearest first."""
        return list(self._counter)

    def rebuild(self, nodes: Iterable["DhtNode"]) -> None:
        """Recompute both halves from a pool of alive candidate nodes."""
        own = self.owner_id.value
        alive = [n for n in nodes if n.alive and n.node_id.value != own]
        by_cw = sorted(alive, key=lambda n: self.owner_id.clockwise_distance(n.node_id))
        by_ccw = sorted(alive, key=lambda n: n.node_id.clockwise_distance(self.owner_id))
        self.seed(by_cw[: self.half], by_ccw[: self.half])

    def seed(self, clockwise: List["DhtNode"], counter: List["DhtNode"]) -> None:
        """Install both halves directly, nearest-first.

        Omniscient wiring: the overlay sliced them off its sorted ring, so
        the per-node distance re-sorts of :meth:`rebuild` are redundant.
        Callers guarantee the lists are what ``rebuild`` would select, and
        hand them over: the leaf set keeps them, it does not copy them.
        """
        old_clockwise, old_counter = self._clockwise, self._counter
        if clockwise == old_clockwise and counter == old_counter:
            return  # the same nodes in the same places
        self._clockwise = clockwise
        self._counter = counter
        if self.on_membership_change is not None:
            old = set(old_clockwise + old_counter)
            new = set(clockwise + counter)
            if new != old:
                came = [n.node_id.value for n in new - old]
                went = [n.node_id.value for n in old - new]
                self.on_membership_change(self.owner_id, came, went)

    def install(self, clockwise: List["DhtNode"], counter: List["DhtNode"]) -> None:
        """:meth:`seed` without the observer call, for a caller that rebuilds
        its reverse index wholesale (the overlay's bulk wiring)."""
        self._clockwise = clockwise
        self._counter = counter

    def last_member(self) -> Optional["DhtNode"]:
        """The final entry of :meth:`members` without building the copy."""
        if self._clockwise:
            return self._clockwise[-1]
        if self._counter:
            return self._counter[-1]
        return None

    def contains(self, node_id: NodeId) -> bool:
        value = node_id.value
        return any(n.node_id.value == value for n in self._clockwise + self._counter)

    def covers(self, key: NodeId) -> bool:
        """True when ``key`` falls inside the span of the leaf set.

        Pastry's routing rule: if the key is within the leaf-set range, the
        message is delivered directly to the numerically closest leaf.
        """
        if not self._clockwise or not self._counter:
            return False
        low = self._counter[-1].node_id
        high = self._clockwise[-1].node_id
        return low.clockwise_distance(key) <= low.clockwise_distance(high)

    def closest(self, key: NodeId) -> Optional["DhtNode"]:
        """The alive member (or owner-side candidate) nearest to ``key``."""
        alive = [n for n in self.members() if n.alive]
        if not alive:
            return None
        return min(alive, key=lambda n: (key.distance(n.node_id), n.node_id.value))

    def is_full(self) -> bool:
        return len(self._clockwise) == self.half and len(self._counter) == self.half
