"""Pastry prefix-routing table.

Row ``r`` holds nodes whose ids share exactly ``r`` leading base-``2**b``
digits with the owner; column ``c`` within a row holds a node whose
``r``-th digit is ``c``. Forwarding a message to the entry matching one
more digit of the key gives O(log N) routing (Sec. 3.2, "Routing table").
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, TYPE_CHECKING

from repro.util.ids import ID_BITS, NodeId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.dht.node import DhtNode


class RoutingTable:
    """The routing table owned by a single DHT node."""

    __slots__ = ("owner_id", "bits_per_digit", "_rows", "on_change")

    def __init__(self, owner_id: NodeId, bits_per_digit: int = 4) -> None:
        if ID_BITS % bits_per_digit:
            raise ValueError("bits_per_digit must divide 128")
        self.owner_id = owner_id
        self.bits_per_digit = bits_per_digit
        self._rows: Dict[int, Dict[int, "DhtNode"]] = {}
        # Observer fired on add/remove; the overlay uses it to version the
        # topology so route memos (Scribe) invalidate on any change.
        self.on_change = None

    def add(self, node: "DhtNode") -> bool:
        """Insert ``node`` into its slot; returns True if the table changed.

        The slot is determined by the node id alone: row = length of the
        shared prefix with the owner, column = the first differing digit.
        An occupied slot keeps its current entry (the real Pastry prefers
        the closer node by proximity metric; with uniform latencies any
        entry is equally good).
        """
        if node.node_id == self.owner_id:
            return False
        row = self.owner_id.shared_prefix_length(node.node_id, self.bits_per_digit)
        col = node.node_id.digit(row, self.bits_per_digit)
        slots = self._rows.setdefault(row, {})
        if col in slots:
            return False
        slots[col] = node
        if self.on_change is not None:
            self.on_change()
        return True

    def remove(self, node_id: NodeId) -> bool:
        """Drop a (failed) node from the table; returns True if present."""
        row = self.owner_id.shared_prefix_length(node_id, self.bits_per_digit)
        col = node_id.digit(row, self.bits_per_digit)
        slots = self._rows.get(row)
        if slots and col in slots and slots[col].node_id == node_id:
            del slots[col]
            if not slots:
                del self._rows[row]
            if self.on_change is not None:
                self.on_change()
            return True
        return False

    def next_hop(self, key: NodeId) -> Optional["DhtNode"]:
        """The routing-table entry that shares one more digit with ``key``."""
        row = self.owner_id.shared_prefix_length(key, self.bits_per_digit)
        col = key.digit(row, self.bits_per_digit)
        candidate = self._rows.get(row, {}).get(col)
        if candidate is not None and candidate.alive:
            return candidate
        return None

    def all_entries(self) -> List["DhtNode"]:
        """Every node currently referenced by the table."""
        return [node for slots in self._rows.values() for node in slots.values()]

    def occupied_rows(self) -> List[int]:
        """Indices of rows holding at least one entry (for maintenance)."""
        return sorted(self._rows)

    def row_entries(self, row: int) -> List["DhtNode"]:
        """The entries in one row (for per-row maintenance pings)."""
        return list(self._rows.get(row, {}).values())

    def size(self) -> int:
        return sum(len(slots) for slots in self._rows.values())

    def refresh(self, candidates: Iterable["DhtNode"]) -> int:
        """Repopulate empty slots from a candidate pool; returns #added."""
        added = 0
        for node in candidates:
            if node.alive and self.add(node):
                added += 1
        return added
