"""The in-memory hashtable state store.

SR3 keeps operator state "in an in-memory hashtable data structure"
(Sec. 3.3, Layer 2; Table 1 row "SR3"). :class:`StateStore` is that
hashtable with byte accounting and snapshotting; :class:`StateSnapshot` is
the immutable captured image a save round partitions into shards.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, Iterator, Set, Tuple

from repro.errors import StateError
from repro.state.version import StateVersion, VersionClock


def estimate_entry_bytes(key: Any, value: Any) -> int:
    """Approximate serialized footprint of one key/value pair.

    Used for shard sizing; precise enough because experiments control
    state size through entry counts and payload strings.
    """
    return _estimate(key) + _estimate(value)


def _estimate(obj: Any) -> int:
    kind = type(obj)
    if kind is int or kind is float:  # exact-type fast path: counters, aggregates
        return 16
    if isinstance(obj, str):
        return len(obj.encode("utf-8")) + 8
    if isinstance(obj, bytes):
        return len(obj) + 8
    if isinstance(obj, (int, float)):
        return 16
    if isinstance(obj, (list, tuple, set, frozenset)):
        return 16 + sum(_estimate(item) for item in obj)
    if isinstance(obj, dict):
        return 16 + sum(_estimate(k) + _estimate(v) for k, v in obj.items())
    return max(16, sys.getsizeof(obj))


class StateSnapshot:
    """An immutable image of a store at one version."""

    def __init__(self, name: str, entries: Dict[Any, Any], version: StateVersion) -> None:
        self.name = name
        self._entries = dict(entries)
        self.version = version
        self.size_bytes = sum(estimate_entry_bytes(k, v) for k, v in entries.items())

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Any) -> bool:
        return key in self._entries

    def get(self, key: Any) -> Any:
        return self._entries.get(key)

    def items(self) -> Iterator[Tuple[Any, Any]]:
        return iter(self._entries.items())

    def as_dict(self) -> Dict[Any, Any]:
        return dict(self._entries)

    def __repr__(self) -> str:
        return f"StateSnapshot({self.name!r}, {len(self)} entries, {self.version!r})"


class StateStore:
    """A mutable keyed state store for one stateful operator."""

    def __init__(self, name: str) -> None:
        if not name:
            raise StateError("state store needs a non-empty name")
        self.name = name
        self._entries: Dict[Any, Any] = {}
        self._size_bytes = 0
        self.clock = VersionClock()
        # Changed-key tracking since the last mark_clean() — the source of
        # truth incremental saves diff against (see repro.state.chain).
        self._dirty: Set[Any] = set()
        self._deleted: Set[Any] = set()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def size_bytes(self) -> int:
        """Approximate in-memory footprint of all entries."""
        return self._size_bytes

    def put(self, key: Any, value: Any) -> None:
        """Insert or replace one entry; ``size_bytes`` moves by the difference."""
        entries = self._entries
        if key in entries:
            kind = type(value)
            # An int replacing an int (a float a float) is 16 - 16: a counter's steady state.
            if kind is not type(entries[key]) or (kind is not int and kind is not float):
                self._size_bytes += _estimate(value) - _estimate(entries[key])
        else:
            self._size_bytes += _estimate(key) + _estimate(value)
        entries[key] = value
        self._dirty.add(key)
        self._deleted.discard(key)

    def get(self, key: Any, default: Any = None) -> Any:
        return self._entries.get(key, default)

    def update(self, key: Any, fn) -> Any:
        """Read-modify-write: ``store[key] = fn(current or None)``."""
        new_value = fn(self._entries.get(key))
        self.put(key, new_value)
        return new_value

    def delete(self, key: Any) -> bool:
        """Remove an entry; returns True if it existed."""
        if key not in self._entries:
            return False
        self._size_bytes -= estimate_entry_bytes(key, self._entries[key])
        del self._entries[key]
        self._deleted.add(key)
        self._dirty.discard(key)
        return True

    def items(self) -> Iterator[Tuple[Any, Any]]:
        return iter(self._entries.items())

    def keys(self) -> Iterator[Any]:
        return iter(self._entries.keys())

    def dirty_keys(self) -> Set[Any]:
        """Keys inserted or updated since the last :meth:`mark_clean`."""
        return set(self._dirty)

    def deleted_keys(self) -> Set[Any]:
        """Keys removed since the last :meth:`mark_clean`."""
        return set(self._deleted)

    def mark_clean(self) -> None:
        """Reset change tracking (called once a save round captured it)."""
        self._dirty.clear()
        self._deleted.clear()

    def snapshot(self, timestamp: float) -> StateSnapshot:
        """Capture an immutable image stamped with the next version."""
        return StateSnapshot(self.name, self._entries, self.clock.next(timestamp))

    def restore(self, snapshot: StateSnapshot) -> None:
        """Replace contents with a recovered snapshot (post-recovery load)."""
        if snapshot.name != self.name:
            raise StateError(
                f"snapshot {snapshot.name!r} does not belong to store {self.name!r}"
            )
        self._entries = snapshot.as_dict()
        self._size_bytes = sum(
            estimate_entry_bytes(k, v) for k, v in self._entries.items()
        )
        self._dirty.clear()
        self._deleted.clear()
        self.clock.observe(snapshot.version)

    def __repr__(self) -> str:
        return f"StateStore({self.name!r}, {len(self)} entries, {self._size_bytes}B)"
