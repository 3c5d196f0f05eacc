"""Stream groupings: how tuples route to downstream task instances.

Three of the groupings Storm applications use: shuffle (round-robin,
deterministic here), fields (hash of selected fields — the partitioning
stateful bolts rely on so one key always hits the same task) and global
(all tuples to task 0). Each picks one task a tuple, asked once per
emission list: one collector's ``drain``, whose tuples share its ``fields``.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Sequence

from repro.errors import TopologyError
from repro.streaming.tuples import StreamTuple


class Grouping:
    """Chooses one destination task index per tuple of an emission list."""

    def choose(self, tuples: Sequence[StreamTuple], num_tasks: int) -> List[int]:
        raise NotImplementedError


class ShuffleGrouping(Grouping):
    """Round-robin distribution (deterministic, balanced)."""

    def __init__(self) -> None:
        self.position = 0  # tuples routed so far; a checkpoint barrier records it

    def choose(self, tuples: Sequence[StreamTuple], num_tasks: int) -> List[int]:
        start = self.position
        self.position = end = start + len(tuples)
        chosen = []
        for position in range(start, end):
            chosen.append(position % num_tasks)
        return chosen


# Only exact types whose equal values also ``repr`` equal are memoized
# (``0.0 == -0.0`` and ``(1,) == (1.0,)`` rule out floats and containers);
# the memo is cleared when it reaches _MEMO_LIMIT keys.
_MEMO_TYPES = frozenset({str, int, bool, bytes, type(None)})
_MEMO_LIMIT = 1 << 16


class FieldsGrouping(Grouping):
    """Hash-partition on selected fields: same key, same task.

    The task is the first 64 bits of SHA-256 over the ``repr`` of the
    selected values joined by ``\\x1f``, modulo the task count. The 64-bit
    prefix is memoized per key; the assignment never depends on the memo.
    """

    def __init__(self, fields: Sequence[str]) -> None:
        if not fields:
            raise TopologyError("fields grouping needs at least one field")
        self.fields = tuple(fields)
        self._memo: Dict[tuple, int] = {}

    def choose(self, tuples: Sequence[StreamTuple], num_tasks: int) -> List[int]:
        names = self.fields
        fields = tuples[0].fields if tuples else names
        try:
            positions = tuple(map(fields.index, names))  # once: the list shares its fields
        except ValueError:
            for name in names:
                tuples[0][name]  # raises the KeyError that names the first missing field
        single = positions[0] if len(positions) == 1 else None
        memo, chosen = self._memo, []
        for tuple_ in tuples:
            row = tuple_.values
            # 1, 1.0 and True compare equal but repr differently: the memo key
            # is (type, value, type, value, ...); one field builds it directly.
            if single is not None:
                value = row[single]
                key = (type(value), value)
            else:
                key = tuple([part for p in positions for part in (type(row[p]), row[p])])
            try:
                prefix = memo.get(key)
            except TypeError:  # an unhashable field value: hashed, and never a memo type
                prefix = None
            if prefix is None:
                prefix = _hash_prefix(key[1::2])
                if _MEMO_TYPES.issuperset(key[::2]):
                    if len(memo) >= _MEMO_LIMIT:
                        memo.clear()
                    memo[key] = prefix
            chosen.append(prefix % num_tasks)
        return chosen


def _hash_prefix(values: Sequence[Any]) -> int:
    key = "\x1f".join([repr(v) for v in values])
    return int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "big")


class GlobalGrouping(Grouping):
    """Everything to the lowest task (Storm's global grouping)."""

    def choose(self, tuples: Sequence[StreamTuple], num_tasks: int) -> List[int]:
        return [0] * len(tuples)
