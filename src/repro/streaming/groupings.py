"""Stream groupings: how tuples route to downstream task instances.

The same four groupings Storm applications use: shuffle (round-robin,
deterministic here), fields (hash of selected fields — the partitioning
stateful bolts rely on so one key always hits the same task), global (all
tuples to task 0), and all (replicate to every task).
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Sequence

from repro.errors import TopologyError
from repro.streaming.tuples import StreamTuple


class Grouping:
    """Chooses destination task indexes for one tuple."""

    def choose(self, tuple_: StreamTuple, num_tasks: int) -> List[int]:
        raise NotImplementedError


class ShuffleGrouping(Grouping):
    """Round-robin distribution (deterministic, balanced)."""

    def __init__(self) -> None:
        self.position = 0  # tuples routed so far; a checkpoint barrier records it

    def choose(self, tuple_: StreamTuple, num_tasks: int) -> List[int]:
        index = self.position % num_tasks
        self.position += 1
        return [index]


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

    def choose(self, tuple_: StreamTuple, num_tasks: int) -> List[int]:
        fields, row, names = tuple_.fields, tuple_.values, self.fields
        # 1, 1.0 and True compare equal but repr differently: the memo key is
        # (type, value, type, value, ...); one field builds it directly.
        try:
            if len(names) == 1:
                value = row[fields.index(names[0])]
                typed = memo_key = (type(value), value)
            else:
                typed = []
                for name in names:
                    value = row[fields.index(name)]
                    typed.append(type(value))
                    typed.append(value)
                memo_key = tuple(typed)
        except ValueError:
            for name in names:
                tuple_[name]  # raises the KeyError that names the first missing field
        try:
            prefix = self._memo.get(memo_key)
        except TypeError:  # an unhashable field value
            return [_hash_prefix(typed[1::2]) % num_tasks]
        if prefix is None:
            prefix = _hash_prefix(typed[1::2])
            if _MEMO_TYPES.issuperset(typed[::2]):
                if len(self._memo) >= _MEMO_LIMIT:
                    self._memo.clear()
                self._memo[memo_key] = prefix
        return [prefix % num_tasks]


def _hash_prefix(values: Sequence[Any]) -> int:
    key = "\x1f".join([repr(v) for v in values])
    return int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "big")


class GlobalGrouping(Grouping):
    """Everything to the lowest task (Storm's global grouping)."""

    def choose(self, tuple_: StreamTuple, num_tasks: int) -> List[int]:
        return [0]
