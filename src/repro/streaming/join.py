"""Incremental stream join — the stateful operator the paper's benchmarks
exercise ("stateful operators (e.g., incremental join)", Sec. 5.1).

:class:`IncrementalJoinBolt` performs a symmetric hash join of two input
streams on a shared key field. Rows from each side are buffered in the
operator's state store; every arrival immediately joins against the
buffered rows of the opposite side and emits the matches — so results
stream out incrementally instead of waiting for batch boundaries. The
buffered rows *are* the recoverable state: losing them silently drops all
future matches against past rows, which is exactly the failure SR3
protects against.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.errors import StreamRuntimeError
from repro.streaming.component import OutputCollector
from repro.streaming.stateful import StatefulBolt
from repro.streaming.tuples import StreamTuple


class IncrementalJoinBolt(StatefulBolt):
    """Symmetric hash join of two streams on ``key_field``.

    The side of each tuple is identified by its emitting component
    (``left_source`` / ``right_source``). Output fields are the key plus
    the configured value fields of both sides. State layout:
    ``(side, key) -> tuple of buffered value-rows``.

    Optionally bounds the per-key buffer (``max_rows_per_key``) so
    unbounded streams cannot grow state without limit; the oldest rows are
    evicted first (a sliding row-window join).
    """

    def __init__(
        self,
        key_field: str,
        left_source: str,
        right_source: str,
        left_fields: Sequence[str],
        right_fields: Sequence[str],
        max_rows_per_key: Optional[int] = None,
    ) -> None:
        super().__init__()
        if left_source == right_source:
            raise StreamRuntimeError("join sides must come from distinct components")
        if max_rows_per_key is not None and max_rows_per_key < 1:
            raise StreamRuntimeError("max_rows_per_key must be positive")
        self.key_field = key_field
        self.left_source = left_source
        self.right_source = right_source
        self.left_fields = tuple(left_fields)
        self.right_fields = tuple(right_fields)
        self.max_rows_per_key = max_rows_per_key

    def declare_output_fields(self) -> Tuple[str, ...]:
        return (self.key_field,) + self.left_fields + self.right_fields

    def _side_of(self, tuple_: StreamTuple) -> str:
        if tuple_.source == self.left_source:
            return "left"
        if tuple_.source == self.right_source:
            return "right"
        raise StreamRuntimeError(
            f"join received tuple from unexpected source {tuple_.source!r}"
        )

    def _row_of(self, tuple_: StreamTuple, side: str) -> tuple:
        fields = self.left_fields if side == "left" else self.right_fields
        return tuple(tuple_[f] for f in fields)

    def process(self, tuple_: StreamTuple, collector: OutputCollector) -> None:
        side = self._side_of(tuple_)
        other = "right" if side == "left" else "left"
        key = tuple_[self.key_field]
        row = self._row_of(tuple_, side)

        # Buffer this row on its own side (bounded, oldest-first eviction).
        buffered = self.state.get((side, key), ())
        buffered = buffered + (row,)
        if self.max_rows_per_key is not None and len(buffered) > self.max_rows_per_key:
            buffered = buffered[-self.max_rows_per_key :]
        self.state.put((side, key), buffered)

        # Join against everything buffered on the opposite side.
        for match in self.state.get((other, key), ()):
            left_row = row if side == "left" else match
            right_row = match if side == "left" else row
            collector.emit(
                (key,) + left_row + right_row, timestamp=tuple_.timestamp
            )
