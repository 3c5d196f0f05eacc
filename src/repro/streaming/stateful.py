"""Stateful bolts: operators that remember past input.

"A stateful operator maintains state that captures characteristics of some
of the records processed so far and updates it with each new input"
(Sec. 3.1). Each task of a stateful bolt owns one
:class:`~repro.state.store.StateStore`; the fields-grouping upstream
guarantees a key always reaches the task owning its state entry, so the
per-task stores partition the logical state cleanly.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import StreamRuntimeError
from repro.state.store import StateStore
from repro.streaming.component import Bolt, OutputCollector, TaskContext
from repro.streaming.tuples import StreamTuple


class StatefulBolt(Bolt):
    """A bolt with a keyed state store bound per task.

    Subclasses implement :meth:`process` (instead of ``execute``) and read
    or update ``self.state``. The engine snapshots and restores the store
    around SR3 save/recovery cycles.
    """

    def __init__(self) -> None:
        self._state: Optional[StateStore] = None
        self._context: Optional[TaskContext] = None

    @property
    def state(self) -> StateStore:
        if self._state is None:
            raise StreamRuntimeError(
                "state accessed before prepare(); bolts must run inside a cluster"
            )
        return self._state

    @property
    def context(self) -> TaskContext:
        if self._context is None:
            raise StreamRuntimeError("context accessed before prepare()")
        return self._context

    def prepare(self, context: TaskContext) -> None:
        self._context = context
        if self._state is None:
            self._state = StateStore(f"{context.task_id}/state")

    def attach_state(self, store: StateStore) -> None:
        """Bind an externally managed store (used on recovery restore)."""
        self._state = store

    def execute(self, tuple_: StreamTuple, collector: OutputCollector) -> None:
        self.process(tuple_, collector)

    def process(self, tuple_: StreamTuple, collector: OutputCollector) -> None:
        raise NotImplementedError


class CountingBolt(StatefulBolt):
    """Count occurrences of a key field — the canonical stateful operator.

    Emits ``(key, count)`` on every update (word count, click counting).
    """

    def __init__(self, key_field: str) -> None:
        super().__init__()
        self.key_field = key_field

    def declare_output_fields(self):
        return (self.key_field, "count")

    def process(self, tuple_: StreamTuple, collector: OutputCollector) -> None:
        try:
            key = tuple_.values[tuple_.fields.index(self.key_field)]
        except ValueError:
            key = tuple_[self.key_field]  # raises the KeyError that names the field
        state = self._state if self._state is not None else self.state  # raises unprepared
        count = (state.get(key) or 0) + 1
        state.put(key, count)
        collector.emit((key, count), tuple_.timestamp)
