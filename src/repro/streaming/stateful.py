"""Stateful bolts: operators that remember past input.

"A stateful operator maintains state that captures characteristics of some
of the records processed so far and updates it with each new input"
(Sec. 3.1). Each task of a stateful bolt owns one
:class:`~repro.state.store.StateStore`; the fields-grouping upstream
guarantees a key always reaches the task owning its state entry, so the
per-task stores partition the logical state cleanly.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import StreamRuntimeError
from repro.state.store import StateStore
from repro.streaming.component import Bolt, DiscardCollector, OutputCollector, TaskContext
from repro.streaming.tuples import StreamTuple


class StatefulBolt(Bolt):
    """A bolt with a keyed state store bound per task.

    Subclasses implement ``process`` (or, as :class:`CountingBolt`, a runner) and read
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


class CountingBolt(StatefulBolt):
    """Count occurrences of a key field — the canonical stateful operator.

    Emits ``(key, count)`` on every update (word count, click counting).
    """

    def __init__(self, key_field: str) -> None:
        super().__init__()
        self.key_field = key_field

    def declare_output_fields(self):
        return (self.key_field, "count")

    def execute(self, tuple_: StreamTuple, collector: OutputCollector) -> None:
        queue: List[List[StreamTuple]] = []
        self.run_route(collector.source, ((tuple_, 0),), (self,), (collector,), queue)
        collector.pending += [out for emitted in queue for out in emitted]

    @staticmethod
    def run_route(target, pairs, tasks, collectors, queue) -> None:
        """:meth:`Bolt.run_route` counting inline: a key enters only ``get`` and
        ``put``, and a ``DiscardCollector`` gets no tuple (two values, two fields)."""
        discard = isinstance(collectors[0], DiscardCollector)
        for tuple_, index in pairs:
            bolt = tasks[index]
            if bolt is None:
                raise StreamRuntimeError(
                    f"tuple routed to dead task {target}[{index}]; recover it first"
                )
            key_field = bolt.key_field
            try:
                key = tuple_.values[tuple_.fields.index(key_field)]
            except ValueError:
                key = tuple_[key_field]  # raises the KeyError that names the field
            state = bolt._state if bolt._state is not None else bolt.state  # raises unprepared
            count = (state.get(key) or 0) + 1
            state.put(key, count)
            if not discard:
                collector = collectors[index]
                out = StreamTuple.__new__(StreamTuple)
                out.values, out.fields, out.source, out.timestamp = (
                    (key, count), collector.fields, collector.source, tuple_.timestamp)
                queue.append([out])
