"""Spouts and bolts: the vertices of a topology.

Mirrors Storm's component model (Sec. 4): "Spouts are the data sources of
the stream ... Bolts are the logical processing units. Spouts pass data to
bolts and bolts process and produce a new output stream." ``Bolt`` plays
the role of Storm's ``IRichBolt`` interface that SR3 hooks into.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence

from repro.errors import StreamRuntimeError, TopologyError
from repro.streaming.tuples import StreamTuple


class OutputCollector:
    """Collects the tuples a component emits during one invocation.

    The executor drains the collector after each call and routes the
    tuples to downstream tasks. ``pending`` is what was emitted since the
    last :meth:`drain`, in emission order.
    """

    def __init__(self, source: str, fields: Sequence[str]) -> None:
        self.source = source
        self.fields = tuple(fields)
        self.pending: List[StreamTuple] = []

    def emit(self, values: Sequence[Any], timestamp: Optional[float] = None) -> StreamTuple:
        """Emit one tuple with this component's declared fields."""
        fields = self.fields
        if len(values) != len(fields):
            StreamTuple(values, fields)  # raises the arity error
        out = StreamTuple.__new__(StreamTuple)  # the constructor would re-tuple and re-measure
        out.values = values if type(values) is tuple else tuple(values)
        out.fields = fields
        out.source = self.source
        out.timestamp = timestamp
        self.pending.append(out)
        return out

    def emit_all(self, rows: Iterable[Sequence[Any]], timestamp: Optional[float]) -> None:
        """Emit one tuple per row, all stamped ``timestamp``, as :meth:`emit` would."""
        fields, source, pending = self.fields, self.source, self.pending
        width = len(fields)
        for values in rows:
            if len(values) != width:
                StreamTuple(values, fields)  # raises the arity error
            out = StreamTuple.__new__(StreamTuple)
            out.values = values if type(values) is tuple else tuple(values)
            out.fields = fields
            out.source = source
            out.timestamp = timestamp
            pending.append(out)

    def drain(self) -> List[StreamTuple]:
        drained = self.pending
        self.pending = []
        return drained


class DiscardCollector(OutputCollector):
    """For a terminal bolt nobody listens to: emissions are checked against
    the declared fields and dropped, not built and queued for no route."""

    def emit(self, values: Sequence[Any], timestamp: Optional[float] = None) -> None:
        if len(values) != len(self.fields):
            StreamTuple(values, self.fields)  # raises the arity error

    def emit_all(self, rows: Iterable[Sequence[Any]], timestamp: Optional[float]) -> None:
        for values in rows:
            if len(values) != len(self.fields):
                StreamTuple(values, self.fields)  # raises the arity error


class Component:
    """Common base: declared output fields and lifecycle hooks."""

    def declare_output_fields(self) -> Sequence[str]:
        """The field names of every tuple this component emits."""
        raise NotImplementedError

    def prepare(self, context: "TaskContext") -> None:
        """Called before the first tuple (Storm's ``prepare``/``open``), and
        again when a cluster rewinds a spout to a checkpoint barrier before
        skipping to its offset: a spout reads its source afresh here."""


class Spout(Component):
    """A data source. Subclasses implement :meth:`next_tuple`."""

    #: Whether :meth:`prepare` can read the source afresh; a cluster checks
    #: it before restoring a checkpoint barrier.
    rewindable = True

    def next_tuple(self, collector: OutputCollector) -> bool:
        """Emit zero or more tuples; return False when exhausted."""
        raise NotImplementedError


class Bolt(Component):
    """A processing unit. Subclasses implement :meth:`execute`."""

    def execute(self, tuple_: StreamTuple, collector: OutputCollector) -> None:
        raise NotImplementedError

    @staticmethod
    def run_route(target: str, pairs, tasks: List[Any], collectors, queue) -> None:
        """Execute a route's (tuple, task index) pairs in order; queue each drain."""
        for tuple_, index in pairs:
            bolt = tasks[index]
            if bolt is None:
                raise StreamRuntimeError(
                    f"tuple routed to dead task {target}[{index}]; recover it first"
                )
            collector = collectors[index]
            bolt.execute(tuple_, collector)
            if collector.pending:
                queue.append(collector.drain())


class TaskContext:
    """What a running task knows about itself."""

    def __init__(self, component_id: str, task_index: int, parallelism: int) -> None:
        if not 0 <= task_index < parallelism:
            raise TopologyError(
                f"task index {task_index} out of range for parallelism {parallelism}"
            )
        self.component_id = component_id
        self.task_index = task_index
        self.parallelism = parallelism

    @property
    def task_id(self) -> str:
        return f"{self.component_id}[{self.task_index}]"

    def __repr__(self) -> str:
        return f"TaskContext({self.task_id})"


class IteratorSpout(Spout):
    """Emit each record of an iterable as one tuple. A re-iterable source
    rewinds; a one-shot iterator the spout has read from refuses to be
    re-prepared."""

    def __init__(self, iterable: Iterable, output_fields: Sequence[str]) -> None:
        self._source = iterable
        self._iterator = iter(iterable)
        self._fields = tuple(output_fields)
        self._position = 0  # records read since the last prepare

    def declare_output_fields(self) -> Sequence[str]:
        return self._fields

    @property
    def rewindable(self) -> bool:
        return not self._position or iter(self._source) is not self._source

    def prepare(self, context: "TaskContext") -> None:
        if not self.rewindable:
            raise StreamRuntimeError(f"{context.task_id} cannot rewind a one-shot iterator")
        self._iterator = iter(self._source)
        self._position = 0

    def next_tuple(self, collector: OutputCollector) -> bool:
        try:
            values = next(self._iterator)
        except StopIteration:
            return False
        self._position += 1
        collector.emit(values)
        return True
