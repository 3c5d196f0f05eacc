"""A bolt the streaming engine's tests are written with."""

from typing import Sequence

from repro.streaming.component import Bolt, OutputCollector
from repro.streaming.tuples import StreamTuple


class FunctionBolt(Bolt):
    """Wrap a plain function ``f(tuple) -> iterable of value-sequences``."""

    def __init__(self, fn, output_fields: Sequence[str]) -> None:
        self._fn = fn
        self._fields = tuple(output_fields)

    def declare_output_fields(self) -> Sequence[str]:
        return self._fields

    def execute(self, tuple_: StreamTuple, collector: OutputCollector) -> None:
        for values in self._fn(tuple_) or ():
            collector.emit(values, timestamp=tuple_.timestamp)

