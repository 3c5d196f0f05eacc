"""Direct unit tests for the stateful bolt helpers."""

import pytest

from repro.errors import StreamRuntimeError
from repro.streaming.component import OutputCollector, TaskContext
from repro.streaming.stateful import CountingBolt, StatefulBolt
from repro.streaming.tuples import StreamTuple


class AggregatingBolt(StatefulBolt):
    """A group-by aggregate: ``reducer(previous_or_None, tuple) -> new``."""

    def __init__(self, key_field, reducer, value_field="aggregate"):
        super().__init__()
        self.key_field = key_field
        self.value_field = value_field
        self._reducer = reducer

    def declare_output_fields(self):
        return (self.key_field, self.value_field)

    def process(self, tuple_, collector):
        key = tuple_[self.key_field]
        new_value = self._reducer(self.state.get(key), tuple_)
        self.state.put(key, new_value)
        collector.emit((key, new_value), tuple_.timestamp)


def prepared(bolt, component="b"):
    bolt.prepare(TaskContext(component, 0, 1))
    return bolt


def run(bolt, values, fields):
    collector = OutputCollector("b", bolt.declare_output_fields())
    bolt.execute(StreamTuple(values, fields, source="src"), collector)
    return collector.drain()


class TestStatefulBoltBase:
    def test_state_before_prepare_rejected(self):
        class Dummy(StatefulBolt):
            def declare_output_fields(self):
                return ("x",)

            def process(self, tuple_, collector):
                pass

        bolt = Dummy()
        with pytest.raises(StreamRuntimeError):
            _ = bolt.state
        with pytest.raises(StreamRuntimeError):
            _ = bolt.context

    def test_prepare_names_store_after_task(self):
        bolt = prepared(CountingBolt("w"), component="counter")
        assert bolt.state.name == "counter[0]/state"

    def test_attach_state_replaces_store(self):
        from repro.state.store import StateStore

        bolt = prepared(CountingBolt("w"))
        replacement = StateStore("other/state")
        replacement.put("x", 9)
        bolt.attach_state(replacement)
        assert bolt.state.get("x") == 9

    def test_prepare_preserves_attached_state(self):
        from repro.state.store import StateStore

        bolt = CountingBolt("w")
        store = StateStore("pre/state")
        store.put("kept", 1)
        bolt.attach_state(store)
        bolt.prepare(TaskContext("c", 0, 1))
        assert bolt.state.get("kept") == 1


class TestCountingBolt:
    def test_counts_accumulate_and_emit(self):
        bolt = prepared(CountingBolt("word"))
        out1 = run(bolt, ("apple",), ("word",))
        out2 = run(bolt, ("apple",), ("word",))
        assert (out1[0].fields, out1[0].values) == (("word", "count"), ("apple", 1))
        assert (out2[0].fields, out2[0].values) == (("word", "count"), ("apple", 2))
        assert bolt.state.get("apple") == 2

    def test_independent_keys(self):
        bolt = prepared(CountingBolt("word"))
        run(bolt, ("a",), ("word",))
        run(bolt, ("b",), ("word",))
        assert bolt.state.get("a") == 1
        assert bolt.state.get("b") == 1


class TestAggregatingBolt:
    def test_custom_reducer(self):
        bolt = prepared(
            AggregatingBolt(
                "symbol",
                lambda prev, t: max(prev or 0.0, t["price"]),
                value_field="max_price",
            )
        )
        run(bolt, ("X", 10.0), ("symbol", "price"))
        out = run(bolt, ("X", 7.0), ("symbol", "price"))
        assert (out[0].fields, out[0].values) == (("symbol", "max_price"), ("X", 10.0))
        assert bolt.state.get("X") == 10.0

    def test_declares_key_and_value_fields(self):
        bolt = AggregatingBolt("k", lambda p, t: t, value_field="agg")
        assert tuple(bolt.declare_output_fields()) == ("k", "agg")

    def test_timestamp_propagated(self):
        bolt = prepared(AggregatingBolt("k", lambda p, t: 1))
        collector = OutputCollector("b", bolt.declare_output_fields())
        bolt.execute(
            StreamTuple(("x",), ("k",), source="s", timestamp=42.0), collector
        )
        assert collector.drain()[0].timestamp == 42.0
