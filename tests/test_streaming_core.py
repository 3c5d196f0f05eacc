"""Unit tests for tuples, components, groupings, and topologies."""

import hashlib
from collections import namedtuple

import pytest
from hypothesis import given, settings, strategies as st

import repro.streaming.groupings as groupings
from repro.errors import TopologyError
from repro.streaming.component import (
    DiscardCollector, IteratorSpout, OutputCollector, TaskContext,
)
from repro.streaming.groupings import FieldsGrouping, GlobalGrouping, ShuffleGrouping
from repro.streaming.topology import TopologyBuilder
from repro.streaming.tuples import StreamTuple
from tests.streaming_helpers import FunctionBolt


# Values whose equality and repr disagree, plus the ordinary ones.
key_scalars = st.one_of(
    st.sampled_from([1, 1.0, True, 0, 0.0, -0.0, False, "", "1", None, b"1"]),
    st.integers(), st.text(max_size=4), st.floats(allow_nan=False),
)
key_values = st.one_of(
    key_scalars,
    st.tuples(key_scalars),
    st.tuples(key_scalars, st.tuples(key_scalars)),
    st.lists(key_scalars, max_size=2),  # unhashable
)

Pair = namedtuple("Pair", "a b")


def reference_choose(fields, tuple_, num_tasks):
    """`FieldsGrouping.choose` as it was before the memo, verbatim."""
    key = "\x1f".join(repr(tuple_[f]) for f in fields)
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return [int.from_bytes(digest[:8], "big") % num_tasks]


class TestStreamTuple:
    def test_field_access(self):
        t = StreamTuple((1, "x"), ("count", "word"))
        assert t["count"] == 1
        assert t["word"] == "x"

    def test_unknown_field(self):
        t = StreamTuple((1,), ("a",))
        with pytest.raises(KeyError):
            _ = t["b"]

    def test_mismatched_arity(self):
        with pytest.raises(TopologyError):
            StreamTuple((1, 2), ("a",))


class TestCollector:
    def test_emit_and_drain(self):
        collector = OutputCollector("src", ("a",))
        collector.emit((1,))
        collector.emit((2,), timestamp=5.0)
        drained = collector.drain()
        assert [t["a"] for t in drained] == [1, 2]
        assert drained[1].timestamp == 5.0
        assert drained[0].source == "src"
        assert collector.drain() == []

    def test_emit_all_equals_emit_per_row(self):
        rows = [("x", 1), ["y", 2], Pair("z", 3)]
        one, each = OutputCollector("src", ("a", "b")), OutputCollector("src", ("a", "b"))
        one.emit_all(iter(rows), 2.5)
        for row in rows:
            each.emit(row, 2.5)
        flat = [[(type(t.values), t.values, t.fields, t.source, t.timestamp) for t in c.drain()]
                for c in (one, each)]
        assert flat[0] == flat[1] and len(flat[0]) == 3
        for collector in (OutputCollector("src", ("a",)), DiscardCollector("src", ("a",))):
            with pytest.raises(TopologyError, match="tuple has 2 values but 1 declared fields"):
                collector.emit_all([(1,), (1, 2)], None)
        assert DiscardCollector("src", ("a",)).emit_all([(1,)], None) is None


class TestHelperComponents:
    def test_iterator_spout_exhausts(self):
        spout = IteratorSpout(iter([(1,), (2,)]), ("v",))
        collector = OutputCollector("s", ("v",))
        assert spout.next_tuple(collector)
        assert spout.next_tuple(collector)
        assert not spout.next_tuple(collector)
        assert [t["v"] for t in collector.drain()] == [1, 2]

    def test_function_bolt_maps(self):
        bolt = FunctionBolt(lambda t: [(t["v"] * 2,)], ("v",))
        collector = OutputCollector("b", ("v",))
        bolt.execute(StreamTuple((3,), ("v",)), collector)
        assert collector.drain()[0]["v"] == 6

    def test_function_bolt_filter_via_empty(self):
        bolt = FunctionBolt(lambda t: [] if t["v"] < 0 else [(t["v"],)], ("v",))
        collector = OutputCollector("b", ("v",))
        bolt.execute(StreamTuple((-1,), ("v",)), collector)
        assert collector.drain() == []

    def test_task_context_bounds(self):
        with pytest.raises(TopologyError):
            TaskContext("c", 2, 2)
        assert TaskContext("c", 1, 2).task_id == "c[1]"


class TestGroupings:
    def test_shuffle_round_robin(self):
        g = ShuffleGrouping()
        t = StreamTuple((1,), ("a",))
        assert [g.choose([t], 3)[0] for _ in range(6)] == [0, 1, 2, 0, 1, 2]
        assert g.choose([t] * 4, 3) == [0, 1, 2, 0]  # a list continues the round
        assert g.position == 10

    @given(st.text(min_size=1), st.integers(min_value=1, max_value=16))
    def test_fields_same_key_same_task(self, key, tasks):
        g = FieldsGrouping(["k"])
        t = StreamTuple((key,), ("k",))
        first = g.choose([t], tasks)
        assert g.choose([t, t], tasks) == first + first
        assert 0 <= first[0] < tasks

    def test_fields_requires_fields(self):
        with pytest.raises(TopologyError):
            FieldsGrouping([])

    def test_fields_missing_field_names_it(self):
        with pytest.raises(KeyError, match="no field 'k'"):
            FieldsGrouping(["k"]).choose([StreamTuple((1,), ("a",), source="up")], 2)

    def test_an_empty_list_chooses_nothing(self):
        for g in (ShuffleGrouping(), FieldsGrouping(["k"]), GlobalGrouping()):
            assert g.choose([], 3) == []

    @settings(max_examples=200)
    @given(
        st.lists(st.tuples(key_values, key_values), min_size=1, max_size=30),
        st.integers(min_value=1, max_value=16),
        st.sampled_from([["a"], ["a", "b"], ["b", "a"]]),
    )
    def test_fields_matches_unmemoized_reference(self, rows, tasks, fields):
        # One grouping sees the whole sequence, so keys that compare equal
        # (1, 1.0, True; 0.0, -0.0; (1,), (1.0,)) meet in its memo.
        memoized = FieldsGrouping(fields)
        tuples = [StreamTuple(row, ("a", "b")) for row in rows + rows]
        expected = [reference_choose(fields, t, tasks)[0] for t in tuples]
        assert [memoized.choose([t], tasks)[0] for t in tuples] == expected
        assert memoized.choose(tuples, tasks) == expected  # one list, memo warm

    @settings(max_examples=200)
    @given(
        st.lists(st.tuples(key_values, key_values), min_size=1, max_size=30),
        st.integers(min_value=1, max_value=16),
        st.sampled_from([["a"], ["b"], ["a", "b"], ["b", "a"], ["a", "a"], ["b", "a", "b"]]),
    )
    def test_fields_matches_reference_on_emitted_tuples(self, rows, tasks, fields):
        # A one-field key is built without the list and the collector sets a
        # tuple's slots itself; an unhashable value may sit in either position.
        memoized = FieldsGrouping(fields)
        collector = OutputCollector("up", ("a", "b"))
        for row in rows + rows:
            for t in (collector.emit(row), collector.emit(list(row)), StreamTuple(row, ["a", "b"])):
                assert memoized.choose([t], tasks) == reference_choose(fields, t, tasks)
        collector.emit_all(rows + [list(row) for row in rows], None)
        drained = collector.drain()
        assert memoized.choose(drained, tasks) == FieldsGrouping(fields).choose(drained, tasks) == [
            reference_choose(fields, t, tasks)[0] for t in drained
        ]
        for key in memoized._memo:
            assert len(key) == 2 * len(fields) and groupings._MEMO_TYPES.issuperset(key[::2])

    def test_fields_memo_is_bounded_and_survives_a_clear(self, monkeypatch):
        monkeypatch.setattr(groupings, "_MEMO_LIMIT", 4)
        g = FieldsGrouping(["k"])
        tuples = [StreamTuple((f"key-{i}",), ("k",)) for i in range(11)]
        for t in tuples + tuples:
            assert g.choose([t], 7) == reference_choose(["k"], t, 7)
            assert len(g._memo) <= 4
        assert g.choose(tuples, 7) == [reference_choose(["k"], t, 7)[0] for t in tuples]
        assert len(g._memo) <= 4
        g.choose([StreamTuple(([1, 2],), ("k",))], 7)  # unhashable: hashed directly
        g.choose([StreamTuple((0.5,), ("k",))], 7)  # float: never memoized
        assert all(key[0] is str for key in g._memo)

    def test_fields_spreads_keys(self):
        g = FieldsGrouping(["k"])
        targets = set(g.choose([StreamTuple((f"key-{i}",), ("k",)) for i in range(200)], 8))
        assert len(targets) >= 6  # nearly all tasks get traffic

    def test_global_always_zero(self):
        g = GlobalGrouping()
        assert g.choose([StreamTuple((1,), ("a",))], 5) == [0]
        assert g.choose([StreamTuple((1,), ("a",))] * 3, 5) == [0, 0, 0]


class TestTopologyBuilder:
    def _spout(self):
        return IteratorSpout(iter([]), ("v",))

    def _bolt(self):
        return FunctionBolt(lambda t: [(t["v"],)], ("v",))

    def test_minimal_topology(self):
        builder = TopologyBuilder("t")
        builder.set_spout("s", self._spout())
        builder.set_bolt("b", self._bolt(), ["s"])
        topo = builder.build()
        assert topo.order == ["s", "b"]
        assert topo.downstream_of("s")[0].target == "b"
        assert topo.downstream_of("s")[0].source == "s"

    def test_one_grouping_object_per_edge(self):
        builder = TopologyBuilder("t")
        builder.set_spout("s", self._spout())
        shared = ShuffleGrouping()
        builder.set_bolt("a", self._bolt(), [("s", shared)])
        with pytest.raises(TopologyError, match="'b' shares a grouping object"):
            builder.set_bolt("b", self._bolt(), [("s", shared)])
        fields = FieldsGrouping(["v"])
        with pytest.raises(TopologyError, match="'c' shares a grouping object"):
            builder.set_bolt("c", self._bolt(), [("s", fields), ("a", fields)])
        builder.set_bolt("b", self._bolt(), [("s", ShuffleGrouping()), "a"])  # nothing kept
        assert [(e.source, e.target) for e in builder.build().edges] == [
            ("s", "a"), ("s", "b"), ("a", "b"),
        ]

    def test_no_spout_rejected(self):
        builder = TopologyBuilder("t")
        with pytest.raises(TopologyError):
            builder.build()

    def test_duplicate_ids_rejected(self):
        builder = TopologyBuilder("t")
        builder.set_spout("x", self._spout())
        with pytest.raises(TopologyError):
            builder.set_bolt("x", self._bolt(), ["x"])

    def test_unknown_upstream_rejected(self):
        builder = TopologyBuilder("t")
        builder.set_spout("s", self._spout())
        builder.set_bolt("b", self._bolt(), ["ghost"])
        with pytest.raises(TopologyError):
            builder.build()

    def test_bolt_without_upstream_rejected(self):
        builder = TopologyBuilder("t")
        builder.set_spout("s", self._spout())
        with pytest.raises(TopologyError):
            builder.set_bolt("b", self._bolt(), [])

    def test_cycle_rejected(self):
        builder = TopologyBuilder("t")
        builder.set_spout("s", self._spout())
        builder.set_bolt("a", self._bolt(), ["s", "b"])
        builder.set_bolt("b", self._bolt(), ["a"])
        with pytest.raises(TopologyError):
            builder.build()

    def test_self_loop_rejected(self):
        builder = TopologyBuilder("t")
        builder.set_spout("s", self._spout())
        with pytest.raises(TopologyError):
            builder.set_bolt("b", self._bolt(), ["b"]).build()

    def test_diamond_topology_order(self):
        builder = TopologyBuilder("t")
        builder.set_spout("s", self._spout())
        builder.set_bolt("l", self._bolt(), ["s"])
        builder.set_bolt("r", self._bolt(), ["s"])
        builder.set_bolt("join", self._bolt(), ["l", "r"])
        topo = builder.build()
        assert topo.order.index("join") > topo.order.index("l")
        assert topo.order.index("join") > topo.order.index("r")

    def test_spout_type_checked(self):
        builder = TopologyBuilder("t")
        with pytest.raises(TopologyError):
            builder.set_spout("s", self._bolt())

    def test_parallelism_validated(self):
        builder = TopologyBuilder("t")
        with pytest.raises(TopologyError):
            builder.set_spout("s", self._spout(), parallelism=0)

    def test_string_upstream_gets_shuffle(self):
        builder = TopologyBuilder("t")
        builder.set_spout("s", self._spout())
        builder.set_bolt("b", self._bolt(), ["s"])
        topo = builder.build()
        assert isinstance(topo.edges[0].grouping, ShuffleGrouping)
