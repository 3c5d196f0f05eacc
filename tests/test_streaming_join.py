"""Unit and integration tests for the incremental join operator."""

import random

import pytest

from repro.dht.overlay import Overlay
from repro.errors import StreamRuntimeError
from repro.recovery.manager import RecoveryManager
from repro.recovery.model import RecoveryContext
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.streaming.backend import SR3StateBackend
from repro.streaming.cluster import LocalCluster
from repro.streaming.component import IteratorSpout, OutputCollector, TaskContext
from repro.streaming.groupings import FieldsGrouping
from repro.streaming.join import IncrementalJoinBolt
from repro.streaming.topology import TopologyBuilder
from repro.streaming.tuples import StreamTuple


def make_join(**kwargs):
    defaults = dict(
        key_field="user",
        left_source="clicks",
        right_source="buys",
        left_fields=("clicked",),
        right_fields=("bought",),
    )
    defaults.update(kwargs)
    bolt = IncrementalJoinBolt(**defaults)
    bolt.prepare(TaskContext("join", 0, 1))
    return bolt


def feed(bolt, source, values, fields):
    collector = OutputCollector("join", bolt.declare_output_fields())
    t = StreamTuple(values, fields, source=source)
    bolt.execute(t, collector)
    return collector.drain()


class TestJoinSemantics:
    def test_match_emitted_on_second_side(self):
        bolt = make_join()
        assert feed(bolt, "clicks", ("u1", "page-a"), ("user", "clicked")) == []
        out = feed(bolt, "buys", ("u1", "item-x"), ("user", "bought"))
        assert len(out) == 1
        assert dict(zip(out[0].fields, out[0].values)) == {
            "user": "u1", "clicked": "page-a", "bought": "item-x"
        }

    def test_no_cross_key_matches(self):
        bolt = make_join()
        feed(bolt, "clicks", ("u1", "page-a"), ("user", "clicked"))
        assert feed(bolt, "buys", ("u2", "item-x"), ("user", "bought")) == []

    def test_joins_against_all_buffered_rows(self):
        bolt = make_join()
        feed(bolt, "clicks", ("u1", "page-a"), ("user", "clicked"))
        feed(bolt, "clicks", ("u1", "page-b"), ("user", "clicked"))
        out = feed(bolt, "buys", ("u1", "item-x"), ("user", "bought"))
        assert {t["clicked"] for t in out} == {"page-a", "page-b"}

    def test_symmetric(self):
        bolt = make_join()
        feed(bolt, "buys", ("u1", "item-x"), ("user", "bought"))
        out = feed(bolt, "clicks", ("u1", "page-a"), ("user", "clicked"))
        assert len(out) == 1
        assert out[0]["bought"] == "item-x"

    def test_buffer_bound_evicts_oldest(self):
        bolt = make_join(max_rows_per_key=2)
        for page in ("a", "b", "c"):
            feed(bolt, "clicks", ("u1", page), ("user", "clicked"))
        assert bolt.state.get(("left", "u1")) == (("b",), ("c",))
        out = feed(bolt, "buys", ("u1", "item"), ("user", "bought"))
        assert {t["clicked"] for t in out} == {"b", "c"}

    def test_unknown_source_rejected(self):
        bolt = make_join()
        with pytest.raises(StreamRuntimeError):
            feed(bolt, "ghost", ("u1", "x"), ("user", "clicked"))

    def test_same_sides_rejected(self):
        with pytest.raises(StreamRuntimeError):
            IncrementalJoinBolt("k", "a", "a", ("x",), ("y",))

    def test_bad_buffer_bound(self):
        with pytest.raises(StreamRuntimeError):
            make_join(max_rows_per_key=0)


def join_topology(clicks, buys):
    builder = TopologyBuilder("click-buy-join")
    builder.set_spout("clicks", IteratorSpout(iter(clicks), ["user", "clicked"]))
    builder.set_spout("buys", IteratorSpout(iter(buys), ["user", "bought"]))
    builder.set_bolt(
        "join",
        IncrementalJoinBolt(
            "user", "clicks", "buys", ("clicked",), ("bought",)
        ),
        [
            ("clicks", FieldsGrouping(["user"])),
            ("buys", FieldsGrouping(["user"])),
        ],
    )
    return builder.build()


class TestJoinInTopology:
    CLICKS = [("u1", "a"), ("u2", "b"), ("u1", "c")]
    BUYS = [("u1", "x"), ("u3", "y"), ("u2", "z")]

    def expected_matches(self):
        return {("u1", "a", "x"), ("u1", "c", "x"), ("u2", "b", "z")}

    def test_end_to_end_join(self):
        cluster = LocalCluster(join_topology(self.CLICKS, self.BUYS))
        cluster.run()
        got = {
            (t["user"], t["clicked"], t["bought"]) for t in cluster.outputs["join"]
        }
        assert got == self.expected_matches()

    def test_join_state_survives_sr3_recovery(self):
        sim = Simulator()
        net = Network(sim)
        overlay = Overlay(sim, net, rng=random.Random(4))
        overlay.build(64)
        backend = SR3StateBackend(
            RecoveryManager(RecoveryContext(sim, net, overlay)), num_shards=2
        )
        cluster = LocalCluster(
            join_topology(self.CLICKS, self.BUYS), backend=backend
        )
        cluster.protect_stateful_tasks()
        # Interleave: process part of both streams, checkpoint, crash.
        cluster.run(max_emissions=3)
        cluster.checkpoint()
        cluster.kill_task("join")
        cluster.recover_task("join")
        cluster.run()
        got = {
            (t["user"], t["clicked"], t["bought"]) for t in cluster.outputs["join"]
        }
        assert got == self.expected_matches()
