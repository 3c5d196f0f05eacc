"""Integration tests for the local cluster executor and SR3 backend."""

import random
from collections import Counter

import pytest

from repro.dht.overlay import Overlay
from repro.errors import (
    RecoveryError,
    SaveAbortedError,
    StateError,
    StreamRuntimeError,
    TopologyError,
)
from repro.recovery.manager import RecoveryManager
from repro.recovery.model import RecoveryContext
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.streaming.backend import SR3StateBackend
from repro.streaming.cluster import LocalCluster
from repro.streaming.component import IteratorSpout
from repro.streaming.groupings import FieldsGrouping, GlobalGrouping, ShuffleGrouping
from repro.streaming.stateful import CountingBolt
from repro.streaming.topology import TopologyBuilder
from tests.streaming_helpers import FunctionBolt

WORDS = ["apple", "pear", "apple", "plum", "apple", "pear", "fig"] * 30


def wordcount_topology(parallelism=2):
    builder = TopologyBuilder("wc")
    builder.set_spout("source", IteratorSpout(((w,) for w in WORDS), ["word"]))
    builder.set_bolt(
        "count",
        CountingBolt("word"),
        [("source", FieldsGrouping(["word"]))],
        parallelism=parallelism,
    )
    return builder.build()


def sr3_backend(seed=0, num_nodes=64):
    sim = Simulator()
    net = Network(sim)
    overlay = Overlay(sim, net, rng=random.Random(seed))
    overlay.build(num_nodes)
    manager = RecoveryManager(RecoveryContext(sim, net, overlay))
    return SR3StateBackend(manager, num_shards=4, num_replicas=2)


class TestExecution:
    def test_counts_match_ground_truth(self):
        cluster = LocalCluster(wordcount_topology())
        cluster.run()
        merged = {}
        for bolt in cluster.stateful_tasks().values():
            merged.update(dict(bolt.state.items()))
        assert merged == dict(Counter(WORDS))

    def test_fields_grouping_partitions_keys(self):
        cluster = LocalCluster(wordcount_topology(parallelism=3))
        cluster.run()
        seen = {}
        for (component, index), bolt in cluster.stateful_tasks().items():
            for word in dict(bolt.state.items()):
                assert word not in seen, "key on two tasks"
                seen[word] = index
        assert set(seen) == set(WORDS)

    def test_outputs_captured_for_terminal_components(self):
        cluster = LocalCluster(wordcount_topology())
        cluster.run()
        assert len(cluster.outputs["count"]) == len(WORDS)

    def test_max_emissions_cap(self):
        cluster = LocalCluster(wordcount_topology())
        emitted = cluster.run(max_emissions=10)
        assert emitted == 10

    def test_executed_counts(self):
        cluster = LocalCluster(wordcount_topology())
        cluster.run()
        assert cluster.executed_counts["count"] == len(WORDS)

    def test_multi_stage_pipeline(self):
        builder = TopologyBuilder("pipeline")
        builder.set_spout("nums", IteratorSpout(((i,) for i in range(10)), ["n"]))
        builder.set_bolt("double", FunctionBolt(lambda t: [(t["n"] * 2,)], ["n"]), ["nums"])
        builder.set_bolt(
            "evens_only",
            FunctionBolt(lambda t: [(t["n"],)] if t["n"] % 4 == 0 else [], ["n"]),
            ["double"],
        )
        cluster = LocalCluster(builder.build())
        cluster.run()
        values = [t["n"] for t in cluster.outputs["evens_only"]]
        assert values == [0, 4, 8, 12, 16]

    def test_unknown_task_lookup(self):
        cluster = LocalCluster(wordcount_topology())
        with pytest.raises(TopologyError):
            cluster.task("ghost")


class TestFailureWithoutBackend:
    def test_killed_task_rejects_tuples(self):
        cluster = LocalCluster(wordcount_topology(parallelism=1))
        cluster.kill_task("count", 0)
        with pytest.raises(StreamRuntimeError):
            cluster.run()

    def test_stateless_restart_loses_state(self):
        cluster = LocalCluster(wordcount_topology(parallelism=1))
        cluster.run(max_emissions=50)
        cluster.kill_task("count", 0)
        cluster.recover_task("count", 0)
        assert len(cluster.task("count", 0).state) == 0

    def test_recover_alive_task_rejected(self):
        cluster = LocalCluster(wordcount_topology())
        with pytest.raises(StreamRuntimeError):
            cluster.recover_task("count", 0)

    def test_kill_unknown_task_rejected(self):
        cluster = LocalCluster(wordcount_topology())
        with pytest.raises(TopologyError):
            cluster.kill_task("ghost", 0)


class TestSR3Integration:
    def test_state_recovered_exactly(self):
        backend = sr3_backend()
        cluster = LocalCluster(wordcount_topology(), backend=backend)
        cluster.protect_stateful_tasks()
        cluster.run()
        expected = {
            key: dict(bolt.state.items())
            for key, bolt in cluster.stateful_tasks().items()
        }
        cluster.checkpoint()
        cluster.kill_task("count", 0)
        cluster.kill_task("count", 1)
        cluster.recover_task("count", 0)
        cluster.recover_task("count", 1)
        for key, bolt in cluster.stateful_tasks().items():
            assert dict(bolt.state.items()) == expected[key]

    def test_recovered_store_is_rebuilt_once(self, monkeypatch):
        backend = sr3_backend()
        cluster = LocalCluster(wordcount_topology(), backend=backend)
        cluster.protect_stateful_tasks()
        cluster.run()
        cluster.checkpoint()
        calls = []
        real = RecoveryManager.recovered_snapshot

        def counted(manager, state_name):
            calls.append(state_name)
            return real(manager, state_name)

        monkeypatch.setattr(RecoveryManager, "recovered_snapshot", counted)
        cluster.kill_task("count", 1)
        cluster.recover_task("count", 1)
        assert calls == ["count[1]/state"]

    def test_processing_resumes_after_recovery(self):
        backend = sr3_backend(seed=1)
        builder = TopologyBuilder("wc")
        first, second = WORDS[:100], WORDS[100:]
        builder.set_spout(
            "source", IteratorSpout(((w,) for w in first + second), ["word"])
        )
        builder.set_bolt(
            "count", CountingBolt("word"), [("source", GlobalGrouping())]
        )
        cluster = LocalCluster(builder.build(), backend=backend)
        cluster.protect_stateful_tasks()
        cluster.run(max_emissions=100)
        cluster.checkpoint()
        cluster.kill_task("count", 0)
        cluster.recover_task("count", 0)
        cluster.run()
        assert dict(cluster.task("count", 0).state.items()) == dict(Counter(WORDS))

    def test_checkpoint_raises_a_failed_save(self):
        backend = sr3_backend()
        cluster = LocalCluster(wordcount_topology(), backend=backend)
        cluster.protect_stateful_tasks()
        cluster.run()
        owners = {task.node.node_id for task in backend.protected_tasks().values()}
        overlay = backend.manager.ctx.overlay

        def kill_every_target():
            for node in overlay.alive_nodes():
                if node.node_id not in owners:
                    overlay.fail_node(node)

        # Each round's first write has landed; its ack is still running.
        backend.sim.schedule(0.2, kill_every_target)
        with pytest.raises(SaveAbortedError, match="the write of replica"):
            cluster.checkpoint()
        assert backend.sim.pending == 0

    def test_unprotected_checkpoint_rejected(self):
        cluster = LocalCluster(wordcount_topology())
        with pytest.raises(StreamRuntimeError):
            cluster.checkpoint()
        with pytest.raises(StreamRuntimeError):
            cluster.protect_stateful_tasks()

    def test_backend_refreshes_on_resave(self):
        backend = sr3_backend(seed=2)
        cluster = LocalCluster(wordcount_topology(parallelism=1), backend=backend)
        cluster.protect_stateful_tasks()
        cluster.run(max_emissions=30)
        cluster.checkpoint()
        cluster.run()
        cluster.checkpoint()  # second round refreshes shards
        cluster.kill_task("count", 0)
        cluster.recover_task("count", 0)
        assert dict(cluster.task("count", 0).state.items()) == dict(Counter(WORDS))


class TestBackendUnit:
    def test_protect_duplicate_rejected(self):
        backend = sr3_backend()
        from repro.state.store import StateStore

        store = StateStore("t/state")
        node = backend.manager.ctx.overlay.nodes[0]
        backend.protect("t", store, node)
        with pytest.raises(StateError):
            backend.protect("t", store, node)

    def test_recover_unsaved_rejected(self):
        backend = sr3_backend()
        from repro.state.store import StateStore

        store = StateStore("t/state")
        backend.protect("t", store, backend.manager.ctx.overlay.nodes[0])
        with pytest.raises(RecoveryError):
            backend.recover_task("t")

    def test_unknown_task_rejected(self):
        backend = sr3_backend()
        with pytest.raises(StateError):
            backend.save_task("ghost")

    def test_invalid_config(self):
        backend = sr3_backend()
        with pytest.raises(StateError):
            SR3StateBackend(backend.manager, num_shards=0)

    def test_recovery_onto_replacement_after_node_failure(self):
        backend = sr3_backend(seed=3)
        from repro.state.store import StateStore

        overlay = backend.manager.ctx.overlay
        store = StateStore("t/state")
        for i in range(100):
            store.put(f"k{i}", i)
        node = overlay.nodes[0]
        backend.protect("t", store, node)
        backend.save_task("t")
        backend.sim.run_until_idle()
        overlay.fail_node(node)
        result = backend.recover_task("t")
        recovered = backend.rebuild_store("t")
        assert dict(recovered.items()) == {f"k{i}": i for i in range(100)}
        assert result.duration > 0


DIAMOND_RECORDS = [("a", 1), ("b", 2), ("a", 3), ("c", 4), ("b", 5)]


def diamond_topology():
    """source -> {left x2 (shuffle), right (fields)} -> merge x2 -> {tee x2, last (global)}.

    Every edge without a grouping named shuffles."""
    builder = TopologyBuilder("diamond")
    builder.set_spout("source", IteratorSpout(iter(DIAMOND_RECORDS), ["key", "n"]))
    builder.set_bolt(
        "left",
        FunctionBolt(lambda t: [(t["key"], t["n"]), (t["key"], t["n"] * 10)], ["key", "n"]),
        ["source"],
        parallelism=2,
    )
    builder.set_bolt(
        "right",
        FunctionBolt(lambda t: [(t["key"].upper(), -t["n"])], ["key", "n"]),
        [("source", FieldsGrouping(["key"]))],
    )
    builder.set_bolt(
        "merge",
        CountingBolt("key"),
        [("left", FieldsGrouping(["key"])), ("right", GlobalGrouping())],
        parallelism=2,
    )
    passthrough = FunctionBolt(lambda t: [(t["key"], t["count"])], ["key", "count"])
    builder.set_bolt("tee", passthrough, [("merge", ShuffleGrouping())], parallelism=2)
    builder.set_bolt("last", passthrough, [("merge", GlobalGrouping())])
    return builder.build()


class TestEngineRegression:
    """Delivery order and counts pinned to the values of the pre-route-table engine."""

    # Per source record: left's two emissions reach merge before right's one
    # (breadth-first), and every merge emission reaches one tee task and last.
    PINNED_LAST = [
        ("a", 1), ("a", 2), ("A", 1),
        ("b", 1), ("b", 2), ("B", 1),
        ("a", 3), ("a", 4), ("A", 2),
        ("c", 1), ("c", 2), ("C", 1),
        ("b", 3), ("b", 4), ("B", 2),
    ]

    def test_diamond_fanout_order_and_counts(self):
        cluster = LocalCluster(diamond_topology())
        assert cluster.run() == 5
        last = [t.values for t in cluster.outputs["last"]]
        tee = [t.values for t in cluster.outputs["tee"]]
        assert last == self.PINNED_LAST
        assert tee == self.PINNED_LAST
        assert set(cluster.outputs) == {"tee", "last"}
        assert cluster.executed_counts == {
            "source": 6, "left": 5, "right": 5, "merge": 15, "tee": 15, "last": 15,
        }  # the spout's sixth, exhausted invocation counts too
        assert [t.source for t in cluster.outputs["last"]] == ["last"] * 15
        assert [t.timestamp for t in cluster.outputs["last"]] == [None] * 15

    def test_inject_matches_pull_and_checks_the_source(self):
        pulled = LocalCluster(diamond_topology())
        pulled.run()
        pushed = LocalCluster(diamond_topology())
        for record in DIAMOND_RECORDS:
            pushed.inject("source", record)

        def captured(cluster):
            return {
                name: [(t.fields, t.values, t.source) for t in tuples]
                for name, tuples in cluster.outputs.items()
            }

        assert captured(pushed) == captured(pulled)
        assert pushed.executed_counts == {**pulled.executed_counts, "source": 5}
        with pytest.raises(TopologyError):
            pushed.inject("ghost", ("a", 1))
        with pytest.raises(TopologyError):
            pushed.inject("source", ("a",))  # arity of the declared fields

    def test_route_to_killed_task_raises(self):
        cluster = LocalCluster(diamond_topology())
        cluster.kill_task("merge", 1)
        with pytest.raises(StreamRuntimeError, match=r"dead task merge\[1\]"):
            cluster.run()

    def test_clusters_from_one_topology_are_independent(self):
        topology = diamond_topology()
        first = LocalCluster(topology)
        second = LocalCluster(topology)
        first.inject("source", ("a", 1))
        assert sum(second.executed_counts.values()) == 0
        assert second.outputs == {"tee": [], "last": []}
        assert first.task("left", 0) is not second.task("left", 0)
        assert first.task("merge", 0).state is not second.task("merge", 0).state
        first.kill_task("left", 0)
        second.inject("source", ("a", 1))  # second's left[0] is still alive
        assert len(second.outputs["last"]) == 3

    def test_uncaptured_cluster_counts_but_keeps_nothing(self):
        cluster = LocalCluster(diamond_topology(), capture_outputs=False)
        cluster.run()
        assert cluster.outputs == {}
        assert cluster.executed_counts["tee"] == 15

    def test_uncaptured_terminal_bolt_still_checks_arity(self):
        builder = TopologyBuilder("bad-arity")
        builder.set_spout("s", IteratorSpout(iter([(1,)]), ["n"]))
        builder.set_bolt("b", FunctionBolt(lambda t: [(1, 2)], ["n"]), ["s"])
        with pytest.raises(TopologyError, match="2 values but 1 declared"):
            LocalCluster(builder.build(), capture_outputs=False).run()

    def test_uncaptured_lone_spout_still_reports_its_emissions(self):
        builder = TopologyBuilder("solo")
        builder.set_spout("s", IteratorSpout(iter([(1,), (2,)]), ["n"]))
        assert LocalCluster(builder.build(), capture_outputs=False).run() == 2

    def test_a_spout_s_emissions_route_one_subtree_at_a_time(self):
        """Three emissions a spout call: each one's subtree is delivered before
        the next emission starts, and a two-tuple list goes tuple by tuple,
        each tuple over both of fan's routes (left, then right)."""
        builder = TopologyBuilder("three-a-call")
        builder.set_spout("spout", ThreeACall([(n,) for n in range(1, 7)]))
        builder.set_bolt("fan", FunctionBolt(lambda t: [(10 * t["n"] + 1,), (10 * t["n"] + 2,)],
                                             ["n"]), ["spout"])
        for side in ("left", "right"):
            builder.set_bolt(side, FunctionBolt(lambda t: [(t["n"],)], ["n"]), ["fan"])
        builder.set_bolt(
            "log", FunctionBolt(lambda t: [(t.source, t["n"])], ["from", "n"]),
            ["spout", ("left", GlobalGrouping()), ("right", GlobalGrouping())],
        )
        cluster = LocalCluster(builder.build())
        assert cluster.run() == 2
        assert [t.values for t in cluster.outputs["log"]] == [
            entry for n in range(1, 7) for entry in (
                ("spout", n),
                ("left", 10 * n + 1), ("right", 10 * n + 1),
                ("left", 10 * n + 2), ("right", 10 * n + 2),
            )
        ]
        assert cluster.executed_counts == {
            "spout": 2, "fan": 6, "left": 12, "right": 12, "log": 30,
        }


class ThreeACall(IteratorSpout):
    """Emits up to three records a ``next_tuple`` call, through ``emit_all``."""

    def __init__(self, records):
        super().__init__(records, ["n"])

    def next_tuple(self, collector):
        batch = self._source[self._position:self._position + 3]
        self._position += len(batch)
        collector.emit_all(batch, None)
        return self._position < len(self._source)
