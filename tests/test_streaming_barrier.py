"""The pull path's barrier and rewind: a kill between two checkpoints.

``LocalCluster.run(checkpoint_every=...)`` takes barriers; a task killed
after the last one is recovered through SR3 by ``recover_task``, which
restores the whole topology to that barrier (survivors rolled back,
shuffle positions reset, spouts rewound), and the rest of ``run()``
replays the gap. Every store must then equal a failure-free run's, and so
must every shipped application's outputs. Two mutants of the protocol must
fail the same check.
"""

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
from repro.streaming.groupings import ShuffleGrouping
from repro.streaming.stateful import CountingBolt
from repro.streaming.topology import TopologyBuilder
from repro.workloads.wordcount import (
    SentenceGenerator,
    SentenceSpout,
    build_wordcount_topology,
)
from tests.test_streaming_tuple_path_oracle import APPLICATIONS

WORDS = [(f"w{(i * 7) % 23}",) for i in range(300)]


def wordcount():
    return build_wordcount_topology(num_sentences=400, seed=0, count_parallelism=4)


def shuffled_counts(records=WORDS):
    """words -> round-robin -> a two-task counter: placement rides on position."""
    builder = TopologyBuilder("shuffled-counts")
    builder.set_spout("words", IteratorSpout(records, ["word"]))
    builder.set_bolt(
        "count", CountingBolt("word"), [("words", ShuffleGrouping())], parallelism=2
    )
    return builder.build()


TOPOLOGIES = {"wordcount": wordcount, "shuffled-counts": shuffled_counts}


def backed_cluster(topology, seed=0):
    sim = Simulator()
    network = Network(sim)
    overlay = Overlay(sim, network, rng=random.Random(seed))
    overlay.build(16)
    backend = SR3StateBackend(
        RecoveryManager(RecoveryContext(sim, network, overlay)), num_shards=2
    )
    cluster = LocalCluster(topology, backend=backend)
    cluster.protect_stateful_tasks()
    return cluster


def stores(cluster):
    return {
        key: dict(bolt.state.items())
        for key, bolt in sorted(cluster.stateful_tasks().items())
    }


def kill_between_barriers(build, emitted=250, every=100):
    """Stores after a kill of count[0] past the last barrier, recovery and the rest."""
    cluster = backed_cluster(build())
    cluster.run(max_emissions=emitted, checkpoint_every=every)
    cluster.kill_task("count", 0)
    cluster.recover_task("count", 0)
    cluster.run()
    return stores(cluster)


def failure_free(build):
    cluster = LocalCluster(build())
    cluster.run()
    return stores(cluster)


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_recovered_run_equals_failure_free_run(name):
    build = TOPOLOGIES[name]
    assert kill_between_barriers(build) == failure_free(build)


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_kill_right_on_a_barrier_replays_nothing(name):
    build = TOPOLOGIES[name]
    assert kill_between_barriers(build, emitted=200) == failure_free(build)


def sinks(cluster):
    return {cid: [(t.values, t.timestamp) for t in sink] for cid, sink in cluster.outputs.items()}


@pytest.mark.parametrize("name", sorted(APPLICATIONS))
def test_recovered_outputs_equal_the_failure_free_outputs(name):
    """What the sinks held at the last barrier, then what came after the
    restore, is the failure-free output: state kept outside the store
    would make a restored task emit differently."""
    cluster = backed_cluster(APPLICATIONS[name](0))
    at_barrier = []
    checkpoint = cluster.checkpoint

    def record_on_landing(incremental=True):
        checkpoint(incremental)
        at_barrier.append({cid: len(sink) for cid, sink in cluster.outputs.items()})

    cluster.checkpoint = record_on_landing
    cluster.run(max_emissions=250, checkpoint_every=100)
    cid, index = min(cluster.stateful_tasks())
    cluster.kill_task(cid, index)
    cluster.recover_task(cid, index)
    at_restore = {cid: len(sink) for cid, sink in cluster.outputs.items()}
    cluster.run()
    recovered = {
        cid: sink[: at_barrier[-1][cid]] + sink[at_restore[cid]:]
        for cid, sink in sinks(cluster).items()
    }
    reference = LocalCluster(APPLICATIONS[name](0))
    reference.run()
    assert len(at_barrier) == 2
    assert recovered == sinks(reference)
    assert cluster.state_checksums() == reference.state_checksums()


def test_restore_resets_the_shuffle_position():
    cluster = backed_cluster(shuffled_counts())
    cluster.run(max_emissions=101, checkpoint_every=100)
    (grouping,) = cluster._shuffles
    assert cluster.barrier.positions == [(grouping, 100)]
    cluster.kill_task("count", 1)
    cluster.recover_task("count", 1)
    assert grouping.position == 100


def recoveries(cluster):
    return cluster.backend.sim.metrics.counter("streaming.tasks_recovered").total


def test_no_landed_barrier_is_a_typed_error_not_a_hang():
    never_saved = backed_cluster(wordcount())
    never_saved.run(max_emissions=50)
    # Saved, but by the backend alone: a round is not a barrier.
    saved = backed_cluster(wordcount())
    saved.run(max_emissions=50)
    saved.backend.save_all()
    saved.backend.sim.run_until_idle()
    for cluster in (never_saved, saved):
        cluster.kill_task("count", 0)
        with pytest.raises(StreamRuntimeError, match="no checkpoint barrier has landed"):
            cluster.recover_task("count", 0)
        assert cluster.backend.sim.pending == 0
        assert cluster.task("count", 0) is None
        assert recoveries(cluster) == 0


def test_a_one_shot_spout_refuses_to_rewind():
    cluster = backed_cluster(shuffled_counts(iter(WORDS)))
    cluster.run(max_emissions=150, checkpoint_every=100)
    cluster.kill_task("count", 0)
    survivor = stores(cluster)[("count", 1)]
    (grouping,) = cluster._shuffles
    now = cluster.backend.sim.now
    with pytest.raises(StreamRuntimeError, match="cannot rewind"):
        cluster.recover_task("count", 0)
    # Refused before anything moved: no recovery ran, the dead task stays
    # dead, and the survivor and the shuffle position are where they were.
    assert recoveries(cluster) == 0
    assert cluster.backend.sim.now == now
    assert cluster.task("count", 0) is None
    assert stores(cluster)[("count", 1)] == survivor
    assert grouping.position == 150


def test_a_one_shot_spout_on_its_barrier_needs_no_rewind():
    cluster = backed_cluster(shuffled_counts(iter(WORDS)))
    cluster.run(max_emissions=100, checkpoint_every=100)
    cluster.kill_task("count", 0)
    cluster.recover_task("count", 0)
    cluster.run()
    assert stores(cluster) == failure_free(shuffled_counts)


def test_a_reprepared_sentence_spout_restamps_from_zero():
    spout = SentenceSpout(SentenceGenerator(5, seed=0))
    collector = OutputCollector("sentences", ("sentence",))
    context = TaskContext("sentences", 0, 1)
    spout.prepare(context)
    for _ in range(3):
        spout.next_tuple(collector)
    first = collector.drain()
    spout.prepare(context)
    spout.next_tuple(collector)
    (again,) = collector.drain()
    assert (again.values, again.timestamp) == (first[0].values, 0.0)


# ---------------------------------------------------------------- the mutants


def rewind_one_record_short(monkeypatch):
    real = LocalCluster._rewind
    monkeypatch.setattr(
        LocalCluster, "_rewind", lambda cluster, key, offset: real(cluster, key, offset - 1)
    )


def leave_one_survivor_alone(monkeypatch):
    real = SR3StateBackend.rollback_task

    def rollback(backend, task_id, snapshot):
        if task_id == "count[1]":
            return backend.protected_tasks()[task_id].store
        return real(backend, task_id, snapshot)

    monkeypatch.setattr(SR3StateBackend, "rollback_task", rollback)


@pytest.mark.parametrize("mutant", [rewind_one_record_short, leave_one_survivor_alone])
@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_a_broken_protocol_is_caught(monkeypatch, mutant, name):
    build = TOPOLOGIES[name]
    expected = failure_free(build)
    mutant(monkeypatch)
    assert kill_between_barriers(build) != expected
