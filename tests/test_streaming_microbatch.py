"""Tests for the synchronous micro-batch engine (Spark-style model)."""

import random
from collections import Counter

import pytest

from repro.dht.overlay import Overlay
from repro.errors import StreamRuntimeError
from repro.recovery.manager import RecoveryManager
from repro.recovery.model import RecoveryContext
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.state.partitioner import merge_shards, partition_snapshot
from repro.streaming.microbatch import MicroBatchEngine, MicroBatchJob

SENTENCES = ["a b a", "c a b", "b b c", "a c c"] * 10


def wordcount_job(batch_size=4):
    job = MicroBatchJob("wc", batch_size=batch_size)
    (
        job.source(SENTENCES)
        .flat_map(str.split)
        .map(lambda w: (w, 1))
        .update_state_by_key("counts", lambda old, vals: (old or 0) + sum(vals))
    )
    return job


class TestJobConstruction:
    def test_batching(self):
        job = MicroBatchJob("j", batch_size=3)
        job.source(range(8))
        assert job.num_batches() == 3
        assert job.batch(0) == [0, 1, 2]
        assert job.batch(2) == [6, 7]

    def test_batch_bounds(self):
        job = MicroBatchJob("j", batch_size=3)
        job.source(range(3))
        with pytest.raises(StreamRuntimeError):
            job.batch(1)

    def test_single_source(self):
        job = MicroBatchJob("j", batch_size=1)
        job.source([1])
        with pytest.raises(StreamRuntimeError):
            job.source([2])

    def test_invalid_batch_size(self):
        with pytest.raises(StreamRuntimeError):
            MicroBatchJob("j", batch_size=0)

    def test_duplicate_state_name(self):
        job = MicroBatchJob("j", batch_size=1)
        stream = job.source([("a", 1)])
        stream.update_state_by_key("s", lambda o, v: v)
        with pytest.raises(StreamRuntimeError):
            stream.update_state_by_key("s", lambda o, v: v)


class TestTransformations:
    def run_job(self, build):
        job = MicroBatchJob("j", batch_size=100)
        build(job)
        engine = MicroBatchEngine(job)
        engine.run()
        return engine

    def test_map_filter(self):
        engine = self.run_job(
            lambda job: job.source(range(10))
            .map(lambda x: x * 2)
            .flat_map(lambda x: [x] if x > 10 else [])
        )
        assert engine.outputs[0] == [12, 14, 16, 18]

    def test_flat_map(self):
        engine = self.run_job(lambda job: job.source(["x y", "z"]).flat_map(str.split))
        assert engine.outputs[0] == ["x", "y", "z"]

    def test_update_state_by_key_type_check(self):
        job = MicroBatchJob("j", batch_size=2)
        job.source([1, 2]).update_state_by_key("s", lambda old, values: sum(values))
        with pytest.raises(StreamRuntimeError):
            MicroBatchEngine(job).run()


class TestStatefulProcessing:
    def test_wordcount_state_accumulates(self):
        engine = MicroBatchEngine(wordcount_job())
        engine.run()
        expected = Counter(w for s in SENTENCES for w in s.split())
        assert dict(engine.state_store("counts").items()) == dict(expected)

    def test_partial_run_partial_state(self):
        engine = MicroBatchEngine(wordcount_job(batch_size=4))
        engine.run(max_batches=5)
        expected = Counter(w for s in SENTENCES[:20] for w in s.split())
        assert dict(engine.state_store("counts").items()) == dict(expected)
        assert engine.batches_processed == 5

    def test_run_past_end_rejected(self):
        engine = MicroBatchEngine(wordcount_job())
        engine.run()
        with pytest.raises(StreamRuntimeError):
            engine.run_batch()

    def test_unknown_state_rejected(self):
        engine = MicroBatchEngine(wordcount_job())
        with pytest.raises(StreamRuntimeError):
            engine.state_store("ghost")


class TestLineageRecomputation:
    def test_recompute_matches_original(self):
        engine = MicroBatchEngine(wordcount_job())
        engine.run(max_batches=6)
        replica = engine.recompute_from_lineage()
        assert dict(replica.state_store("counts").items()) == dict(
            engine.state_store("counts").items()
        )

    def test_recompute_cost_grows_with_lineage(self):
        engine = MicroBatchEngine(wordcount_job())
        engine.run(max_batches=2)
        short = engine.recompute_from_lineage()
        engine.run()
        full = engine.recompute_from_lineage()
        assert full.batches_processed > short.batches_processed == 2


class TestSR3Protection:
    def test_microbatch_state_recovers_through_sr3(self):
        """The micro-batch model's state rides the same SR3 machinery."""
        sim = Simulator()
        net = Network(sim)
        overlay = Overlay(sim, net, rng=random.Random(6))
        overlay.build(64)
        manager = RecoveryManager(RecoveryContext(sim, net, overlay))

        engine = MicroBatchEngine(wordcount_job())
        engine.run(max_batches=6)
        store = engine.state_store("counts")
        snapshot = store.snapshot(sim.now)
        shards = partition_snapshot(snapshot, 4)
        owner = overlay.nodes[0]
        manager.register(owner, shards, 2)
        manager.save(store.name)
        sim.run_until_idle()

        # The driver node dies; state comes back from the overlay, not by
        # replaying the lineage.
        overlay.fail_node(owner)
        handle = manager.recover(store.name)
        manager.run([handle])
        plan = manager.states[store.name].plan
        recovered = merge_shards(plan.available_shards())

        fresh = MicroBatchEngine(wordcount_job())
        from repro.state.store import StateStore

        new_store = StateStore(store.name)
        new_store.restore(recovered)
        fresh.attach_state("counts", new_store)
        fresh.batches_processed = 6
        fresh.run()
        expected = Counter(w for s in SENTENCES for w in s.split())
        assert dict(fresh.state_store("counts").items()) == dict(expected)
