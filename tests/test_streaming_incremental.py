"""Incremental checkpointing through the streaming backend.

End-to-end over a real word-count topology: the first save round ships a
full base, later rounds ship only the dirtied keys as delta shards, and a
killed task recovers byte-identical state by replaying its version chain.
"""

import random

from repro.dht.overlay import Overlay
from repro.recovery.manager import RecoveryManager
from repro.recovery.model import RecoveryContext
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.streaming.backend import SR3StateBackend
from repro.streaming.cluster import LocalCluster
from repro.workloads.wordcount import build_wordcount_topology


def wordcount_cluster(seed=0, num_sentences=600):
    sim = Simulator()
    network = Network(sim)
    overlay = Overlay(sim, network, rng=random.Random(seed))
    overlay.build(32)
    manager = RecoveryManager(RecoveryContext(sim, network, overlay))
    backend = SR3StateBackend(manager, num_shards=4, num_replicas=2)
    cluster = LocalCluster(
        build_wordcount_topology(num_sentences=num_sentences, seed=seed),
        backend=backend,
    )
    cluster.protect_stateful_tasks()
    return cluster, backend


def settled(backend, handles):
    backend.sim.run_until_idle()
    return [handle.result for handle in handles]


class TestIncrementalSaveRounds:
    def test_first_round_full_then_deltas(self):
        cluster, backend = wordcount_cluster()
        cluster.run(max_emissions=400)
        first = settled(backend, backend.save_all())
        assert first and all(r.mode == "full" for r in first)
        cluster.run(max_emissions=20)
        second = settled(backend, backend.save_all())
        assert all(r.mode == "delta" for r in second)
        assert all(r.chain_len == 2 for r in second)

    def test_delta_rounds_ship_fewer_bytes(self):
        cluster, backend = wordcount_cluster()
        cluster.run(max_emissions=200)
        first = settled(backend, backend.save_all())
        cluster.run(max_emissions=20)
        second = settled(backend, backend.save_all())
        assert sum(r.bytes_transferred for r in second) < sum(
            r.bytes_transferred for r in first
        )

    def test_incremental_false_forces_full_rounds(self):
        cluster, backend = wordcount_cluster()
        cluster.run(max_emissions=200)
        settled(backend, backend.save_all(incremental=False))
        cluster.run(max_emissions=50)
        rounds = settled(backend, backend.save_all(incremental=False))
        assert all(r.mode == "full" for r in rounds)
        assert all(r.chain_len == 1 for r in rounds)

    def test_quiet_task_still_extends_its_chain(self):
        # A task with no dirtied keys between rounds ships header-only
        # deltas rather than rewriting its base.
        cluster, backend = wordcount_cluster()
        cluster.run(max_emissions=200)
        settled(backend, backend.save_all())
        rounds = settled(backend, backend.save_all())
        assert all(r.mode == "delta" for r in rounds)
        assert all(r.delta_bytes < 1024 for r in rounds)


class TestChainRecovery:
    def test_killed_task_recovers_chain_replayed_state(self):
        cluster, backend = wordcount_cluster()
        cluster.run(max_emissions=400)
        cluster.checkpoint()
        cluster.run(max_emissions=20)
        cluster.checkpoint()
        manager = backend.manager
        assert any(
            r.plan is not None and r.plan.length >= 2
            for r in manager.states.values()
        )
        before = cluster.state_checksums()
        cluster.kill_task("count", 0)
        cluster.recover_task("count", 0)
        after = cluster.state_checksums()
        assert after["count[0]"] == before["count[0]"]

    def test_recovery_then_more_incremental_rounds(self):
        # After a recovery rebuilds the store, subsequent save rounds keep
        # diffing correctly against the recovered image.
        cluster, backend = wordcount_cluster()
        cluster.run(max_emissions=400)
        cluster.checkpoint()
        cluster.run(max_emissions=20)
        cluster.checkpoint()
        cluster.kill_task("count", 0)
        cluster.recover_task("count", 0)
        cluster.run(max_emissions=20)
        rounds = settled(backend, backend.save_all())
        assert all(r.duration > 0 for r in rounds)
        before = cluster.state_checksums()
        cluster.kill_task("count", 0)
        cluster.recover_task("count", 0)
        assert cluster.state_checksums()["count[0]"] == before["count[0]"]
