"""Micro-promotion (Fig. 1, top): top-k clicked products with SR3 recovery.

A click-stream topology counts product clicks and maintains the live
top-k ranking (the products to discount). Mid-stream, the worker running
the ranking task crashes; SR3 recovers its state from the DHT overlay and
processing resumes — the final ranking is identical to a failure-free run.

Usage: python examples/micro_promotion.py
"""

import random

from repro.dht.overlay import Overlay
from repro.recovery.manager import RecoveryManager
from repro.recovery.model import RecoveryContext
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.streaming.backend import SR3StateBackend
from repro.streaming.cluster import LocalCluster
from repro.workloads.clicks import build_micro_promotion_topology

NUM_EVENTS = 6_000


def run_without_failure() -> list:
    cluster = LocalCluster(build_micro_promotion_topology(NUM_EVENTS, seed=42))
    cluster.run()
    return cluster.task("topk").top_k()


def run_with_failure_and_recovery() -> list:
    # SR3 substrate: a 64-node DHT overlay on a simulated network.
    sim = Simulator()
    network = Network(sim)
    overlay = Overlay(sim, network, rng=random.Random(9))
    overlay.build(64)
    backend = SR3StateBackend(
        RecoveryManager(RecoveryContext(sim, network, overlay)),
        num_shards=4,
        num_replicas=2,
    )

    cluster = LocalCluster(
        build_micro_promotion_topology(NUM_EVENTS, seed=42), backend=backend
    )
    cluster.protect_stateful_tasks()

    # Process the first half of the stream, then checkpoint into the ring.
    cluster.run(max_emissions=NUM_EVENTS // 2)
    cluster.checkpoint()
    print("checkpointed the ranking state into the overlay")

    # A few hundred clicks later the worker dies; its in-memory hashtable
    # is gone, and so are the clicks it counted since the checkpoint.
    cluster.run(max_emissions=NUM_EVENTS // 10)
    cluster.kill_task("topk")
    print("killed the topk task (state lost)")

    # SR3 pulls the shards back from the leaf set and rebuilds the store;
    # the spout rewinds to the checkpoint, so those clicks are replayed.
    cluster.recover_task("topk")
    print(f"recovered; resuming the remaining {NUM_EVENTS // 2} events")

    cluster.run()
    return cluster.task("topk").top_k()


def main() -> None:
    expected = run_without_failure()
    recovered = run_with_failure_and_recovery()
    print("\ntop-5 most-clicked products (after crash + SR3 recovery):")
    for product, clicks in recovered:
        print(f"  {product}: {clicks} clicks")
    assert recovered == expected, "recovery must not change the result"
    print("\nranking matches the failure-free run exactly")


if __name__ == "__main__":
    main()
