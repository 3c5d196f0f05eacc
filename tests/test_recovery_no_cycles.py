"""A finished save or recovery leaves no reference cycle behind.

Save rounds, star's fetch window and tree's runs and aggregation attempts
keep their in-flight state in records that point down (run -> shards,
attempt -> run) and never store a bound method of their own, so reference
counting frees them as soon as their last event has run. With the cyclic
collector switched off, whatever a round leaves in a cycle is still on the
heap at the end, and ``gc.collect()`` counts it.
"""

import gc

import pytest

from repro.recovery.deployment import build_deployment, saved_delta, saved_state
from repro.recovery.model import run_handles
from repro.recovery.star import StarRecovery
from repro.recovery.tree import TreeRecovery


@pytest.fixture
def deployment():
    """A 32-node ring on 100 Mb/s links, built before the collector goes off."""
    deployment = build_deployment(num_nodes=32, seed=0, uplink_mbit=100, downlink_mbit=100)
    gc.collect()
    gc.disable()
    try:
        yield deployment
    finally:
        gc.enable()


def recover_with_a_retry(deployment, state_name, mechanism, crash_at):
    """Fail the owner, start ``mechanism``, and kill shard 0's primary mid-flight."""
    registered = deployment.manager.states[state_name]
    deployment.overlay.fail_node(registered.owner)
    replacement = deployment.overlay.replacement_for(registered.owner)
    primary = next(
        p.node
        for p in registered.plan.providers_for(0)
        if p.node.node_id != replacement.node_id
    )
    deployment.sim.schedule(crash_at, deployment.overlay.fail_node, primary)
    handle = mechanism.start(deployment.ctx, registered.plan, replacement, state_name)
    return run_handles(deployment.sim, [handle])[0]


def test_saves_and_recoveries_leave_nothing_for_the_collector(deployment):
    retries = deployment.sim.metrics.counter("recovery.retries")
    saved_state(deployment, "app/star", 32e6, num_shards=4, num_replicas=3)
    saved_state(
        deployment,
        "app/tree",
        32e6,
        num_shards=4,
        num_replicas=3,
        owner=deployment.overlay.nodes[16],
    )
    _, delta = saved_delta(deployment, "app/star", 4e6)
    assert delta.mode == "delta"

    star = recover_with_a_retry(deployment, "app/star", StarRecovery(fanout_bits=1), 2.0)
    assert star.mechanism == "star" and retries.get("star") >= 1
    tree = recover_with_a_retry(deployment, "app/tree", TreeRecovery(), 4.0)
    assert tree.mechanism == "tree" and retries.get("tree") >= 1

    assert gc.collect() == 0
