"""A finished save, recovery or chaos cell leaves no reference cycle behind.

Save rounds, star's fetch window, tree's runs and aggregation attempts, the
line run and the speculation race keep their in-flight state in records
that point down (run -> shards, attempt -> run) and never store a bound
method of their own. A flow drops its callbacks once one has fired, and a
settled handle drops its own. A chaos cell closes its world
(``Deployment.close``), which cuts the cycles the world's shape makes: the
overlay's node graph, the network's cached callbacks, the clocks of the
tracer and the registry, and the tracer's spans' links back to it. So
reference counting frees a cell's world as soon as ``run_scenario``
returns, and a live cell's as soon as ``LoadDriver.run`` has built its
report. With the cyclic collector switched off,
whatever is left in a cycle is still on the heap at the end, and
``gc.collect()`` counts it.
"""

import gc

import pytest

from repro.chaos.campaign import run_scenario
from repro.chaos.scenario import campaign_scenarios
from repro.live import FlashCrowd, LoadDriver, build_live_cell
from repro.recovery.deployment import build_deployment, saved_delta, saved_state
from repro.recovery.line import LineRecovery
from repro.recovery.model import run_handles
from repro.recovery.speculation import SpeculativeStarRecovery
from repro.recovery.star import StarRecovery
from repro.recovery.tree import TreeRecovery
from repro.sim.kernel import Simulator
from repro.sim.network import Network


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


def recover_with_a_retry(deployment, state_name, mechanism, crash_at, shard=0):
    """Fail the owner, start ``mechanism``, and kill ``shard``'s primary mid-flight."""
    registered = deployment.manager.states[state_name]
    deployment.overlay.fail_node(registered.owner)
    replacement = deployment.overlay.replacement_for(registered.owner)
    primary = next(
        p.node
        for p in registered.plan.providers_for(shard)
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


def test_line_and_speculation_leave_nothing_for_the_collector(deployment):
    metrics = deployment.sim.metrics
    saved_state(deployment, "app/line", 32e6, num_shards=4, num_replicas=3)
    saved_state(
        deployment,
        "app/speculation",
        32e6,
        num_shards=4,
        num_replicas=3,
        owner=deployment.overlay.nodes[16],
    )
    # Shard 3's primary is the chain's tail: its death aborts the stream.
    line = recover_with_a_retry(deployment, "app/line", LineRecovery(), 2.0, shard=3)
    assert line.mechanism == "line" and metrics.counter("recovery.retries").get("line") == 1
    speculation = recover_with_a_retry(
        deployment, "app/speculation", SpeculativeStarRecovery(), 2.0
    )
    assert speculation.mechanism == "star+speculation"
    assert metrics.counter("recovery.speculations").total > 0

    assert gc.collect() == 0


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


FULL_CELLS = [
    (scenario.name, mechanism)
    for scenario in campaign_scenarios("full")
    for mechanism in scenario.mechanisms
]


@pytest.mark.parametrize("scenario_name, mechanism", FULL_CELLS)
def test_a_chaos_cell_frees_its_world_by_reference_counting(
    collector_off, scenario_name, mechanism
):
    (scenario,) = [s for s in campaign_scenarios("full") if s.name == scenario_name]
    outcome = run_scenario(scenario.with_seed(3), mechanism)
    assert outcome.mechanism == mechanism
    assert gc.collect() == 0


@pytest.mark.parametrize("scenario_name", ["crash-wave", "stragglers"])
def test_a_controller_cell_frees_its_world_by_reference_counting(collector_off, scenario_name):
    (scenario,) = [s for s in campaign_scenarios("full") if s.name == scenario_name]
    for mechanism in scenario.mechanisms:
        if mechanism != "checkpointing":
            run_scenario(scenario.with_seed(3), mechanism, controller=True)
    assert gc.collect() == 0


def test_closing_a_world_twice_is_harmless(collector_off):
    deployment = build_deployment(num_nodes=16, seed=0)
    saved_state(deployment, "app/x", 8e6, num_shards=4, num_replicas=2)
    now = deployment.sim.now
    deployment.close()
    deployment.close()
    assert deployment.sim.metrics._clock() == now
    assert deployment.overlay.alive_count() == 16
    del deployment
    assert gc.collect() == 0


def test_a_finished_or_aborted_flow_holds_no_callback():
    sim = Simulator()
    network = Network(sim)
    a, b = network.add_host("a", 1e6, 1e6), network.add_host("b", 1e6, 1e6)
    fired = []
    done = network.transfer(a, b, 1e6, on_complete=fired.append, on_abort=fired.append)
    cut = network.transfer(b, a, 1e6, on_complete=fired.append, on_abort=fired.append)
    sim.schedule(0.5, network.abort_flow, cut)
    sim.run_until_idle()
    assert fired == [cut, done] and cut.aborted and done.done
    for flow in (done, cut):
        assert flow.on_complete is None and flow.on_abort is None


def test_a_live_cell_frees_its_world_by_reference_counting(collector_off):
    """A smoke-sized flash crowd with a kill, a recovery and a replay."""
    cell = build_live_cell(num_nodes=16, seed=0, link_mbit=200.0)
    report = LoadDriver(
        cell,
        FlashCrowd(base=30.0, peak=150.0, at=8.0, ramp=2.0, hold=10.0, decay=5.0),
        duration=30.0,
        service_rate=300.0,
        checkpoint_at=(5.0,),
        kill_at=10.0,
        mechanism=StarRecovery(fanout_bits=2),
        bulk_state_mb=32.0,
    ).run()
    assert report.recovered_at is not None and report.replayed > 0
    # What a report's reader takes from the closed cell stays readable.
    counts = sum(sum(v for _, v in bolt.state.items())
                 for bolt in cell.cluster.stateful_tasks().values())
    assert counts == 8 * report.served and len(cell.sim.tracer.spans) > 0
    del cell
    assert gc.collect() == 0
