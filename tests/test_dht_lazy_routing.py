"""Routing tables wired on first read, against a build that wires them at once.

``Overlay.build`` leaves the routing tables to ``settle_routing``, which the
first read of a node's ``routing_table`` or of ``Overlay.rng`` runs.
``ReferenceEagerOverlay`` is the overlay of the commit before: its ``build``
wires the tables before it returns. Two rings from one seed, one of each
kind, are driven with the same seeded sequence of crashes (repaired and
not), bare liveness flips, revivals, joins (omniscient and by protocol),
samples, routes, leaf-set refreshes and second builds. Every call returns
the same on both; what needs no door (leaf sets, the holder index, the
repair count) is equal after every step; everything a build decides (the
dict order of every routing table, the generator's state, the topology
version) is equal from the step that passes a door on, and at the end after
``settle_routing()``.

The second half looks at who pays: star, line and speculation cells of the
chaos campaign and a ``scale_star``-shaped cell end with no table wired, a
tree cell wires them once.
"""

import random

import pytest

from repro.chaos import campaign_scenarios, run_scenario
from repro.dht.join import protocol_join
from repro.dht.overlay import Overlay
from repro.recovery import RecoveryContext, RecoveryManager, StarRecovery
from repro.recovery.model import run_handles
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.state import HashPlacement, StateVersion, partition_synthetic
from repro.util.ids import NodeId
from repro.util.sizes import MB

SEQUENCES = 200
STEPS = 24


class ReferenceEagerOverlay(Overlay):
    """The parent's ``build``: leaf sets, then the routing tables, at once."""

    def build(self, count, host_factory=None):
        nodes = super().build(count, host_factory)
        self.settle_routing()
        return nodes


# --------------------------------------------------------------- what is equal


def names(nodes) -> list:
    return [n.name for n in nodes]


def doorless_state(overlay: Overlay) -> dict:
    """What a repair decides without reading a table or drawing."""
    return {
        "nodes": [(n.name, n.node_id.value, n.alive, n.join_order) for n in overlay.nodes],
        "leaf_sets": [
            (names(n.leaf_set.clockwise()), names(n.leaf_set.counter_clockwise()))
            for n in overlay.nodes
        ],
        "holders": {
            value: sorted(names(bucket)) for value, bucket in overlay._holders.items() if bucket
        },
        "repairs": overlay.repairs_performed,
    }


def settled_state(overlay: Overlay) -> dict:
    """What the doors guard, read without opening one."""
    return {
        "tables": [
            [(row, [(col, n.name) for col, n in slots.items()])
             for row, slots in node._routing_table._rows.items()]
            for node in overlay.nodes
        ],
        "rng": overlay._rng.getstate(),
        "topology_version": overlay.topology_version,
    }


def wired(overlay: Overlay) -> bool:
    return overlay._unwired_removals is None


# --------------------------------------------------------------- the sequences


def make_ring(cls, seed: int, leaf_set_size: int) -> Overlay:
    sim = Simulator()
    return cls(sim, Network(sim), leaf_set_size=leaf_set_size, rng=random.Random(seed))


def run_sequence(seed: int) -> int:
    """Drive both rings; returns how many steps the lazy one stayed unwired."""
    rng = random.Random(seed + 9000)
    nodes = rng.choice([2, 3, 7, 24, 25, 26, 64, rng.randrange(2, 201), rng.randrange(2, 201)])
    leaf_set_size = rng.choice([8, 24])
    lazy = make_ring(Overlay, seed, leaf_set_size)
    eager = make_ring(ReferenceEagerOverlay, seed, leaf_set_size)
    rings = (lazy, eager)
    assert names(lazy.build(nodes)) == names(eager.build(nodes))
    assert wired(eager) and not wired(lazy)
    unwired_steps = 0

    def both(call):
        """Run ``call(ring, node_of)`` on both rings; the results must agree."""
        results = []
        for ring in rings:
            by_name = {n.name: n for n in ring.nodes}
            results.append(call(ring, by_name.__getitem__))
        assert results[0] == results[1]
        return results[0]

    for step in range(STEPS):
        draw = rng.random()
        alive = names(lazy.alive_nodes())
        dead = [n.name for n in lazy.nodes if not n.alive]
        if draw < 0.35 and len(alive) > 1:
            victim, how = rng.choice(alive), rng.random()
            if how < 0.15:
                both(lambda ring, node: node(victim).fail())  # a bare flip
            else:
                both(lambda ring, node: ring.fail_node(node(victim), repair=how < 0.85))
        elif draw < 0.45 and dead:
            revived = rng.choice(dead)

            def revive(ring, node):
                node(revived).revive()
                ring.network.recover_host(node(revived).host)

            both(revive)
        elif draw < 0.55:
            owner = rng.choice(alive + dead)
            both(lambda ring, node: names(ring.leaf_set_of(node(owner), refresh=True)))
        elif draw < 0.65:
            exclude = rng.sample(alive + dead, min(2, len(alive) + len(dead)))
            count = rng.randrange(0, min(4, len(set(alive) - set(exclude)) + 1))
            both(lambda ring, node: names(
                ring.sample_nodes(count, exclude=[node(name) for name in exclude])
            ))
        elif draw < 0.75:
            start, key = rng.choice(alive), NodeId(rng.getrandbits(128))

            def route(ring, node):
                destination, path = ring.route(node(start), key)
                return destination.name, names(path)

            both(route)
        elif draw < 0.83:
            both(lambda ring, node: ring.add_node().name)
        elif draw < 0.90:
            def join(ring, node):
                report = protocol_join(ring)
                return report.node.name, report.path_length, report.messages, report.control_bytes

            both(join)
        elif draw < 0.95:
            more = rng.randrange(1, 6)
            both(lambda ring, node: names(ring.build(
                more, host_factory=lambda name: ring.network.add_host(f"build-{step}-{name}")
            )))
            assert wired(eager) and not wired(lazy)
        else:
            both(lambda ring, node: ring.rng.getstate())  # door (b) by name

        assert doorless_state(lazy) == doorless_state(eager)
        if wired(lazy):
            assert settled_state(lazy) == settled_state(eager)
        else:
            unwired_steps += 1

    lazy.settle_routing()
    assert wired(lazy)
    assert doorless_state(lazy) == doorless_state(eager)
    assert settled_state(lazy) == settled_state(eager)
    for ring in rings:
        ring.sim.run_until_idle()
    assert lazy.sim.metrics.dump() == eager.sim.metrics.dump()
    return unwired_steps


@pytest.mark.parametrize("seed", range(SEQUENCES))
def test_deferred_tables_equal_the_eager_build(seed):
    run_sequence(seed)


def test_the_sequences_spend_time_on_both_sides_of_the_door():
    unwired = [run_sequence(seed) for seed in range(40)]
    assert sum(1 for steps in unwired if steps >= 3) >= 20  # crashes queued before a door
    assert sum(1 for steps in unwired if steps < STEPS) >= 35  # and a door passed


def test_a_settle_that_forgets_the_queued_removals_is_caught(monkeypatch):
    real = Overlay.settle_routing

    def forgetful(overlay):
        if overlay._unwired_removals:
            del overlay._unwired_removals[:]
        real(overlay)

    monkeypatch.setattr(Overlay, "settle_routing", forgetful)
    with pytest.raises(AssertionError):
        for seed in range(40):
            run_sequence(seed)


def test_a_draw_that_skips_the_door_is_caught(monkeypatch):
    monkeypatch.setattr(Overlay, "rng", property(lambda overlay: overlay._rng))
    with pytest.raises(AssertionError):
        for seed in range(40):
            run_sequence(seed)


# ------------------------------------------------------------------ who pays


@pytest.fixture
def world(monkeypatch):
    """The overlays made, and the table wirings run, while the test lasts."""
    overlays, wirings = [], []
    init, wire = Overlay.__init__, Overlay._wire_routing_tables

    def collecting_init(overlay, *args, **kwargs):
        overlays.append(overlay)
        init(overlay, *args, **kwargs)

    def counting_wire(overlay):
        wirings.append(overlay)
        wire(overlay)

    monkeypatch.setattr(Overlay, "__init__", collecting_init)
    monkeypatch.setattr(Overlay, "_wire_routing_tables", counting_wire)
    return overlays, wirings


def rows_held(overlay: Overlay) -> int:
    return sum(len(node._routing_table._rows) for node in overlay.nodes)


def chaos_cell(scenario_name: str, mechanism: str):
    (scenario,) = [s for s in campaign_scenarios("full") if s.name == scenario_name]
    return run_scenario(scenario, mechanism)


@pytest.mark.parametrize("mechanism", ["star", "line", "speculation"])
@pytest.mark.parametrize("scenario", ["crash-wave", "mid-recovery-recrash"])
def test_a_leaf_set_mechanism_never_wires_the_tables(world, scenario, mechanism):
    overlays, wirings = world
    outcome = chaos_cell(scenario, mechanism)
    assert outcome.status != "failed"
    (overlay,) = overlays
    assert not wirings and not wired(overlay)
    assert overlay.repairs_performed > 0 and overlay._unwired_removals
    assert rows_held(overlay) == 0


def test_a_tree_cell_wires_them_once(world):
    overlays, wirings = world
    outcome = chaos_cell("crash-wave", "tree")
    assert outcome.status != "failed"
    (overlay,) = overlays
    assert wirings == [overlay] and wired(overlay)
    assert rows_held(overlay) > 0


def test_a_scale_star_shaped_cell_ends_unwired(world):
    """The ``scale_star`` benchmark cell at 256 nodes: build, save, fail
    every owner at one instant, recover by star."""
    overlays, wirings = world
    sim = Simulator()
    network = Network(sim)
    overlay = Overlay(sim, network, leaf_set_size=24, rng=random.Random(0))
    overlay.build(256)
    ctx = RecoveryContext(sim, network, overlay)
    manager = RecoveryManager(ctx, placement=HashPlacement())
    owners = overlay.nodes[:16]
    for i, owner in enumerate(owners):
        manager.register(
            owner, partition_synthetic(f"app-{i}/state", 16 * MB, 4, StateVersion(0.0, 1)), 3
        )
    saves = manager.save_all()
    sim.run_until_idle()
    assert all(handle.done for handle in saves)
    for owner in owners:
        overlay.fail_node(owner)
    mechanism = StarRecovery(fanout_bits=2)
    handles = [
        mechanism.start(
            ctx, manager.states[f"app-{i}/state"].plan, overlay.replacement_for(owner),
            f"app-{i}/state",
        )
        for i, owner in enumerate(owners)
    ]
    assert len(run_handles(sim, handles)) == 16
    assert overlays == [overlay] and not wirings and not wired(overlay)
    assert rows_held(overlay) == 0


def test_fail_node_on_an_unwired_ring_allocates_no_row():
    lazy, eager = make_ring(Overlay, 0, 24), make_ring(ReferenceEagerOverlay, 0, 24)
    for ring in (lazy, eager):
        ring.build(64)
        for node in ring.nodes[:8]:
            ring.fail_node(node)
    assert lazy.repairs_performed == len(lazy._unwired_removals) > 0
    assert rows_held(lazy) == 0
    # The first read wires every table and takes the crashed nodes back out.
    assert lazy.nodes[10].routing_table.size() > 0
    assert wired(lazy)
    assert settled_state(lazy) == settled_state(eager)
