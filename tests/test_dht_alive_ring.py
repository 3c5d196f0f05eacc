"""The alive ring against the walks it replaced.

``reference_ring_sides`` and ``reference_responsible_node`` are the
overlay's functions of the commit before the alive ring, verbatim apart
from reading ``sorted(overlay.nodes)`` where they read a cached index:
outward walks over every node ever adopted, with a live ``.alive`` test per
step. Seeded sequences of crashes (repaired and not), joins (omniscient and
by protocol), bare liveness flips, revivals and second builds must leave
the ring equal to the alive nodes sorted by id, and every slice of it equal
to what the walks find, for alive and dead owners and for keys on either
side of both ends of the ring.

``reference_responsible_node`` is not "the numerically closest alive node":
a key that wraps around the ring's ends sees the far end only while the
node that ever had the lowest (highest) id is alive. The sequences kill
those two nodes often, so a ring that looked for the true closest node
fails here, as does one that drops the rule.
"""

import bisect
import random

import pytest

from repro.dht.join import protocol_join
from repro.dht.leafset import LeafSet
from repro.dht.overlay import Overlay
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.util.ids import ID_SPACE, NodeId

STEPS = 60

# ------------------------------------------------------ the parent's walks


def reference_ring_sides(ordered, owner):
    """The nearest ``half`` alive nodes clockwise and counter-clockwise
    of ``owner``, nearest first, found by walking outward from its
    position in the sorted index instead of sorting all N nodes."""
    half = owner.leaf_set.half
    values = [n.node_id.value for n in ordered]
    n = len(ordered)
    position = bisect.bisect_left(values, owner.node_id.value)
    sides = ([], [])
    for direction, side in zip((1, -1), sides):
        i = position
        for _ in range(n - 1):  # every other node at most once, never the owner
            if len(side) >= half:
                break
            i = (i + direction) % n
            if ordered[i].alive:
                side.append(ordered[i])
    return sides


def reference_responsible_node(ordered, key):
    values = [n.node_id.value for n in ordered]
    position = bisect.bisect_left(values, key.value)
    candidates = []
    # Nearest alive nodes on either side of the insertion point; scan
    # outward past any dead entries.
    for start, direction in ((position - 1, -1), (position, +1)):
        i = start
        while 0 <= i < len(ordered):
            if ordered[i].alive:
                candidates.append(ordered[i])
                break
            i += direction
    # Wrap-around candidates for keys near the ring's ends.
    for i in (0, len(ordered) - 1):
        if ordered[i].alive:
            candidates.append(ordered[i])
    return min(candidates, key=lambda n: (key.distance(n.node_id), n.node_id.value))


# ------------------------------------------------------------ the sequences


def by_id(node) -> int:
    return node.node_id.value


def check(overlay: Overlay, rng: random.Random, touched: list) -> None:
    ordered = sorted(overlay.nodes, key=by_id)
    alive = [n for n in ordered if n.alive]
    assert overlay._alive_ring() == ([n.node_id.value for n in alive], alive)
    assert overlay.alive_count() == len(overlay.alive_nodes()) == len(alive)
    assert set(overlay.alive_nodes()) == set(alive)

    owners = touched[-4:] + rng.sample(overlay.nodes, min(8, len(overlay.nodes)))
    for owner in owners:
        sides = overlay._ring_sides(owner)
        assert sides == reference_ring_sides(ordered, owner)
        # ... which is what rebuild sorts out of every alive node: the
        # overlay re-seeds from the slices where it used to rebuild.
        sorted_out = LeafSet(owner.node_id, owner.leaf_set.size)
        sorted_out.rebuild(alive)
        assert sides == (sorted_out.clockwise(), sorted_out.counter_clockwise())

    near_ends = [
        (end.node_id.value + step) % ID_SPACE
        for end in (ordered[0], ordered[-1], alive[0], alive[-1])
        for step in (-1, 0, 1)
    ]
    dead = [n.node_id.value for n in ordered if not n.alive]
    keys = near_ends + [0, ID_SPACE - 1] + dead[:8]
    keys += [rng.getrandbits(128) for _ in range(40 - len(keys))]
    for value in keys:
        key = NodeId(value)
        assert overlay.responsible_node(key) is reference_responsible_node(ordered, key)


def run_sequence(nodes: int, leaf_set_size: int, seed: int) -> None:
    sim = Simulator()
    network = Network(sim)
    overlay = Overlay(sim, network, leaf_set_size=leaf_set_size, rng=random.Random(seed))
    overlay.build(nodes)
    rng = random.Random(seed + 5000)
    touched: list = []
    check(overlay, rng, touched)
    for step in range(STEPS):
        draw = rng.random()
        dead = [n for n in overlay.nodes if not n.alive]
        if draw < 0.45 and overlay.alive_count() > 1:
            victims = overlay.alive_nodes()
            if rng.random() < 0.3:  # the two ids the wrap rule remembers
                ends = (min(overlay.nodes, key=by_id), max(overlay.nodes, key=by_id))
                victims = [n for n in ends if n.alive] or victims
            node = rng.choice(victims)
            how = rng.random()
            if how < 0.2:
                node.fail()  # a bare flip: no repair, the host stays up
            else:
                overlay.fail_node(node, repair=how < 0.8)
        elif draw < 0.6:
            node = overlay.add_node()
        elif draw < 0.7:
            node = protocol_join(overlay).node
        elif draw < 0.75:
            more = rng.randrange(1, 6)
            node = overlay.build(
                more, host_factory=lambda name: network.add_host(f"build-{step}-{name}")
            )[-1]
        elif dead:
            node = rng.choice(dead)
            node.revive()
            network.recover_host(node.host)
        else:
            continue
        touched.append(node)
        check(overlay, rng, touched)
    sim.run_until_idle()


@pytest.mark.parametrize("leaf_set_size", [8, 24])
@pytest.mark.parametrize(
    "nodes,seed", [(2, 0), (7, 0), (7, 1), (25, 0), (26, 0), (64, 0), (64, 1), (700, 0)]
)
def test_ring_slices_equal_the_walks_over_every_node(nodes, seed, leaf_set_size):
    run_sequence(nodes, leaf_set_size, seed)


# ---------------------------------------------------------------- the mutants


def _linear_neighbours(overlay: Overlay, key: NodeId) -> list:
    values, nodes = overlay._alive_ring()
    at = bisect.bisect_left(values, key.value)
    return nodes[max(at - 1, 0) : at + 1]


def _closest(key: NodeId, candidates: list):
    return min(candidates, key=lambda n: (key.distance(n.node_id), n.node_id.value))


def without_the_end_rule(overlay: Overlay, key: NodeId):
    return _closest(key, _linear_neighbours(overlay, key))


def truly_closest(overlay: Overlay, key: NodeId):
    nodes = overlay._alive_ring()[1]
    return _closest(key, _linear_neighbours(overlay, key) + [nodes[0], nodes[-1]])


@pytest.mark.parametrize("mutant", [without_the_end_rule, truly_closest])
def test_a_ring_with_another_wrap_rule_is_caught(monkeypatch, mutant):
    monkeypatch.setattr(Overlay, "responsible_node", mutant)
    with pytest.raises(AssertionError):
        run_sequence(7, 8, 0)


def test_a_ring_that_forgets_a_revived_node_is_caught(monkeypatch):
    real = Overlay._membership_changed

    def forgetful(overlay: Overlay, node) -> None:
        if not node.alive or node.join_order == len(overlay.nodes) - 1:
            real(overlay, node)  # crashes and adoptions reach the ring; revivals do not

    monkeypatch.setattr(Overlay, "_membership_changed", forgetful)
    with pytest.raises(AssertionError):
        run_sequence(25, 8, 0)
