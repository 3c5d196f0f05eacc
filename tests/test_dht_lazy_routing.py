"""Routing-table picks drawn at the generator door, rows placed at the table door.

``Overlay.build`` leaves the routing tables unwired. The **generator door**
(``Overlay.rng``, read by ``sample_nodes`` and ``_fresh_id``) keeps a copy
of the generator and the build's node list, then advances the generator past
the table picks without placing them: the ring is *drawn*. The **table
door** (``settle_routing``: the first read of a node's ``routing_table``, or
a later ``build``) places the rows from the kept copy, or from the live
generator if no draw came first, and replays the queued ``fail_node``
removals: the ring is *placed*.

Two overlays of the commits before are kept here verbatim.
``ReferenceOneDoorOverlay`` has one door: a read of either kind wires the
tables from the live generator. ``ReferenceEagerOverlay`` wires them before
``build`` returns. Three rings from one seed, one of each kind, are driven
through the same seeded sequence of crashes (repaired and not), bare
liveness flips, revivals, joins (omniscient and by protocol), samples,
routes, leaf-set refreshes, maintenance rounds and second builds. Every call
returns the same on all three. What needs no door (leaf sets, the holder
index, the repair count) is equal after every step; the generator state is
the one-door ring's after every step and the eager ring's from the first
door after a build on; the dict order of every table and the topology
version are equal from the first table read on; the metrics are equal at the
end. Edge cases are more parameters of the same test: rings of 1, 2 and at
most ``leaf_set_size`` nodes, each table reader opening the door after a
sample, crashes before, between and after the doors, and two builds with a
sample between them, each with the door states it must pass through.

The second half looks at who pays: star, line and speculation cells of the
chaos campaign open no door, a tree cell draws once and places nothing, and
only a cell that joins a node (``churn``) ends with a row, in the campaign or
in the benchmark's scale shapes.
"""

import math
import random

import pytest

from repro.chaos import campaign_scenarios, run_scenario
from repro.dht.join import protocol_join
from repro.dht.maintenance import MaintenanceConfig, measure_maintenance
from repro.dht.overlay import Overlay
from repro.recovery import RecoveryContext, RecoveryManager, StarRecovery, TreeRecovery
from repro.recovery.model import run_handles
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.state import HashPlacement, StateVersion, partition_synthetic
from repro.util.ids import NodeId
from repro.util.sizes import MB, mbit_per_s

SEQUENCES = 200
STEPS = 24


class ReferenceOneDoorOverlay(Overlay):
    """The parent's doors: either read wires every table from the live
    generator. Verbatim but for the ``row_slots`` call, since inlined."""

    @property
    def rng(self) -> random.Random:
        """The overlay's one generator, the pending table picks drawn."""
        self.settle_routing()
        return self._rng

    def settle_routing(self) -> None:
        """Wire the routing tables of the last build, if nothing has yet.

        Nothing comes between a build and the first door: an adoption draws
        an id and a table mutation reads the table, so the node list and the
        generator are still the build's; the repairs since only took entries
        out, replayed here in their order.
        """
        removals = self._unwired_removals
        if removals is None:
            return
        self._unwired_removals = None
        self._wire_routing_tables()
        for holder, failed_id in removals:
            holder._routing_table.remove(failed_id)

    def _wire_routing_tables(self) -> None:
        n = len(self.nodes)
        if n < 2:
            return
        cols = 1 << self.bits_per_digit
        max_depth = max(1, math.ceil(math.log(n, cols))) + 2
        buckets = {}
        # Rows past max_depth are never filled, so neither are their digits read.
        digits_of = [node.node_id.digits(self.bits_per_digit, max_depth) for node in self.nodes]
        for node, digits in zip(self.nodes, digits_of):
            for depth in range(1, max_depth + 1):
                buckets.setdefault(digits[:depth], []).append(node)
        # Regroup the buckets per parent prefix, columns ascending, so the
        # fill loop below walks only the populated columns of a row instead
        # of hashing a fresh `prefix + (col,)` tuple per (node, row, col) —
        # ~4.5M tuple constructions at 50k nodes. Each entry carries the
        # pool's size and bit length for the draw.
        children = {}
        for key, pool in buckets.items():
            children.setdefault(key[:-1], []).append(
                (key[-1], pool, len(pool), len(pool).bit_length())
            )
        for entries in children.values():
            entries.sort()  # columns are unique, so the pools are never compared
        # The pick is `rng.choice(pool)` written out: random.Random draws
        # `getrandbits(n.bit_length())` until the value falls below n, so
        # this loop consumes the identical bit stream without two call
        # layers on the ~4.5M picks a 50k build makes.
        getrandbits = self._rng.getrandbits
        for node, digits in zip(self.nodes, digits_of):
            table = node._routing_table
            for row in range(max_depth):
                entries = children[digits[:row]]
                if len(entries) == 1:
                    continue  # nobody but the prefix the node itself is in
                own = digits[row]
                slots = table._rows.setdefault(row, {})  # the body of `row_slots(row)`
                for col, pool, size, bits in entries:
                    # The bucket construction guarantees the pick shares
                    # exactly `row` digits with the owner and differs at
                    # digit `row` (= col), so the slot is written directly
                    # — same entry, same rng draw order as
                    # routing_table.add() would produce.
                    if col != own:
                        pick = getrandbits(bits)
                        while pick >= size:
                            pick = getrandbits(bits)
                        slots[col] = pool[pick]


class ReferenceEagerOverlay(ReferenceOneDoorOverlay):
    """The grandparent's ``build``: leaf sets, then the routing tables, at once."""

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


def placed_state(overlay: Overlay) -> dict:
    """What the table door guards, read without opening it."""
    return {
        "tables": [
            [(row, [(col, n.name) for col, n in slots.items()])
             for row, slots in node._routing_table._rows.items()]
            for node in overlay.nodes
        ],
        "topology_version": overlay.topology_version,
    }


def door(overlay: Overlay) -> str:
    """unwired -> drawn -> placed; the references skip the middle state."""
    if overlay._unwired_removals is None:
        return "placed"
    return "unwired" if overlay._drawn is None else "drawn"


def rows_held(overlay: Overlay) -> int:
    """The rows the nodes hold, or held as the overlay closed (``world``
    takes that reading: closing a finished world cuts the rows)."""
    held = getattr(overlay, "rows_held_at_close", None)
    if held is not None:
        return held
    return sum(len(node._routing_table._rows) for node in overlay.nodes)


# --------------------------------------------------------------- the sequences


def make_ring(cls, seed: int, leaf_set_size: int) -> Overlay:
    sim = Simulator()
    return cls(sim, Network(sim), leaf_set_size=leaf_set_size, rng=random.Random(seed))


def random_action(rng: random.Random) -> str:
    draw = rng.random()
    for bound, action in (
        (0.35, "crash"), (0.45, "revive"), (0.55, "refresh"), (0.65, "sample"),
        (0.74, "route"), (0.81, "add_node"), (0.87, "join"), (0.91, "maintenance"),
        (0.96, "build"),
    ):
        if draw < bound:
            return action
    return "rng"


MAINTENANCE = MaintenanceConfig(leafset_period=60.0, routing_period=60.0)


def run_sequence(seed: int, nodes=None, leaf_set_size=None, prelude=()) -> list:
    """Drive the three rings: the ``prelude`` actions, then random ones up
    to ``STEPS``. Returns the lazy ring's door state after every step."""
    rng = random.Random(seed + 9000)
    if nodes is None:
        nodes = rng.choice([2, 3, 7, 24, 25, 26, 64, rng.randrange(2, 201), rng.randrange(2, 201)])
        leaf_set_size = rng.choice([8, 24])
    lazy = make_ring(Overlay, seed, leaf_set_size)
    one_door = make_ring(ReferenceOneDoorOverlay, seed, leaf_set_size)
    eager = make_ring(ReferenceEagerOverlay, seed, leaf_set_size)
    rings = (lazy, one_door, eager)
    assert names(lazy.build(nodes)) == names(one_door.build(nodes)) == names(eager.build(nodes))
    assert [door(ring) for ring in rings] == ["unwired", "unwired", "placed"]
    states = []

    def every(call):
        """Run ``call(ring, node_of)`` on every ring; the results must agree."""
        results = []
        for ring in rings:
            by_name = {n.name: n for n in ring.nodes}
            results.append(call(ring, by_name.__getitem__))
        assert results[0] == results[1] == results[2]
        return results[0]

    actions = list(prelude) + [random_action(rng) for _ in range(STEPS - len(prelude))]
    for step, action in enumerate(actions):
        alive = names(lazy.alive_nodes())
        dead = [n.name for n in lazy.nodes if not n.alive]
        if action in ("crash", "fail") and len(alive) > 1:
            victim, how = rng.choice(alive), 0.5 if action == "fail" else rng.random()
            if how < 0.15:
                every(lambda ring, node: node(victim).fail())  # a bare flip
            else:
                every(lambda ring, node: ring.fail_node(node(victim), repair=how < 0.85))
        elif action == "revive" and dead:
            revived = rng.choice(dead)

            def revive(ring, node):
                node(revived).revive()
                ring.network.recover_host(node(revived).host)

            every(revive)
        elif action == "refresh":
            owner = rng.choice(alive + dead)
            every(lambda ring, node: names(ring.leaf_set_of(node(owner), refresh=True)))
        elif action == "sample":
            exclude = rng.sample(alive + dead, min(2, len(alive) + len(dead)))
            count = rng.randrange(0, min(4, len(set(alive) - set(exclude)) + 1))
            every(lambda ring, node: names(
                ring.sample_nodes(count, exclude=[node(name) for name in exclude])
            ))
        elif action == "route":
            start, key = rng.choice(alive), NodeId(rng.getrandbits(128))

            def route(ring, node):
                destination, path = ring.route(node(start), key)
                return destination.name, names(path)

            every(route)
        elif action == "add_node":
            every(lambda ring, node: ring.add_node().name)
        elif action == "join":
            def join(ring, node):
                report = protocol_join(ring)
                return report.node.name, report.path_length, report.messages, report.control_bytes

            every(join)
        elif action == "maintenance":
            every(lambda ring, node: measure_maintenance(ring, MAINTENANCE, duration=60.0))
        elif action == "build":
            more = rng.randrange(1, 6)
            every(lambda ring, node: names(ring.build(
                more, host_factory=lambda name: ring.network.add_host(f"build-{step}-{name}")
            )))
        elif action == "rng":
            every(lambda ring, node: ring.rng.getstate())  # the generator door by name

        states.append(door(lazy))
        assert door(one_door) == ("unwired" if states[-1] == "unwired" else "placed")
        assert doorless_state(lazy) == doorless_state(one_door) == doorless_state(eager)
        assert lazy._rng.getstate() == one_door._rng.getstate()
        if states[-1] != "unwired":
            assert lazy._rng.getstate() == eager._rng.getstate()
        if states[-1] == "placed":
            assert placed_state(lazy) == placed_state(one_door) == placed_state(eager)

    for ring in rings:
        ring.settle_routing()
        ring.sim.run_until_idle()
    assert doorless_state(lazy) == doorless_state(one_door) == doorless_state(eager)
    assert placed_state(lazy) == placed_state(one_door) == placed_state(eager)
    assert lazy._rng.getstate() == one_door._rng.getstate() == eager._rng.getstate()
    assert lazy.sim.metrics.dump() == one_door.sim.metrics.dump() == eager.sim.metrics.dump()
    return states


# id: (nodes, leaf_set_size, prelude, the lazy ring's door state after each prelude step)
EDGES = {
    "ring-of-1": (1, 8, ("sample", "fail", "rng", "join", "sample"),
                  ("drawn", "drawn", "drawn", "placed", "placed")),
    "ring-of-2": (2, 8, ("fail", "sample", "add_node"), ("unwired", "drawn", "placed")),
    "ring-of-leaf-set-size": (8, 8, ("sample", "fail", "maintenance", "fail"),
                              ("drawn", "drawn", "placed", "placed")),
    "ring-under-leaf-set-size": (5, 24, ("fail", "rng", "fail", "join"),
                                 ("unwired", "drawn", "drawn", "placed")),
    "sample-then-add-node": (64, 8, ("sample", "add_node"), ("drawn", "placed")),
    "sample-then-protocol-join": (64, 8, ("sample", "join"), ("drawn", "placed")),
    "sample-then-maintenance": (64, 8, ("sample", "maintenance"), ("drawn", "placed")),
    "sample-then-route": (200, 8, ("sample", "route"), ("drawn", "placed")),
    "fail-before-between-and-after-the-doors": (
        64, 8, ("fail", "sample", "fail", "maintenance", "fail"),
        ("unwired", "drawn", "drawn", "placed", "placed"),
    ),
    "two-builds-with-a-sample-between": (
        64, 8, ("fail", "sample", "fail", "build", "sample", "fail", "build", "maintenance"),
        ("unwired", "drawn", "drawn", "unwired", "drawn", "drawn", "unwired", "placed"),
    ),
}


@pytest.mark.parametrize(
    "seed, nodes, leaf_set_size, prelude, states",
    [pytest.param(seed, None, None, (), None, id=str(seed)) for seed in range(SEQUENCES)]
    + [pytest.param(7, *case, id=name) for name, case in EDGES.items()],
)
def test_deferred_tables_equal_the_eager_build(seed, nodes, leaf_set_size, prelude, states):
    passed = run_sequence(seed, nodes, leaf_set_size, prelude)
    if states is not None:
        assert tuple(passed[: len(prelude)]) == states


def test_the_sequences_spend_time_on_both_sides_of_the_door():
    runs = [run_sequence(seed) for seed in range(40)]
    assert sum(1 for states in runs if states.count("unwired") >= 3) >= 20  # crashes queued
    drawn = [states[states.index("drawn"):] for states in runs if "drawn" in states]
    assert sum(1 for after in drawn if "placed" in after) >= 15  # a draw, then a table read
    assert sum(1 for states in runs if "placed" in states) >= 35


def sequences_fail(seeds=range(40)):
    with pytest.raises(AssertionError):
        for seed in seeds:
            run_sequence(seed)
        for name, case in EDGES.items():
            run_sequence(7, *case[:3])


def test_a_settle_that_forgets_the_queued_removals_is_caught(monkeypatch):
    real = Overlay.settle_routing

    def forgetful(overlay):
        if overlay._unwired_removals:
            del overlay._unwired_removals[:]
        real(overlay)

    monkeypatch.setattr(Overlay, "settle_routing", forgetful)
    sequences_fail()


def test_a_draw_that_skips_the_door_is_caught(monkeypatch):
    monkeypatch.setattr(Overlay, "rng", property(lambda overlay: overlay._rng))
    sequences_fail()


def test_a_placement_from_the_live_generator_is_caught(monkeypatch):
    real = Overlay._table_picks

    def live(overlay, nodes, rng, place):
        real(overlay, nodes, overlay._rng if place else rng, place)

    monkeypatch.setattr(Overlay, "_table_picks", live)
    sequences_fail()


def test_a_draw_without_the_redraw_after_a_rejected_pick_is_caught(monkeypatch):
    real = Overlay._table_picks

    class OneDrawAPick:
        """Answers a pick's first draw below its bound, so the rejection
        loop never redraws; the placement keeps the real generator."""

        def __init__(self, rng):
            self.rng = rng

        def getrandbits(self, bits):
            return self.rng.getrandbits(bits) >> 1

    def hasty(overlay, nodes, rng, place):
        real(overlay, nodes, rng if place else OneDrawAPick(rng), place)

    monkeypatch.setattr(Overlay, "_table_picks", hasty)
    sequences_fail()


def test_a_second_build_that_drops_a_drawn_build_is_caught(monkeypatch):
    real = Overlay.build

    def dropping(overlay, count, host_factory=None):
        if overlay._drawn is not None:  # the drawn, unplaced build is forgotten
            overlay._unwired_removals = overlay._drawn = None
        return real(overlay, count, host_factory)

    monkeypatch.setattr(Overlay, "build", dropping)
    sequences_fail()


def test_a_placement_over_the_door_time_node_list_is_caught(monkeypatch):
    real = Overlay._table_picks

    def current(overlay, nodes, rng, place):
        real(overlay, overlay.nodes if place else nodes, rng, place)

    monkeypatch.setattr(Overlay, "_table_picks", current)
    sequences_fail()


# ------------------------------------------------------------------ who pays


@pytest.fixture
def world(monkeypatch):
    """The overlays made, and the (overlay, place) of every pick pass, while
    the test lasts. A chaos cell closes its world before it returns, so each
    overlay's rows are read as it closes; the doors' state is left as it was."""
    overlays, passes = [], []
    init, picks, close = Overlay.__init__, Overlay._table_picks, Overlay.close

    def collecting_init(overlay, *args, **kwargs):
        overlays.append(overlay)
        init(overlay, *args, **kwargs)

    def counting_picks(overlay, nodes, rng, place):
        passes.append((overlay, place))
        picks(overlay, nodes, rng, place)

    def reading_close(overlay):
        overlay.rows_held_at_close = rows_held(overlay)
        close(overlay)

    monkeypatch.setattr(Overlay, "__init__", collecting_init)
    monkeypatch.setattr(Overlay, "_table_picks", counting_picks)
    monkeypatch.setattr(Overlay, "close", reading_close)
    return overlays, passes


def chaos_cell(scenario_name: str, mechanism: str):
    (scenario,) = [s for s in campaign_scenarios("full") if s.name == scenario_name]
    return run_scenario(scenario, mechanism)


@pytest.mark.parametrize("mechanism", ["star", "line", "speculation"])
@pytest.mark.parametrize("scenario", ["crash-wave", "mid-recovery-recrash"])
def test_a_leaf_set_mechanism_never_wires_the_tables(world, scenario, mechanism):
    overlays, passes = world
    outcome = chaos_cell(scenario, mechanism)
    assert outcome.status != "failed"
    (overlay,) = overlays
    assert not passes and door(overlay) == "unwired"
    assert overlay.repairs_performed > 0 and overlay._unwired_removals
    assert rows_held(overlay) == 0


def test_a_tree_cell_draws_once_and_places_nothing(world):
    overlays, passes = world
    outcome = chaos_cell("crash-wave", "tree")
    assert outcome.status != "failed"
    (overlay,) = overlays
    assert passes == [(overlay, False)] and door(overlay) == "drawn"
    assert rows_held(overlay) == 0


@pytest.mark.parametrize("scenario", [s.name for s in campaign_scenarios("full")])
def test_only_a_campaign_cell_that_joins_a_node_places_rows(world, scenario):
    """``add_node`` refreshes the newcomer's table from the placed rows, so
    ``churn``, which joins nodes, is the one scenario that opens the table
    door; every other cell ends with no row."""
    overlays, passes = world
    for mechanism in ("star", "line", "tree", "speculation"):
        assert chaos_cell(scenario, mechanism).status != "failed"
    assert len(overlays) == 4
    for overlay in overlays:
        joined = overlay.sim.metrics.counter("overlay.joins").total > 0
        assert joined == (scenario == "churn")
        assert (door(overlay) == "placed") == joined == (rows_held(overlay) > 0)
    assert [place for _, place in passes].count(True) == (4 if scenario == "churn" else 0)


def scale_cell(mechanism) -> Overlay:
    """The benchmark's scale cell at its smoke size (256 nodes, 1 Gb/s
    hosts): build, save, fail every owner at one instant, recover."""
    sim = Simulator()
    network = Network(sim)
    bandwidth = mbit_per_s(1000.0)
    overlay = Overlay(sim, network, leaf_set_size=24, rng=random.Random(0))
    overlay.build(256, host_factory=lambda name: network.add_host(
        name, up_bw=bandwidth, down_bw=bandwidth
    ))
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
    handles = [
        mechanism.start(
            ctx, manager.states[f"app-{i}/state"].plan, overlay.replacement_for(owner),
            f"app-{i}/state",
        )
        for i, owner in enumerate(owners)
    ]
    assert len(run_handles(sim, handles)) == 16
    return overlay


def test_a_scale_star_shaped_cell_ends_unwired(world):
    overlays, passes = world
    overlay = scale_cell(StarRecovery(fanout_bits=2))
    assert overlays == [overlay] and not passes and door(overlay) == "unwired"
    assert rows_held(overlay) == 0


def test_a_scale_tree_shaped_cell_ends_drawn(world):
    overlays, passes = world
    overlay = scale_cell(TreeRecovery(fanout_bits=1, sub_shards=8))
    assert overlays == [overlay] and passes == [(overlay, False)] and door(overlay) == "drawn"
    assert rows_held(overlay) == 0


def test_fail_node_on_an_unwired_ring_allocates_no_row():
    lazy, eager = make_ring(Overlay, 0, 24), make_ring(ReferenceEagerOverlay, 0, 24)
    for ring in (lazy, eager):
        ring.build(64)
        for node in ring.nodes[:8]:
            ring.fail_node(node)
    assert lazy.repairs_performed == len(lazy._unwired_removals) > 0
    assert rows_held(lazy) == 0
    # The first read places every table and takes the crashed nodes back out.
    assert lazy.nodes[10].routing_table.size() > 0
    assert door(lazy) == "placed"
    assert placed_state(lazy) == placed_state(eager)
    assert lazy._rng.getstate() == eager._rng.getstate()
