"""Tests for the message-level Pastry join protocol."""

import math
import random

import pytest

from repro.dht.join import protocol_join
from repro.dht.overlay import Overlay
from repro.errors import OverlayError
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.util.ids import random_node_id


def build_overlay(count, seed=0):
    sim = Simulator()
    net = Network(sim)
    overlay = Overlay(sim, net, rng=random.Random(seed))
    overlay.build(count)
    return overlay


class TestProtocolJoin:
    def test_join_registers_node(self):
        overlay = build_overlay(60, seed=1)
        report = protocol_join(overlay)
        assert report.node in overlay.nodes
        assert report.node.alive
        assert len(overlay.nodes) == 61

    def test_join_goes_through_the_overlays_adoption(self):
        """The newcomer is counted, sampled, indexed and observed like a
        node ``build`` or ``add_node`` made."""
        overlay = build_overlay(40, seed=8)
        newcomer = protocol_join(overlay).node
        assert overlay.alive_count() == len(overlay.alive_nodes()) == 41
        assert newcomer.join_order == 40
        assert newcomer in overlay.sample_nodes(41)
        assert newcomer in overlay._alive_ring()[1]
        for member in newcomer.leaf_set.members():
            assert newcomer in overlay._leafset_holders(member.node_id)
        overlay.fail_node(newcomer)
        assert overlay.alive_count() == len(overlay.alive_nodes()) == 40
        assert newcomer not in overlay._alive_ring()[1]

    def test_joined_node_is_routable(self):
        overlay = build_overlay(60, seed=2)
        report = protocol_join(overlay)
        dest, _ = overlay.route(overlay.nodes[0], report.node.node_id)
        assert dest.node_id == report.node.node_id

    def test_joined_node_can_route(self):
        overlay = build_overlay(100, seed=3)
        report = protocol_join(overlay)
        rng = random.Random(7)
        for _ in range(20):
            key = random_node_id(rng)
            dest, _ = overlay.route(report.node, key)
            assert dest.node_id == overlay.responsible_node(key).node_id

    def test_leaf_set_matches_ring_neighbours(self):
        overlay = build_overlay(120, seed=4)
        report = protocol_join(overlay)
        newcomer = report.node
        # The protocol-built leaf set must contain the true ring successor
        # and predecessor.
        ordered = sorted(overlay.nodes, key=lambda n: n.node_id.value)
        position = ordered.index(newcomer)
        successor = ordered[(position + 1) % len(ordered)]
        predecessor = ordered[(position - 1) % len(ordered)]
        assert newcomer.leaf_set.contains(successor.node_id)
        assert newcomer.leaf_set.contains(predecessor.node_id)

    def test_neighbours_adopt_newcomer(self):
        overlay = build_overlay(80, seed=5)
        report = protocol_join(overlay)
        adopters = [
            n
            for n in overlay.alive_nodes()
            if n is not report.node and n.leaf_set.contains(report.node.node_id)
        ]
        assert adopters, "ring neighbours must insert the newcomer"

    def test_join_cost_logarithmic(self):
        small = build_overlay(30, seed=6)
        large = build_overlay(400, seed=6)
        r_small = protocol_join(small)
        r_large = protocol_join(large)
        # O(log N) messages: a 13x larger overlay costs far less than 13x.
        assert r_large.messages <= r_small.messages * math.log(400) / math.log(30) * 3
        assert r_large.control_bytes > 0

    def test_join_charges_control_traffic(self):
        overlay = build_overlay(50, seed=7)
        before = overlay.network.total_control_bytes
        report = protocol_join(overlay)
        assert overlay.network.total_control_bytes - before == pytest.approx(
            report.control_bytes
        )

    def test_multiple_sequential_joins(self):
        overlay = build_overlay(40, seed=8)
        rng = random.Random(1)
        for _ in range(10):
            protocol_join(overlay)
        assert len(overlay.nodes) == 50
        for _ in range(20):
            key = random_node_id(rng)
            start = rng.choice(overlay.alive_nodes())
            dest, _ = overlay.route(start, key)
            assert dest.node_id == overlay.responsible_node(key).node_id

    def test_dead_bootstrap_rejected(self):
        overlay = build_overlay(10, seed=9)
        victim = overlay.nodes[0]
        overlay.fail_node(victim)
        with pytest.raises(OverlayError):
            protocol_join(overlay, bootstrap=victim)

    def test_routing_table_nontrivial(self):
        overlay = build_overlay(200, seed=10)
        report = protocol_join(overlay)
        assert report.node.routing_table.size() >= 4
