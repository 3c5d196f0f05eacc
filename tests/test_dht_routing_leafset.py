"""Unit tests for the Pastry routing table and leaf set."""

import random

import pytest

from repro.dht.leafset import LeafSet
from repro.dht.node import DhtNode
from repro.dht.routing_table import RoutingTable
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.util.ids import NodeId, random_node_id


def make_nodes(count, seed=0):
    sim = Simulator()
    net = Network(sim)
    rng = random.Random(seed)
    return [
        DhtNode(random_node_id(rng), net.add_host(f"n{i}")) for i in range(count)
    ]


class TestRoutingTable:
    def test_add_places_by_prefix(self):
        nodes = make_nodes(2, seed=3)
        table = RoutingTable(nodes[0].node_id)
        assert table.add(nodes[1])
        row = nodes[0].node_id.shared_prefix_length(nodes[1].node_id)
        col = nodes[1].node_id.digits()[row]
        assert table._rows == {row: {col: nodes[1]}}

    def test_add_self_is_noop(self):
        nodes = make_nodes(1)
        table = RoutingTable(nodes[0].node_id)
        assert not table.add(nodes[0])
        assert table.size() == 0

    def test_occupied_slot_kept(self):
        # Two nodes with the same (row, col) slot: first one wins.
        nodes = make_nodes(40, seed=1)
        table = RoutingTable(nodes[0].node_id)
        for node in nodes[1:]:
            table.add(node)
        size_before = table.size()
        for node in nodes[1:]:
            assert not table.add(node)
        assert table.size() == size_before

    def test_remove(self):
        nodes = make_nodes(2, seed=5)
        table = RoutingTable(nodes[0].node_id)
        table.add(nodes[1])
        assert table.remove(nodes[1].node_id)
        assert not table.remove(nodes[1].node_id)
        assert table.size() == 0

    def test_next_hop_shares_longer_prefix(self):
        nodes = make_nodes(60, seed=2)
        owner = nodes[0]
        table = RoutingTable(owner.node_id)
        for node in nodes[1:]:
            table.add(node)
        rng = random.Random(9)
        for _ in range(20):
            key = random_node_id(rng)
            hop = table.next_hop(key)
            if hop is not None:
                own = owner.node_id.shared_prefix_length(key)
                assert hop.node_id.shared_prefix_length(key) > own

    def test_next_hop_skips_dead_nodes(self):
        nodes = make_nodes(2, seed=7)
        table = RoutingTable(nodes[0].node_id)
        table.add(nodes[1])
        nodes[1].fail()
        row = nodes[0].node_id.shared_prefix_length(nodes[1].node_id)
        key = nodes[1].node_id
        assert table.next_hop(key) is None

    def test_row_entries_and_refresh(self):
        nodes = make_nodes(30, seed=4)
        table = RoutingTable(nodes[0].node_id)
        added = table.refresh(nodes[1:])
        assert added == table.size() > 0
        rows = table.occupied_rows()
        assert rows and all(table.row_entries(r) for r in rows)

    def test_invalid_digit_width(self):
        with pytest.raises(ValueError):
            RoutingTable(NodeId(0), bits_per_digit=5)


class TestLeafSet:
    def test_size_must_be_even(self):
        with pytest.raises(ValueError):
            LeafSet(NodeId(0), size=3)

    def test_rebuild_halves(self):
        nodes = make_nodes(50, seed=6)
        owner = nodes[0]
        ls = LeafSet(owner.node_id, size=8)
        ls.rebuild(nodes[1:])
        assert len(ls.clockwise()) == 4
        assert len(ls.counter_clockwise()) == 4
        assert ls.is_full()

    def test_clockwise_sorted_by_proximity(self):
        nodes = make_nodes(50, seed=8)
        owner = nodes[0]
        ls = LeafSet(owner.node_id, size=8)
        ls.rebuild(nodes[1:])
        distances = [
            owner.node_id.clockwise_distance(n.node_id) for n in ls.clockwise()
        ]
        assert distances == sorted(distances)

    def test_members_excludes_owner(self):
        nodes = make_nodes(20, seed=2)
        ls = LeafSet(nodes[0].node_id, size=8)
        ls.rebuild(nodes)  # includes owner, must be filtered
        assert all(n.node_id != nodes[0].node_id for n in ls.members())

    def test_covers_keys_within_span(self):
        nodes = make_nodes(100, seed=11)
        owner = nodes[0]
        ls = LeafSet(owner.node_id, size=16)
        ls.rebuild(nodes[1:])
        # A key equal to a member id is always within the span.
        member = ls.clockwise()[0]
        assert ls.covers(member.node_id)

    def test_closest_prefers_nearest(self):
        nodes = make_nodes(100, seed=12)
        owner = nodes[0]
        ls = LeafSet(owner.node_id, size=16)
        ls.rebuild(nodes[1:])
        member = ls.clockwise()[1]
        found = ls.closest(member.node_id)
        assert found.node_id == member.node_id

    def test_closest_skips_dead(self):
        nodes = make_nodes(30, seed=13)
        ls = LeafSet(nodes[0].node_id, size=4)
        ls.rebuild(nodes[1:])
        target = ls.members()[0]
        target.fail()
        found = ls.closest(target.node_id)
        assert found is None or found.node_id != target.node_id
