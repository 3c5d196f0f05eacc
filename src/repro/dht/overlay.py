"""The consistent ring overlay: membership, routing, and self-repair.

The overlay owns every :class:`DhtNode`, wires their leaf sets and routing
tables, routes keys in O(log N) hops with Pastry's rule (leaf set first,
then prefix match, then numeric fallback), and repairs neighbour state when
nodes crash. Construction is "omniscient" — leaf sets and routing tables
are filled from global knowledge rather than by replaying the join
protocol message-by-message — which preserves the structures' invariants
and asymptotics while letting experiments scale to the paper's 5,000-node
overlays.

Membership is three structures: the **alive ring** (the alive nodes sorted
by id, kept current by one bisect insert or delete per adoption, crash and
revival; leaf-set wiring and repair and the responsible node of a key are
slices of it), the **join-order alive list** ``sample_nodes`` draws from,
and the **reverse leaf-set index** (id -> the nodes whose leaf set holds it).
"""

from __future__ import annotations

import bisect
import math
import random
from collections import Counter
from collections.abc import Sequence as _SequenceABC
from copy import copy
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.dht.node import DhtNode
from repro.errors import OverlayError, RoutingError
from repro.sim.kernel import Simulator
from repro.sim.network import Host, Network
from repro.util.ids import ID_SPACE, NodeId, random_node_id

HostFactory = Callable[[str], Host]


class _FilteredPool(_SequenceABC):
    """A read-only view of ``base`` with the sorted ``skips`` positions
    removed.

    ``random.Random.sample`` touches a population only through ``len()``
    and indexing, so sampling this view draws byte-identically to sampling
    the materialized filtered list — without building an O(N) copy of the
    alive set per call.
    """

    __slots__ = ("_base", "_skips", "_len")

    def __init__(self, base: Sequence, skips: List[int]) -> None:
        self._base = base
        self._skips = skips
        self._len = len(base) - len(skips)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index: int):
        if index < 0:
            index += self._len
        if not 0 <= index < self._len:
            raise IndexError(index)
        real = index
        for skip in self._skips:
            if skip <= real:
                real += 1
            else:
                break
        return self._base[real]


class Overlay:
    """A self-organizing Pastry-style ring of :class:`DhtNode` peers.

    The overlay owns the generator it is given: a caller that kept it and
    drew from it directly would see the state before a build's table picks,
    which are drawn when ``rng`` or a routing table is next read.
    """

    MAX_ROUTE_HOPS = 128

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        leaf_set_size: int = 24,
        bits_per_digit: int = 4,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.leaf_set_size = leaf_set_size
        self.bits_per_digit = bits_per_digit
        self._rng = rng or random.Random(0)
        # (holder, failed id) of the repairs since a build whose rows are not
        # placed yet, None once they are; once the generator door has drawn
        # their picks, a copy of the generator before them and the build's nodes.
        self._unwired_removals: Optional[List[Tuple[DhtNode, NodeId]]] = None
        self._drawn: Optional[Tuple[random.Random, List[DhtNode]]] = None
        self.nodes: List[DhtNode] = []
        self._by_id: Dict[NodeId, DhtNode] = {}
        # The alive ring: (id values, nodes), both sorted by id. Built with
        # one sort on first use, then kept current by _membership_changed.
        self._ring: Optional[Tuple[List[int], List[DhtNode]]] = None
        # The nodes with the lowest and the highest id ever adopted, dead
        # or alive: the only wrap-around candidates of responsible_node.
        self._low: Optional[DhtNode] = None
        self._high: Optional[DhtNode] = None
        # The alive nodes in join order, the population sample_nodes draws
        # from, with a position index (id value -> offset). Rebuilt lazily
        # after a membership or liveness change.
        self._alive_cache: Optional[List[DhtNode]] = None
        self._alive_pos: Dict[int, int] = {}
        # Reverse leaf-set index: id value -> the nodes whose leaf set
        # holds that id, in no particular order. A build fills it from the
        # ring slices it wires (the relation is symmetric there); after
        # that the leaf sets' observers keep it.
        self._holders: Dict[int, List[DhtNode]] = {}
        # The liveness, leaf-set and routing-table observers and the table
        # door every adopted node gets: bound once, four shared method objects.
        self._observers = (self._membership_changed, self._leafset_changed,
                           self._bump_topology, self.settle_routing)
        # Monotonic counter bumped on any membership, liveness, leaf-set,
        # or routing-table change. Route memos (e.g. Scribe's) key their
        # validity on it: unchanged topology -> cached routes are exact.
        self.topology_version = 0
        self.repairs_performed = 0
        # Cached registry handles: routing is on the Scribe/recovery path.
        self._routes_counter = sim.metrics.counter("overlay.routes")
        self._hops_histogram = sim.metrics.histogram("overlay.route_hops")
        self._repairs_counter = sim.metrics.counter("overlay.repairs")

    # ------------------------------------------------------------ membership

    @property
    def rng(self) -> random.Random:
        """The overlay's one generator, past the pending table picks.

        The generator door: the first read after a build keeps a copy of the
        generator and the build's node list, then draws the picks without
        placing them (:meth:`settle_routing` places them).
        """
        if self._unwired_removals is not None and self._drawn is None:
            self._drawn = (copy(self._rng), list(self.nodes))
            self._table_picks(self.nodes, self._rng, place=False)
        return self._rng

    def build(self, count: int, host_factory: Optional[HostFactory] = None) -> List[DhtNode]:
        """Create ``count`` nodes with random ids and wire their leaf sets."""
        if count <= 0:
            raise OverlayError("overlay must contain at least one node")
        self.settle_routing()  # the previous build's rows go under this one's
        factory = host_factory or (lambda name: self.network.add_host(name))
        for i in range(count):
            self._adopt(self._fresh_id(), factory(f"node-{i}"))
        self._wire_leaf_sets()
        self._unwired_removals = []
        return list(self.nodes)

    def close(self) -> None:
        """Cut the node graph (cyclic by nature: neighbours hold each other)
        and the observers that point nodes here. Nodes, liveness, counters
        and the doors' state stay readable; twice is harmless."""
        for node in self.nodes:
            node._on_liveness_change = node._settle_routing = None
            node.leaf_set.install([], [])
            node.leaf_set.on_membership_change = node._routing_table.on_change = None
            node._routing_table._rows = {}
        self._holders, self._ring, self._alive_cache, self._observers = {}, None, None, ()

    def settle_routing(self) -> None:
        """The table door: place the last build's routing rows, if nothing has.

        Nothing moves a pick between a build and its doors: an adoption
        draws an id through the generator door first, and a table mutation
        reads the table. So the picks are drawn again from the copy and the
        node list that door kept, or from the live generator if it never
        opened; the repairs since only took entries out, replayed in order.
        """
        removals = self._unwired_removals
        if removals is None:
            return
        self._unwired_removals = None
        rng, nodes = self._drawn or (self._rng, self.nodes)
        self._drawn = None
        self._table_picks(nodes, rng, place=True)
        for holder, failed_id in removals:
            holder._routing_table.remove(failed_id)

    def add_node(self, host: Optional[Host] = None) -> DhtNode:
        """Join one node after the initial build (the replacing-node path)."""
        node_host = host or self.network.add_host(f"node-{len(self.nodes)}")
        node = self._adopt(self._fresh_id(), node_host)
        # Wire the newcomer fully, then refresh the ring neighbours it
        # landed between (its own leaf-set members must adopt it).
        self._reseed(node)
        node.routing_table.refresh(self.alive_nodes())
        for neighbour in node.leaf_set.members():
            self._reseed(neighbour)
            neighbour.routing_table.add(node)
        self.sim.tracer.instant(
            f"node joined {node.name}", category="overlay.join", node=node.name
        )
        self.sim.metrics.counter("overlay.joins").add(1)
        return node

    def _adopt(self, node_id: NodeId, host: Host) -> DhtNode:
        """Create a node, register it and hook it into the overlay's caches."""
        node = DhtNode(node_id, host, self.leaf_set_size, self.bits_per_digit)
        node.join_order = len(self.nodes)
        self.nodes.append(node)
        self._by_id[node_id] = node
        (
            node._on_liveness_change,
            node.leaf_set.on_membership_change,
            node._routing_table.on_change,
            node._settle_routing,
        ) = self._observers
        if self._low is None or node_id.value < self._low.node_id.value:
            self._low = node
        if self._high is None or node_id.value > self._high.node_id.value:
            self._high = node
        self._membership_changed(node)
        return node

    def _membership_changed(self, node: DhtNode) -> None:
        """An adoption, or the liveness observer DhtNode.fail()/revive()
        fire on an actual flip: put the node on the ring or take it off."""
        self._alive_cache = None
        self.topology_version += 1
        if self._ring is not None:
            values, nodes = self._ring
            at = bisect.bisect_left(values, node.node_id.value)
            if node.alive:
                values.insert(at, node.node_id.value)
                nodes.insert(at, node)
            else:
                del values[at], nodes[at]

    def _alive_ring(self) -> Tuple[List[int], List[DhtNode]]:
        """The alive ring. Callers must not mutate it."""
        ring = self._ring
        if ring is None:
            ordered = sorted((n for n in self.nodes if n.alive), key=lambda n: n.node_id.value)
            ring = self._ring = ([n.node_id.value for n in ordered], ordered)
        return ring

    def _bump_topology(self) -> None:
        self.topology_version += 1

    def _leafset_changed(
        self, owner_id: NodeId, added: Iterable[int], removed: Iterable[int]
    ) -> None:
        self.topology_version += 1
        node = self._by_id[owner_id]
        holders = self._holders
        for value in added:
            holders.setdefault(value, []).append(node)
        for value in removed:
            bucket = holders.get(value)
            if bucket is not None and node in bucket:
                bucket.remove(node)

    def _fresh_id(self) -> NodeId:
        while True:
            node_id = random_node_id(self.rng)
            if node_id not in self._by_id:
                return node_id

    def _wire_leaf_sets(self) -> None:
        """Install every alive node's leaf set, and the reverse index, from
        slices of the alive ring: the window around a ring position is what
        ``rebuild`` would sort out of the whole ring. The relation wired
        this way is symmetric, so the holders of X are X's own members: one
        list per node for the index, not one observer call per member."""
        ordered = self._alive_ring()[1]
        n = len(ordered)
        half = min(self.leaf_set_size // 2, max(0, n - 1))
        if n - 1 < 2 * half:
            # Tiny ring: window offsets overlap modulo n; let rebuild
            # resolve duplicates the way it always has.
            for i, node in enumerate(ordered):
                window = [ordered[(i + off) % n] for off in range(-half, half + 1) if off]
                node.leaf_set.rebuild(window)
            return
        # Dead nodes keep the leaf sets they died with, and their entries.
        stale = [
            (value, [holder for holder in bucket if not holder.alive])
            for value, bucket in self._holders.items()
        ]
        holders = self._holders = {}
        # The ring's ends are wrapped on, one entry more in front so no
        # reversed slice stops at -1.
        ring = ordered[-half - 1:] + ordered + ordered[:half]
        for at, node in enumerate(ordered, half + 1):
            clockwise = ring[at + 1 : at + 1 + half]
            counter = ring[at - 1 : at - 1 - half : -1]
            node.leaf_set.install(clockwise, counter)
            holders[node.node_id.value] = counter + clockwise
        for value, dead in stale:
            if dead:
                holders.setdefault(value, []).extend(dead)
        self.topology_version += 1

    def _table_picks(self, nodes: List[DhtNode], rng: random.Random, place: bool) -> None:
        """Draw the routing-table picks of a build over ``nodes`` from ``rng``
        and, with ``place``, write each into its slot. A draw needs only the
        prefix buckets' sizes: their pools of nodes are built only to place."""
        max_depth = max(1, math.ceil(math.log(len(nodes), 1 << self.bits_per_digit))) + 2
        # Rows past max_depth are never filled, so neither are their digits read.
        digits_of = [node.node_id.digits(self.bits_per_digit, max_depth) for node in nodes]
        pools: Dict[tuple, List[DhtNode]] = {}
        if place:
            for node, digits in zip(nodes, digits_of):
                for depth in range(1, max_depth + 1):
                    pools.setdefault(digits[:depth], []).append(node)
        sizes = Counter(d[:depth] for d in digits_of for depth in range(max_depth + 1))
        # The populated columns under each prefix of two or more nodes, so a
        # row walks them instead of hashing `prefix + (col,)` per column.
        children: Dict[tuple, List[tuple]] = {}
        for key, size in sizes.items():
            if key and sizes[key[:-1]] > 1:
                entry = (key[-1], size, size.bit_length(), pools.get(key))
                children.setdefault(key[:-1], []).append(entry)
        for entries in children.values():
            entries.sort()  # columns are unique, so nothing past them is compared
        # The pick is `rng.choice(pool)` written out: random.Random draws
        # `getrandbits(n.bit_length())` until the value falls below n.
        getrandbits = rng.getrandbits
        for node, digits in zip(nodes, digits_of):
            for row in range(max_depth):
                entries = children.get(digits[:row])
                if entries is None:
                    break  # the node is alone under this prefix and every longer one
                own = digits[row]
                if place and len(entries) > 1:  # not for the node's own column alone
                    # Each pick shares exactly `row` digits with the owner and
                    # has `col` next: the slot add() would choose, written directly.
                    slots = node._routing_table._rows.setdefault(row, {})
                for col, size, bits, pool in entries:
                    if col != own:
                        pick = getrandbits(bits)
                        while pick >= size:
                            pick = getrandbits(bits)
                        if place:
                            slots[col] = pool[pick]

    # --------------------------------------------------------------- queries

    def alive_nodes(self) -> List[DhtNode]:
        return list(self._alive_list())

    def alive_count(self) -> int:
        """Number of alive nodes: the length of the alive ring."""
        return len(self._alive_ring()[0])

    def _alive_list(self) -> List[DhtNode]:
        """The cached alive-node list (self.nodes order). Callers must
        not mutate it; it is shared until the next liveness change."""
        cache = self._alive_cache
        if cache is None:
            cache = self._alive_cache = [n for n in self.nodes if n.alive]
            self._alive_pos = {n.node_id.value: i for i, n in enumerate(cache)}
        return cache

    def node_for_id(self, node_id: NodeId) -> DhtNode:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise OverlayError(f"unknown node id {node_id!r}") from None

    def responsible_node(self, key: NodeId) -> DhtNode:
        """Ground truth: the alive node responsible for ``key``.

        The closest of the alive nodes on either side of the key in linear
        id order (one bisect of the alive ring) and, for the wrap around
        the ring's ends, the nodes with the lowest and the highest id ever
        adopted *while they are alive*. Once such an end node has died a
        key that wraps no longer sees that end, so the answer may not be
        the numerically closest alive node: every simulated placement was
        drawn with this rule, and it is kept as a contract (DESIGN.md).
        """
        values, nodes = self._alive_ring()
        if not nodes:
            raise OverlayError("overlay has no alive nodes")
        value = key.value
        at = bisect.bisect_left(values, value)
        if 0 < at < len(nodes):
            # Between two alive nodes neither end can be closer than both,
            # the long way round included; a tie goes to the lower id.
            down, up = value - values[at - 1], values[at] - value
            if min(down, ID_SPACE - down) <= min(up, ID_SPACE - up):
                return nodes[at - 1]
            return nodes[at]
        candidates = [nodes[max(at - 1, 0)]]
        candidates += [end for end in (self._low, self._high) if end.alive]
        return min(candidates, key=lambda n: (key.distance(n.node_id), n.node_id.value))

    def leaf_set_of(self, node: DhtNode, refresh: bool = False) -> List[DhtNode]:
        """Alive leaf-set members of ``node`` (optionally re-wired first)."""
        if refresh:
            self._reseed(node)
        return [n for n in node.leaf_set.members() if n.alive]

    def _reseed(self, owner: DhtNode) -> None:
        """Re-select ``owner``'s leaf set from the alive ring: what
        ``rebuild`` would sort out of all alive nodes, without the sorts."""
        owner.leaf_set.seed(*self._ring_sides(owner))

    def _ring_sides(self, owner: DhtNode) -> Tuple[List[DhtNode], List[DhtNode]]:
        """The nearest ``half`` alive nodes clockwise and counter-clockwise
        of ``owner`` (alive or dead), nearest first: two slices of the alive
        ring around its position. A ring with fewer than ``half`` other
        nodes gives all of them on both sides."""
        values, nodes = self._alive_ring()
        n = len(nodes)
        at = bisect.bisect_left(values, owner.node_id.value)
        present = at < n and nodes[at] is owner  # the owner is no neighbour of its own
        take = min(owner.leaf_set.half, n - present)
        clockwise = nodes[at + present : at + present + take]
        clockwise += nodes[: take - len(clockwise)]  # wrapped past the highest id
        counter = nodes[max(at - take, 0) : at][::-1]
        if len(counter) < take:  # wrapped past the lowest id
            counter += nodes[: len(counter) - take - 1 : -1]
        return clockwise, counter

    # ---------------------------------------------------------------- routing

    def route(self, start: DhtNode, key: NodeId) -> Tuple[DhtNode, List[DhtNode]]:
        """Route ``key`` from ``start``; returns (destination, full path).

        Implements Pastry's forwarding rule. The path includes the start
        node and the destination; ``len(path) - 1`` is the hop count.
        """
        if not start.alive:
            raise RoutingError(f"routing from dead node {start.name}")
        current = start
        path = [current]
        for _ in range(self.MAX_ROUTE_HOPS):
            nxt = self._next_hop(current, key)
            if nxt is None:
                self._trace_route(start, current, path)
                return current, path
            current = nxt
            path.append(current)
        raise RoutingError(f"routing loop for key {key!r} starting at {start.name}")

    def _trace_route(self, start: DhtNode, dest: DhtNode, path: List[DhtNode]) -> None:
        hops = len(path) - 1
        self._routes_counter.add(1)
        self._hops_histogram.observe(hops)
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.instant(
                f"route {start.name}->{dest.name}",
                category="overlay.route",
                start=start.name,
                dest=dest.name,
                hops=hops,
                path=[n.name for n in path],
            )

    def _next_hop(self, current: DhtNode, key: NodeId) -> Optional[DhtNode]:
        # Rule 1: key within leaf-set span -> deliver to the closest leaf.
        if current.leaf_set.covers(key):
            closest = current.leaf_set.closest(key)
            if closest is not None and key.distance(closest.node_id) < key.distance(current.node_id):
                return closest
            return None
        # Rule 2: prefix routing table entry sharing one more digit.
        candidate = current.routing_table.next_hop(key)
        if candidate is not None:
            return candidate
        # Rule 3 (rare): any known alive node strictly closer to the key
        # whose shared prefix is at least as long.
        own_prefix = current.node_id.shared_prefix_length(key, self.bits_per_digit)
        own_distance = key.distance(current.node_id)
        best = None
        best_distance = own_distance
        for node in current.known_nodes():
            if not node.alive:
                continue
            if node.node_id.shared_prefix_length(key, self.bits_per_digit) < own_prefix:
                continue
            d = key.distance(node.node_id)
            if d < best_distance:
                best, best_distance = node, d
        return best

    def hops(self, start: DhtNode, key: NodeId) -> int:
        """Convenience: hop count for routing ``key`` from ``start``."""
        _, path = self.route(start, key)
        return len(path) - 1

    # ----------------------------------------------------------------- repair

    def fail_node(self, node: DhtNode, repair: bool = True) -> None:
        """Crash a node; neighbours repair their leaf sets and tables.

        Repair exchanges are charged as control traffic: each repairing
        neighbour contacts the edge of its leaf set to fetch a replacement
        (Pastry's leaf-set repair protocol).
        """
        if not node.alive:
            return
        node.fail()
        self.network.fail_host(node.host)
        self.sim.tracer.instant(
            f"node failed {node.name}", category="overlay.failure", node=node.name
        )
        self.sim.metrics.counter("overlay.failures").add(1)
        if not repair:
            return
        unwired = self._unwired_removals
        for holder in self._leafset_holders(node.node_id):
            if unwired is None:
                holder._routing_table.remove(node.node_id)
            else:
                unwired.append((holder, node.node_id))
            # The ring no longer holds the failed node, so the one re-seed
            # both drops it and pulls in the next neighbour.
            self._reseed(holder)
            # One request/response pair with a leaf-set edge node.
            edge = holder.leaf_set.last_member()
            if edge is not None:
                self.network.send_control(holder.host, edge.host, 64)
                self.network.send_control(edge.host, holder.host, 256)
            self.repairs_performed += 1
            self._repairs_counter.add(1)

    def _leafset_holders(self, node_id: NodeId) -> List[DhtNode]:
        """The alive nodes whose leaf set holds ``node_id``, in join order."""
        bucket = self._holders.get(node_id.value)
        if not bucket:
            return []
        holders = [n for n in bucket if n.alive]
        holders.sort(key=lambda n: n.join_order)
        return holders

    def replacement_for(self, failed: DhtNode) -> DhtNode:
        """The node that takes over a failed node's key range.

        Pastry hands the failed node's keys to the numerically closest
        surviving node — the paper's "replacing node" (e.g. N6 replacing N5
        in Fig. 3).
        """
        if failed.alive:
            raise OverlayError(f"{failed.name} has not failed")
        return self.responsible_node(failed.node_id)

    def sample_nodes(self, count: int, exclude: Sequence[DhtNode] = ()) -> List[DhtNode]:
        """Uniformly sample distinct alive nodes, excluding the given ones.

        The population is the cached alive list with the excluded positions
        masked out (:class:`_FilteredPool`): O(|exclude| + count) a call.
        """
        alive = self._alive_list()
        skips: List[int] = []
        seen = set()
        for node in exclude:
            value = node.node_id.value
            if value in seen:
                continue
            seen.add(value)
            position = self._alive_pos.get(value)
            if position is not None and alive[position] is node:
                skips.append(position)
        if skips:
            skips.sort()
            pool: Sequence[DhtNode] = _FilteredPool(alive, skips)
        else:
            pool = alive
        if count > len(pool):
            raise OverlayError(f"cannot sample {count} nodes from pool of {len(pool)}")
        return self.rng.sample(pool, count)
