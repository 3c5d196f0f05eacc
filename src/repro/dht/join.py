"""The Pastry join protocol, message by message.

:meth:`~repro.dht.overlay.Overlay.build` wires nodes omnisciently for
experiment scale; this module implements the *protocol* a real deployment
runs (Rowstron & Druschel, Sec. 2.3 of the Pastry paper), so tests can
check that protocol-built state converges to the omniscient wiring:

1. the newcomer X asks a bootstrap node A to route a JOIN to X's own id;
2. the JOIN traverses A = C0, C1, ..., Ck = Z, where Z is the node
   numerically closest to X;
3. every node on the path returns routing state: Ci contributes its row i
   (nodes sharing an i-digit prefix with X travel through matching rows),
   A additionally contributes row 0, and Z contributes its leaf set;
4. X assembles its tables from those contributions and announces itself
   to every node it now knows, which insert X into their own state.

All message sizes are charged to the network's control-byte counters, so
join cost is measurable (O(log N) messages).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.dht.node import DhtNode
from repro.dht.overlay import Overlay
from repro.errors import OverlayError
from repro.sim.network import Host

JOIN_REQUEST_BYTES = 96
STATE_ROW_BYTES = 320  # one routing-table row (16 entries) serialized
LEAF_SET_BYTES = 480  # a 24-entry leaf set serialized
ANNOUNCE_BYTES = 64


@dataclass
class JoinReport:
    """What one protocol join cost and touched."""

    node: DhtNode
    path_length: int
    messages: int
    control_bytes: float


def protocol_join(
    overlay: Overlay,
    host: Optional[Host] = None,
    bootstrap: Optional[DhtNode] = None,
) -> JoinReport:
    """Join one node through the real message exchange.

    Returns a :class:`JoinReport`; the node is fully wired into the
    overlay afterwards (leaf set, routing table, and the neighbours'
    state updated), equivalent to :meth:`Overlay.add_node` but with the
    cost and path of the actual protocol.
    """
    if not overlay.alive_nodes():
        raise OverlayError("cannot join an empty overlay")
    bootstrap = bootstrap or overlay.alive_nodes()[0]
    if not bootstrap.alive:
        raise OverlayError(f"bootstrap {bootstrap.name} is dead")

    node_host = host or overlay.network.add_host(f"node-{len(overlay.nodes)}")
    # Adopted like any built or added node, so the overlay's ring, alive
    # list and holder index see it; nobody's routing state names it until
    # the announcements below, so the JOIN still routes as if it were absent.
    newcomer = overlay._adopt(overlay._fresh_id(), node_host)

    messages = 0
    control_bytes = 0.0

    def send(src: DhtNode, dst: DhtNode, nbytes: float) -> None:
        nonlocal messages, control_bytes
        overlay.network.send_control(src.host, dst.host, nbytes)
        messages += 1
        control_bytes += nbytes

    # Step 1-2: route the JOIN from the bootstrap toward the newcomer's id.
    send(newcomer, bootstrap, JOIN_REQUEST_BYTES)
    destination, path = overlay.route(bootstrap, newcomer.node_id)

    # Step 3: each path node Ci returns the routing rows the newcomer can
    # use. Ci shares (at least) i digits of prefix with the JOIN key, so
    # its row i (and, for the bootstrap, row 0) transfers.
    for i, hop in enumerate(path):
        rows = {i}
        if i == 0:
            rows.add(0)
        for row in rows:
            for entry in hop.routing_table.row_entries(row):
                newcomer.routing_table.add(entry)
        # Every path node is itself a candidate entry.
        newcomer.routing_table.add(hop)
        send(hop, newcomer, STATE_ROW_BYTES * len(rows))
        if i > 0:
            send(path[i - 1], hop, JOIN_REQUEST_BYTES)  # the forwarded JOIN

    # Z (numerically closest) contributes its leaf set; the newcomer's own
    # leaf set derives from Z's plus Z itself.
    leaf_candidates = [destination] + [
        n for n in destination.leaf_set.members() if n.alive
    ]
    newcomer.leaf_set.rebuild(leaf_candidates)
    send(destination, newcomer, LEAF_SET_BYTES)

    # Step 4: announce to everything the newcomer now knows; receivers
    # insert the newcomer into their own routing state.
    for known in newcomer.known_nodes():
        if not known.alive:
            continue
        send(newcomer, known, ANNOUNCE_BYTES)
        known.routing_table.add(newcomer)
        if known.leaf_set.contains(newcomer.node_id):
            continue
        # A neighbour adopts the newcomer if it belongs in its leaf set.
        refreshed = list(known.leaf_set.members()) + [newcomer]
        known.leaf_set.rebuild(refreshed)

    return JoinReport(
        node=newcomer,
        path_length=len(path) - 1,
        messages=messages,
        control_bytes=control_bytes,
    )
