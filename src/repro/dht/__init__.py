"""Pastry-style DHT: the consistent ring overlay SR3 stores shards on.

Layer 1 of the SR3 design (Sec. 3.3): every stream operator is associated
with a *node* holding a random 128-bit id on a circular id space. Nodes
keep a prefix-routing table (O(log N) hop routing), a leaf set (the
numerically closest neighbours, used by star-structured recovery), and the
overlay is self-organizing and self-repairing.
"""

from repro._exports import export_table

__getattr__, __all__ = export_table(__name__, {
    "repro.dht.leafset": ("LeafSet",),
    "repro.dht.routing_table": ("RoutingTable",),
    "repro.dht.node": ("DhtNode",),
    "repro.dht.overlay": ("Overlay",),
    "repro.dht.maintenance": ("MaintenanceConfig", "run_maintenance_round", "measure_maintenance"),
    "repro.dht.join": ("JoinReport", "protocol_join"),
    "repro.dht.failure_detector": ("DetectorConfig", "FailureDetector"),
})
