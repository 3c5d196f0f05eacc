"""Scribe-style application-level multicast on top of the DHT.

SR3's tree-structured recovery builds its shard-aggregation spanning trees
on "a scalable application-level multicast infrastructure, called Scribe"
(Sec. 3.6). This package provides topic-based trees formed by the union of
DHT routes toward the topic root, plus balanced-tree construction with
configurable fan-out for the recovery mechanism.
"""

from repro._exports import export_table

__getattr__, __all__ = export_table(__name__, {
    "repro.multicast.scribe": ("ScribeSystem", "ScribeTopic"),
    "repro.multicast.tree": (
        "SpanningTree", "build_balanced_tree", "build_tree", "build_tree_with_depth",
        "fanout_for_depth",
    ),
})
