"""A Storm-like stream processing engine.

The substrate SR3 integrates with (Sec. 4): applications are *topologies*
— DAGs of spouts (sources) and bolts (processing units) — executing
record-at-a-time. Bolts may be stateful; their state lives in
:class:`~repro.state.store.StateStore` hashtables and can be protected by
SR3 through :class:`~repro.streaming.backend.SR3StateBackend`.

The engine runs topologies deterministically in-process
(:class:`~repro.streaming.cluster.LocalCluster`), with real tuples flowing
through real operator code — the examples and integration tests process
actual data and recover actual state.
"""

from repro._exports import export_table

__getattr__, __all__ = export_table(__name__, {
    "repro.streaming.tuples": ("StreamTuple",),
    "repro.streaming.component": ("Bolt", "OutputCollector", "Spout"),
    "repro.streaming.groupings": (
        "FieldsGrouping", "GlobalGrouping", "ShuffleGrouping",
    ),
    "repro.streaming.topology": ("Topology", "TopologyBuilder"),
    "repro.streaming.stateful": ("StatefulBolt",),
    "repro.streaming.join": ("IncrementalJoinBolt",),
    "repro.streaming.microbatch": ("DStream", "MicroBatchEngine", "MicroBatchJob"),
    "repro.streaming.windows": ("SlidingWindow", "WindowPane"),
    "repro.streaming.cluster": ("LocalCluster",),
    "repro.streaming.backend": ("SR3StateBackend",),
})
