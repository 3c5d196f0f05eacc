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

from repro.streaming.tuples import StreamTuple
from repro.streaming.component import Bolt, OutputCollector, Spout
from repro.streaming.groupings import (
    AllGrouping,
    FieldsGrouping,
    GlobalGrouping,
    ShuffleGrouping,
)
from repro.streaming.topology import Topology, TopologyBuilder
from repro.streaming.stateful import StatefulBolt
from repro.streaming.join import IncrementalJoinBolt
from repro.streaming.microbatch import DStream, MicroBatchEngine, MicroBatchJob
from repro.streaming.windows import SlidingWindow, WindowPane
from repro.streaming.cluster import LocalCluster
from repro.streaming.backend import SR3StateBackend

__all__ = [
    "StreamTuple",
    "Spout",
    "Bolt",
    "OutputCollector",
    "ShuffleGrouping",
    "FieldsGrouping",
    "GlobalGrouping",
    "AllGrouping",
    "Topology",
    "TopologyBuilder",
    "StatefulBolt",
    "IncrementalJoinBolt",
    "DStream",
    "MicroBatchEngine",
    "MicroBatchJob",
    "SlidingWindow",
    "WindowPane",
    "LocalCluster",
    "SR3StateBackend",
]
