"""What a node of the world costs: the budget the large cells are planned on.

A 1,000-node ``Overlay.build`` on default hosts is measured twice: the
GC-tracked objects it leaves alive (the collector's work on every full pass
grows with them) and the bytes ``tracemalloc`` attributes to it. The commit
before the world state was compacted read 22.3 objects and 7,771 bytes a
node; this one reads 14.3 and 3,363 on CPython 3.11. The limits sit about a
tenth above, so a structure stored twice again, or a per-node closure, fails
here before it shows in ``peak_rss_mb``.

Those are the figures of a ring whose routing tables are wired. A build
leaves them to the first read (``Overlay.settle_routing``), and a ring that
nobody routes over stays at 10.1 objects and 1,674 bytes a node; both
states are read here.
"""

import gc
import platform
import random
import sys
import tracemalloc

import pytest

from repro.dht.overlay import Overlay
from repro.sim.kernel import Simulator
from repro.sim.network import Network

NODES = 1_000
# Measured 14.3. Interpreters before 3.11 also give every Host a __dict__
# (15.3), which the limit leaves room for.
MAX_TRACKED_OBJECTS_PER_NODE = 16.0
MAX_TRACED_BYTES_PER_NODE = 3_700  # measured 3,363
# The same ring before anything reads a routing table.
MAX_UNWIRED_TRACKED_OBJECTS_PER_NODE = 12.0  # measured 10.1
MAX_UNWIRED_TRACED_BYTES_PER_NODE = 1_900  # measured 1,674

cpython_311 = pytest.mark.skipif(
    platform.python_implementation() != "CPython" or sys.version_info[:2] != (3, 11),
    reason="object sizes are those of CPython 3.11",
)


def build_world(settle: bool):
    sim = Simulator()
    network = Network(sim)
    overlay = Overlay(sim, network, rng=random.Random(0))
    overlay.build(NODES)
    if settle:
        overlay.settle_routing()
    return sim, network, overlay


def tracked_objects_per_node(settle: bool) -> float:
    build_world(settle)  # whatever the first build leaves in module-level caches
    gc.collect()
    before = len(gc.get_objects())
    world = build_world(settle)
    gc.collect()  # a full pass also untracks the tuples and dicts that hold no container
    per_node = (len(gc.get_objects()) - before) / NODES
    assert len(world[2].nodes) == NODES
    assert (world[2]._unwired_removals is None) == settle
    return per_node


def traced_bytes_per_node(settle: bool) -> float:
    build_world(settle)
    gc.collect()
    started_here = not tracemalloc.is_tracing()
    if started_here:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        world = build_world(settle)
        gc.collect()
        per_node = (tracemalloc.get_traced_memory()[0] - before) / NODES
    finally:
        if started_here:
            tracemalloc.stop()
    assert len(world[2].nodes) == NODES
    assert (world[2]._unwired_removals is None) == settle
    return per_node


def test_tracked_objects_per_node():
    per_node = tracked_objects_per_node(settle=True)
    assert per_node <= MAX_TRACKED_OBJECTS_PER_NODE, f"{per_node:.1f} tracked objects a node"


def test_tracked_objects_per_unwired_node():
    per_node = tracked_objects_per_node(settle=False)
    assert per_node <= MAX_UNWIRED_TRACKED_OBJECTS_PER_NODE, f"{per_node:.1f} tracked objects a node"


@cpython_311
def test_traced_bytes_per_node():
    per_node = traced_bytes_per_node(settle=True)
    assert per_node <= MAX_TRACED_BYTES_PER_NODE, f"{per_node:.0f} traced bytes a node"


@cpython_311
def test_traced_bytes_per_unwired_node():
    per_node = traced_bytes_per_node(settle=False)
    assert per_node <= MAX_UNWIRED_TRACED_BYTES_PER_NODE, f"{per_node:.0f} traced bytes a node"
