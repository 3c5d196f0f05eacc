"""Host-time attribution from outside the program.

`LayerTrace.install()` wraps public functions of the ``repro`` packages
with timers that share one span stack; `uninstall()` puts the originals
back. Nothing under ``src/`` is edited: the wrappers are set on classes and
modules at run time, only for the traced cells.

A *layer* is a ``repro`` package (``repro.sim`` is split into ``sim.kernel``
and ``sim.network``). Every wrapped call pushes a frame; when it returns,
its duration is added to the parent frame's child time, and its **self
time** (duration minus child time) to its ``(layer, bucket)`` slot. Self
times therefore tile the traced cell exactly: whatever no wrapper claims
stays with the root frame and is reported as ``harness.self_s``.

Event-loop time is charged to the package that *defined* the callback:
`Simulator.schedule` and the ``on_*`` arguments of `Network.transfer`,
`Network.send_control`, `SaveHandle.on_done` and `RecoveryHandle.on_done`
are replaced by timed closures. What remains of `Simulator.run` after its
callbacks is the kernel's own dispatch cost.

The wrapper's bookkeeping (~0.5 us per call) lands in the *caller's* self
time, so layers that make many tiny wrapped calls look a little heavier
than they are; ``trace.overhead_ratio`` says how much the whole cell grew.
"""

from __future__ import annotations

import sys
from functools import partial
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

from repro.chaos import check_invariants, run_campaign, run_scenario
from repro.dht import Overlay, protocol_join
from repro.live import LoadDriver, build_live_cell
from repro.multicast import ScribeSystem, build_tree, build_tree_with_depth
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullTracer,
    Span,
    TimeSeries,
    Tracer,
    profile_tracers,
)
from repro.recovery import (
    LineRecovery,
    RecoveryHandle,
    RecoveryManager,
    SpeculativeStarRecovery,
    StandbyRecovery,
    StarRecovery,
    TreeRecovery,
    sr3_save,
)
from repro.recovery.baselines import CheckpointingBaseline
from repro.recovery.save import SaveHandle
from repro.sim import Network, Simulator
from repro.state import (
    HashPlacement,
    LeafSetPlacement,
    StateStore,
    diff_snapshots,
    merge_shards,
    partition_delta,
    partition_snapshot,
    partition_synthetic,
    reconstruct_chain,
)
from repro.streaming import (
    FieldsGrouping,
    LocalCluster,
    ShuffleGrouping,
    SR3StateBackend,
    StatefulBolt,
    Topology,
)
from repro.workloads import SentenceGenerator, SplitSentenceBolt
from repro.workloads.wordcount import SentenceSpout

Key = Tuple[str, str]  # (layer, bucket)

HARNESS: Key = ("harness", "self")

# Methods wrapped with a timer. ``span`` rows also keep one span per call
# (they run at most ~10k times a cell); the rest only accumulate, because
# they run once per tuple, flow or event.
#   (owner, method names, layer, bucket, span)
METHOD_PROBES = [
    (Simulator, ("run",), "sim.kernel", "dispatch_self", True),
    (Simulator, ("cancel",), "sim.kernel", "cancel", False),
    (
        Network,
        (
            "open_app_flow", "set_flow_demand", "close_app_flow", "abort_flow",
            "add_host", "fail_host", "recover_host", "partition",
            "heal_partition", "set_host_bandwidth",
        ),
        "sim.network", "api_self", False,
    ),
    (Overlay, ("build",), "dht", "build", True),
    (Overlay, ("fail_node",), "dht", "fail_node", True),
    (Overlay, ("add_node",), "dht", "join", True),
    (Overlay, ("route", "hops"), "dht", "route", False),
    (
        Overlay,
        ("responsible_node", "replacement_for", "leaf_set_of", "sample_nodes",
         "alive_nodes", "node_for_id"),
        "dht", "lookup", False,
    ),
    (ScribeSystem, ("create_topic", "subscribe", "subscribe_many", "unsubscribe",
                    "publish", "repair"), "multicast", "api_self", False),
    (RecoveryManager, ("register", "refresh_shards", "save", "save_delta", "save_all"),
     "recovery", "save_api", True),
    (RecoveryManager, ("recover", "on_failures", "recovered_snapshot"),
     "recovery", "start", True),
    (StarRecovery, ("start",), "recovery", "start", True),
    (LineRecovery, ("start",), "recovery", "start", True),
    (TreeRecovery, ("start",), "recovery", "start", True),
    (SpeculativeStarRecovery, ("start",), "recovery", "start", True),
    (StandbyRecovery, ("start",), "recovery", "start", True),
    (CheckpointingBaseline, ("save", "recover"), "recovery", "start", True),
    (StateStore, ("put",), "state", "store_put", False),
    (StateStore, ("get",), "state", "store_get", False),
    (StateStore, ("update", "delete", "dirty_keys", "deleted_keys", "mark_clean"),
     "state", "store_update", False),
    (StateStore, ("snapshot",), "state", "snapshot", False),
    (StateStore, ("restore",), "state", "restore", False),
    (HashPlacement, ("place",), "state", "placement", False),
    (LeafSetPlacement, ("place",), "state", "placement", False),
    (LocalCluster, ("inject",), "streaming", "inject", False),
    (LocalCluster, ("run",), "streaming", "run", True),
    (LocalCluster, ("checkpoint",), "streaming", "checkpoint", True),
    (SR3StateBackend, ("save_all", "save_task"), "streaming", "checkpoint", False),
    (LocalCluster, ("kill_task", "revive_task", "recover_task"),
     "streaming", "recover_task", True),
    (SR3StateBackend, ("recover_task", "rebuild_store", "rollback_task"),
     "streaming", "recover_task", True),
    (LocalCluster, ("state_checksums",), "streaming", "checksums", True),
    (FieldsGrouping, ("choose",), "streaming", "grouping_choose", False),
    (ShuffleGrouping, ("choose",), "streaming", "grouping_choose", False),
    (Topology, ("downstream_of",), "streaming", "downstream_of", False),
    (SplitSentenceBolt, ("execute",), "workloads", "bolt_execute", False),
    (StatefulBolt, ("execute",), "workloads", "bolt_execute", False),
    (SentenceSpout, ("next_tuple",), "workloads", "source_next", False),
    (LoadDriver, ("__init__", "run"), "live", "build", True),
    (Tracer, ("start", "record", "instant"), "obs", "tracer", False),
    (NullTracer, ("start", "record", "instant"), "obs", "tracer", False),
    (Span, ("finish",), "obs", "tracer", False),
    (Counter, ("add",), "obs", "registry", False),
    (TimeSeries, ("record",), "obs", "registry", False),
    (Histogram, ("observe",), "obs", "registry", False),
    (Gauge, ("set", "inc", "dec"), "obs", "registry", False),
    (MetricsRegistry, ("counter", "series", "gauge", "histogram"),
     "obs", "registry", False),
]

# Module-level functions: every loaded module that imported the name is
# re-pointed at the wrapper, because ``from x import f`` copies the binding.
FUNCTION_PROBES = [
    (protocol_join, "dht", "join", True),
    (build_tree, "multicast", "api_self", False),
    (build_tree_with_depth, "multicast", "api_self", False),
    (sr3_save, "recovery", "save_api", False),
    (partition_synthetic, "state", "partition", False),
    (partition_snapshot, "state", "partition", False),
    (partition_delta, "state", "partition", False),
    (diff_snapshots, "state", "partition", False),
    (merge_shards, "state", "partition", False),
    (reconstruct_chain, "state", "partition", False),
    (build_live_cell, "live", "build", True),
    (run_campaign, "chaos", "cell_self", True),
    (run_scenario, "chaos", "cell_self", True),
    (check_invariants, "chaos", "invariant_check", True),
    (profile_tracers, "obs", "profile", False),
]


def layer_of(module: str) -> str:
    """The layer that owns code defined in ``module``."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return "harness"
    if parts[1] == "sim":
        return "sim.kernel" if parts[2:3] == ["kernel"] else "sim.network"
    return parts[1]


class LayerTrace:
    """One span stack, its accumulators, and the wrappers that feed them."""

    def __init__(self) -> None:
        self.slots: Dict[Key, List[float]] = {}  # key -> [calls, self_s]
        self.spans: List[tuple] = []  # (id, parent, layer, name, start, end, cell)
        self.cell = 0
        self.simulators: List[Any] = []
        self.overlays: List[Any] = []
        self.clusters: List[Any] = []
        self._stack: List[List[float]] = []  # frames: [start, child_s, span_id]
        self._next_span = 1
        self._restore: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ cell frame

    def begin_cell(self, cell: int) -> None:
        """Open the root frame: everything until `end_cell` is attributed."""
        self.cell = cell
        for slot in self.slots.values():
            slot[0], slot[1] = 0, 0.0
        del self.simulators[:], self.overlays[:], self.clusters[:]
        self._stack.append([perf_counter(), 0.0, 0])

    def end_cell(self) -> None:
        """Close the root frame; what no wrapper claimed is the harness's."""
        end = perf_counter()
        start, child_s, _ = self._stack.pop()
        if self._stack:
            raise RuntimeError("a traced call is still open at the end of the cell")
        self._slot(HARNESS)[1] += (end - start) - child_s
        self.spans.append((0, None, "harness", "cell", start, end, self.cell))

    # -------------------------------------------------------------- wrappers

    def _slot(self, key: Key) -> List[float]:
        slot = self.slots.get(key)
        if slot is None:
            slot = self.slots[key] = [0, 0.0]
        return slot

    def timed(self, fn: Callable, key: Key, span_name: str = "") -> Callable:
        """``fn`` with a frame around every call; a span too if named."""
        stack = self._stack
        slot = self._slot(key)
        spans = self.spans
        layer = key[0]

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not stack:  # outside a traced cell: stay out of the way
                return fn(*args, **kwargs)
            parent = stack[-1]
            span_id = parent[2]
            if span_name:
                span_id = self._next_span
                self._next_span = span_id + 1
            frame = [perf_counter(), 0.0, span_id]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[0]
                slot[0] += 1
                slot[1] += duration - frame[1]
                parent[1] += duration
                if span_name:
                    spans.append(
                        (span_id, parent[2], layer, span_name, frame[0], end, self.cell)
                    )

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def callback(self, fn: Any) -> Any:
        """``fn`` timed as a callback of the package that defined it."""
        if fn is None or getattr(fn, "__wrapped__", None) is not None:
            return fn
        target = fn.func if isinstance(fn, partial) else fn
        layer = layer_of(getattr(target, "__module__", None) or "")
        return self.timed(fn, HARNESS if layer == "harness" else (layer, "callback_self"))

    def iterator(self, iterator: Any, key: Key) -> Any:
        """``iterator`` with every ``next`` call timed."""
        return iter(self.timed(iterator.__next__, key), _NEVER)

    # ------------------------------------------------------- install/restore

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("wrappers are already installed")
        for owner, names, layer, bucket, span in METHOD_PROBES:
            for name in names:
                label = f"{owner.__name__}.{name}" if span else ""
                self._patch(owner, name, self.timed(getattr(owner, name), (layer, bucket), label))
        for fn, layer, bucket, span in FUNCTION_PROBES:
            wrapper = self.timed(fn, (layer, bucket), fn.__name__ if span else "")
            for module in list(sys.modules.values()):
                for attr, value in list(getattr(module, "__dict__", {}).items()):
                    if value is fn:
                        self._patch(module, attr, wrapper)
        sentences = SentenceGenerator.__iter__
        self._patch(
            SentenceGenerator, "__iter__",
            lambda generator: self.iterator(sentences(generator), ("workloads", "source_next")),
        )
        self._install_callback_rewriters()
        self._install_collectors()

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        del self._restore[:]

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def _install_callback_rewriters(self) -> None:
        """Wrap the functions that *take* callbacks so they hand on timed ones."""
        trace_callback = self.callback
        # The rewriting happens before the timed frame opens, so its cost
        # is not booked as kernel or network time.
        schedule = self.timed(Simulator.schedule, ("sim.kernel", "schedule"))
        transfer = self.timed(Network.transfer, ("sim.network", "api_self"))
        send_control = self.timed(Network.send_control, ("sim.network", "api_self"))

        def traced_schedule(sim, delay, callback, *args):
            return schedule(sim, delay, trace_callback(callback), *args)

        def traced_transfer(net, src, dst, nbytes, on_complete=None, on_abort=None,
                            tag=None, parent_span=None):
            return transfer(
                net, src, dst, nbytes,
                trace_callback(on_complete), trace_callback(on_abort), tag, parent_span,
            )

        def traced_send_control(net, src, dst, nbytes, on_delivery=None):
            return send_control(net, src, dst, nbytes, trace_callback(on_delivery))

        self._patch(Simulator, "schedule", traced_schedule)
        self._patch(Network, "transfer", traced_transfer)
        self._patch(Network, "send_control", traced_send_control)
        for handle_cls in (SaveHandle, RecoveryHandle):
            on_done = handle_cls.on_done

            def traced_on_done(handle, callback, _on_done=on_done):
                return _on_done(handle, trace_callback(callback))

            self._patch(handle_cls, "on_done", traced_on_done)

    def _install_collectors(self) -> None:
        """Remember the objects whose public counters the report reads."""
        for cls, sink in (
            (Simulator, self.simulators),
            (Overlay, self.overlays),
            (LocalCluster, self.clusters),
        ):
            init = cls.__init__

            def collecting_init(obj, *args, _init=init, _sink=sink, **kwargs):
                _sink.append(obj)
                return _init(obj, *args, **kwargs)

            self._patch(cls, "__init__", collecting_init)

    # ----------------------------------------------------------------- spans

    def span_records(self) -> List[Dict[str, Any]]:
        """Spans as dicts, times in seconds since the first span started."""
        if not self.spans:
            return []
        origin = min(span[4] for span in self.spans)
        return [
            {
                "id": f"{cell}.{span_id}",
                "parent": None if parent is None else f"{cell}.{parent}",
                "layer": layer,
                "name": name,
                "start": start - origin,
                "end": end - origin,
                "cell": cell,
            }
            for span_id, parent, layer, name, start, end, cell in self.spans
        ]


class _Never:
    """Sentinel no iterator yields, for the two-argument form of `iter`."""


_NEVER = _Never()


# ------------------------------------------------------------ metric table
#
# name -> (unit, source). Sources:
#   ("self", layer, bucket..) self seconds of a slot (summed over several buckets)
#   ("calls", layer, bucket)  calls into a slot
#   ("counter", name)         a sim.metrics counter, summed over the cell's simulators
#   ("sim", key)              an exact simulated value from the cell's Outcome
#   a function of the CellView for the few that need arithmetic
# Counts repeat exactly from cell to cell; seconds are host time.

def _events(view: "CellView") -> float:
    return sum(sim.events_processed for sim in view.trace.simulators)


def _us_per_event(view: "CellView") -> float:
    kernel = sum(view.self_s("sim.kernel", b) for b in ("dispatch_self", "schedule", "cancel"))
    return 1e6 * kernel / max(1.0, _events(view))


def _peak_live_flows(view: "CellView") -> float:
    peaks = [0.0]
    for sim in view.trace.simulators:
        series = sim.metrics.all_series().get("net.flows_active")
        if series is not None and len(series):
            peaks.append(max(series.values()))
    return max(peaks)


LAYER_METRICS: Dict[str, Tuple[str, Any]] = {
    "sim.kernel.events": ("count", _events),
    "sim.kernel.scheduled": ("count", ("calls", "sim.kernel", "schedule")),
    "sim.kernel.dispatch_self_s": ("s", ("self", "sim.kernel", "dispatch_self")),
    "sim.kernel.schedule_s": ("s", ("self", "sim.kernel", "schedule")),
    "sim.kernel.cancel_s": ("s", ("self", "sim.kernel", "cancel")),
    "sim.kernel.us_per_event": ("us", _us_per_event),
    "sim.network.flows_started": ("count", ("counter", "net.flows_started")),
    "sim.network.flows_completed": ("count", ("counter", "net.flows_completed")),
    "sim.network.flows_aborted": ("count", ("counter", "net.flows_aborted")),
    "sim.network.bytes_moved": ("bytes", ("counter", "net.flow_bytes")),
    "sim.network.peak_live_flows": ("count", _peak_live_flows),
    "sim.network.api_self_s": ("s", ("self", "sim.network", "api_self")),
    "sim.network.callback_self_s": ("s", ("self", "sim.network", "callback_self")),
    "dht.nodes": ("count", lambda v: sum(len(o.nodes) for o in v.trace.overlays)),
    "dht.build_s": ("s", ("self", "dht", "build")),
    "dht.fail_node_calls": ("count", ("calls", "dht", "fail_node")),
    "dht.fail_node_s": ("s", ("self", "dht", "fail_node")),
    "dht.join_calls": ("count", ("calls", "dht", "join")),
    "dht.join_s": ("s", ("self", "dht", "join")),
    "dht.route_calls": ("count", ("calls", "dht", "route")),
    "dht.route_s": ("s", ("self", "dht", "route")),
    "dht.lookup_s": ("s", ("self", "dht", "lookup")),
    "dht.repairs": ("count", ("counter", "overlay.repairs")),
    "dht.callback_self_s": ("s", ("self", "dht", "callback_self")),
    "multicast.api_calls": ("count", ("calls", "multicast", "api_self")),
    "multicast.api_self_s": ("s", ("self", "multicast", "api_self")),
    "multicast.callback_self_s": ("s", ("self", "multicast", "callback_self")),
    "recovery.saves": ("count", ("counter", "save.completed")),
    "recovery.save_api_s": ("s", ("self", "recovery", "save_api")),
    "recovery.recoveries": ("count", ("counter", "recovery.completed")),
    "recovery.start_s": ("s", ("self", "recovery", "start")),
    "recovery.callback_self_s": ("s", ("self", "recovery", "callback_self")),
    "recovery.retries": ("count", ("counter", "recovery.retries")),
    "recovery.failed": ("count", ("counter", "recovery.failed")),
    "recovery.sim_makespan_s": ("s", ("sim", "makespan_s")),
    "recovery.sim_save_s": ("s", ("sim", "save_s")),
    "state.store_put_calls": ("count", ("calls", "state", "store_put")),
    "state.store_put_s": ("s", ("self", "state", "store_put")),
    "state.store_get_calls": ("count", ("calls", "state", "store_get")),
    "state.store_get_s": ("s", ("self", "state", "store_get")),
    "state.store_update_s": ("s", ("self", "state", "store_update")),
    "state.snapshot_calls": ("count", ("calls", "state", "snapshot")),
    "state.snapshot_s": ("s", ("self", "state", "snapshot")),
    "state.restore_s": ("s", ("self", "state", "restore")),
    "state.partition_s": ("s", ("self", "state", "partition")),
    "state.placement_s": ("s", ("self", "state", "placement")),
    "state.callback_self_s": ("s", ("self", "state", "callback_self")),
    "state.store_bytes": ("bytes", ("sim", "store_bytes")),
    "streaming.tuples_executed": (
        "count",
        lambda v: sum(sum(c.executed_counts.values()) for c in v.trace.clusters),
    ),
    "streaming.inject_calls": ("count", ("calls", "streaming", "inject")),
    "streaming.route_self_s": ("s", ("self", "streaming", "inject", "run")),
    "streaming.grouping_choose_calls": ("count", ("calls", "streaming", "grouping_choose")),
    "streaming.grouping_choose_s": ("s", ("self", "streaming", "grouping_choose")),
    "streaming.downstream_of_calls": ("count", ("calls", "streaming", "downstream_of")),
    "streaming.downstream_of_s": ("s", ("self", "streaming", "downstream_of")),
    "streaming.checkpoint_calls": ("count", ("counter", "streaming.checkpoints")),
    "streaming.checkpoint_s": ("s", ("self", "streaming", "checkpoint")),
    "streaming.recover_task_s": ("s", ("self", "streaming", "recover_task")),
    "streaming.checksums_s": ("s", ("self", "streaming", "checksums")),
    "streaming.callback_self_s": ("s", ("self", "streaming", "callback_self")),
    "workloads.bolt_execute_s": ("s", ("self", "workloads", "bolt_execute")),
    "workloads.source_next_s": ("s", ("self", "workloads", "source_next")),
    "live.build_s": ("s", ("self", "live", "build")),
    "live.callback_self_s": ("s", ("self", "live", "callback_self")),
    "live.sentences_served": ("count", ("sim", "served")),
    "live.replayed": ("count", ("sim", "replayed")),
    "live.sim_recovery_s": ("s", ("sim", "recovery_s")),
    "live.sim_drain_s": ("s", ("sim", "drain_s")),
    "live.sim_replay_lag_peak": ("count", ("sim", "replay_lag_peak")),
    "chaos.cells": ("count", ("calls", "chaos", "invariant_check")),
    "chaos.cell_self_s": ("s", ("self", "chaos", "cell_self")),
    "chaos.callback_self_s": ("s", ("self", "chaos", "callback_self")),
    "chaos.invariant_check_s": ("s", ("self", "chaos", "invariant_check")),
    "chaos.degraded_cells": ("count", ("sim", "degraded_cells")),
    "chaos.failed_cells": ("count", ("sim", "failed_cells")),
    "obs.tracer_calls": ("count", ("calls", "obs", "tracer")),
    "obs.tracer_s": ("s", ("self", "obs", "tracer")),
    "obs.registry_calls": ("count", ("calls", "obs", "registry")),
    "obs.registry_s": ("s", ("self", "obs", "registry")),
    "obs.profile_s": ("s", ("self", "obs", "profile")),
    "obs.spans_recorded": (
        "count",
        lambda v: sum(len(getattr(s.tracer, "spans", ())) for s in v.trace.simulators),
    ),
    "obs.series_points": (
        "count",
        lambda v: sum(
            len(series)
            for sim in v.trace.simulators
            for series in sim.metrics.all_series().values()
        ),
    ),
    "harness.self_s": ("s", ("self",) + HARNESS),
}

# The slots the table above reports as self seconds; whatever else a run
# touched is summed into ``harness.unmapped_s`` so the tiling stays whole.
_MAPPED_SLOTS = {
    (source[1], bucket)
    for _unit, source in LAYER_METRICS.values()
    if isinstance(source, tuple) and source[0] == "self"
    for bucket in source[2:]
}

LAYER_METRICS["harness.unmapped_s"] = (
    "s",
    lambda v: sum(s[1] for key, s in v.trace.slots.items() if key not in _MAPPED_SLOTS),
)


class CellView:
    """One traced cell, read while its simulators are still alive."""

    def __init__(self, trace: LayerTrace, sim_values: Dict[str, Any]) -> None:
        self.trace = trace
        self.sim_values = sim_values

    def self_s(self, layer: str, bucket: str) -> float:
        return self.trace.slots.get((layer, bucket), (0, 0.0))[1]

    def metrics(self) -> Dict[str, float]:
        values = {}
        for name, (_unit, source) in LAYER_METRICS.items():
            if callable(source):
                values[name] = float(source(self))
            elif source[0] == "self":
                values[name] = sum(self.self_s(source[1], b) for b in source[2:])
            elif source[0] == "calls":
                values[name] = float(self.trace.slots.get(source[1:], (0, 0.0))[0])
            elif source[0] == "counter":
                values[name] = float(sum(
                    sim.metrics.counters()[source[1]].total
                    for sim in self.trace.simulators
                    if source[1] in sim.metrics.counters()
                ))
            else:
                values[name] = float(self.sim_values.get(source[1]) or 0.0)
        return values


def self_time_metrics() -> List[str]:
    """The metrics that are self seconds: together they tile the cell."""
    return [name for name, (unit, _source) in LAYER_METRICS.items()
            if unit == "s" and ".sim_" not in name]
