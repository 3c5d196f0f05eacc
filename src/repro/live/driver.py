"""The live-traffic recovery harness: sustained ingest meets a mid-stream kill.

Everything else in the repo measures recovery on a quiescent network — the
driver measures it the way a user feels it. It plays a streaming topology
at a configurable events/second (any :class:`~repro.live.rates.RateCurve`),
mirrors the offered load into the network as first-class app flows so the
max-min allocator makes recovery transfers *compete* with ingest and
shuffle traffic, kills a state owner mid-stream, and keeps serving:

- tuples arriving while the pipeline is down queue up (replay lag grows);
- SR3 recovers the dead owner's state through the chosen mechanism while
  the app flows keep their fair share of every contended link;
- the cluster restores its last checkpoint barrier (surviving tasks roll
  back, the source rewinds to the barrier's offset) and the gap replays —
  a global-rollback, source-rewind protocol that keeps the counting state
  exactly-once (terminal *outputs* are at-least-once: tuples served
  before the crash are re-emitted during replay, as in upstream-backup
  systems);
- the backlog drains at the pipeline's service rate and the driver
  reports user-felt latency percentiles segmented before/during/after
  the recovery window.

The driver owns the event loop: it schedules its own ticks on the shared
simulator and never calls the re-entrant ``run_until_idle`` helpers that
the batch harness uses, so checkpoints, recoveries, and ingest all
interleave on one virtual clock.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Iterator, List, Optional, Tuple

from repro.dht.node import DhtNode
from repro.errors import LiveHarnessError
from repro.live.metrics import LatencyRecorder, LiveReport, PHASES, PhaseSummary
from repro.live.rates import RateCurve
from repro.obs.recorder import new_tracer
from repro.recovery.deployment import Deployment, build_deployment
from repro.recovery.manager import MechanismImpl
from repro.recovery.standby import sync_standby
from repro.sim.network import Flow, Host
from repro.state.partitioner import partition_synthetic
from repro.state.version import StateVersion
from repro.streaming.backend import SR3StateBackend
from repro.streaming.cluster import LocalCluster
from repro.util.sizes import MB, mbit_per_s
from repro.workloads.wordcount import SentenceGenerator, build_wordcount_topology

__all__ = ["LiveCell", "build_live_cell", "LoadDriver"]

#: Backing generator length: effectively inexhaustible at bench rates.
_SOURCE_DEPTH = 10_000_000

#: The driver's loop: seconds between ticks, and between controller polls.
_TICK = 0.1
_POLL_INTERVAL = 0.5
#: Application traffic: bytes a record puts on its task's ingest flow, and
#: the share of that which each task forwards to its shuffle neighbour.
_BYTES_PER_EVENT = 16_384.0
_SHUFFLE_FRACTION = 0.5
#: Seconds past ``duration`` after which a run that has not drained is cut.
_DRAIN_GRACE = 120.0


@dataclass
class LiveCell(Deployment):
    """A deployment with the word-count topology and its ingest host wired in."""

    backend: SR3StateBackend
    cluster: LocalCluster
    ingest: Host
    source_id: str
    source_factory: Callable[[], Iterator[Tuple[str]]]


def build_live_cell(
    num_nodes: int = 32,
    seed: int = 0,
    link_mbit: float = 200.0,
    count_parallelism: int = 4,
    vocabulary_size: int = 2_000,
    zipf_s: float = 1.1,
    num_shards: int = 4,
    num_replicas: int = 2,
    trace_name: str = "live",
) -> LiveCell:
    """Wire overlay + network + wordcount topology for a live run.

    Every host gets a finite ``link_mbit`` up/down link so app flows and
    recovery transfers actually contend. The spout is built empty — the
    driver owns the event stream and injects records itself, pulling them
    from ``source_factory`` (a fresh, seed-deterministic iterator each
    call, which is what makes the post-failure source rewind exact).
    """
    # Phase segmentation needs real recovery spans even when no span is
    # recorded, so the tracer is private rather than the null one.
    tracer = new_tracer(trace_name, private=True)
    deployment = build_deployment(
        num_nodes=num_nodes,
        seed=seed,
        uplink_mbit=link_mbit,
        downlink_mbit=link_mbit,
        tracer=tracer,
    )
    link_bw = mbit_per_s(link_mbit)
    backend = SR3StateBackend(
        deployment.manager, num_shards=num_shards, num_replicas=num_replicas
    )
    topology = build_wordcount_topology(
        num_sentences=0,
        seed=seed,
        count_parallelism=count_parallelism,
        vocabulary_size=vocabulary_size,
    )
    cluster = LocalCluster(topology, backend=backend, capture_outputs=False)
    cluster.protect_stateful_tasks()
    # The ingest frontier: one fat-uplink host fanning records out to the
    # operator hosts, so each task's *downlink* is the contended edge.
    ingest = deployment.network.add_host(
        "live/ingest",
        up_bw=link_bw * (count_parallelism + 1),
        down_bw=link_bw,
    )
    generator = SentenceGenerator(
        _SOURCE_DEPTH,
        vocabulary_size=vocabulary_size,
        zipf_s=zipf_s,
        seed=seed + 1,
    )

    def source_factory() -> Iterator[Tuple[str]]:
        return ((sentence,) for sentence in generator)

    return LiveCell(
        **vars(deployment),
        backend=backend,
        cluster=cluster,
        ingest=ingest,
        source_id="sentences",
        source_factory=source_factory,
    )


class LoadDriver:
    """Plays a rate curve against a :class:`LiveCell` and measures recovery.

    One instance drives one run. The tick loop, per tick: generate
    arrivals by integrating the rate curve (with fractional carry),
    mirror the instantaneous rate into the app-flow demands, take any due
    checkpoint, execute the scheduled kill, serve queued tuples up to the
    pipeline's service capacity, and sample the backlog.
    """

    def __init__(
        self,
        cell: LiveCell,
        rate: RateCurve,
        duration: float,
        service_rate: float = 4_000.0,
        app_load: bool = True,
        checkpoint_at: Tuple[float, ...] = (),
        kill_at: Optional[float] = None,
        mechanism: Optional[MechanismImpl] = None,
        bulk_state_mb: float = 0.0,
        standby: bool = False,
        telemetry=None,
        controller=None,
    ) -> None:
        if duration <= 0:
            raise LiveHarnessError("duration must be positive")
        if service_rate <= 0:
            raise LiveHarnessError("service_rate must be positive")
        if bulk_state_mb < 0:
            raise LiveHarnessError("bulk_state_mb must be non-negative")
        self.cell = cell
        self.rate = rate
        self.duration = float(duration)
        self.service_rate = float(service_rate)
        self.app_load = app_load
        self.checkpoint_at = tuple(sorted(float(t) for t in checkpoint_at))
        self.kill_at = None if kill_at is None else float(kill_at)
        self.mechanism = mechanism
        self.bulk_state_mb = float(bulk_state_mb)
        #: Provision a warm standby for the kill target's states after
        #: every checkpoint barrier (incremental re-warm per barrier).
        self.standby = bool(standby)
        self.standby_syncs = 0
        # state name -> warm image bytes after its latest sync round.
        self._standby_warm: Dict[str, float] = {}

        self.sim = cell.sim
        self.cluster = cell.cluster
        self.backend = cell.backend
        self.manager = cell.manager
        self.network = cell.network

        # ----- telemetry / control-plane embedding
        #: A :class:`~repro.obs.timeseries.TelemetryPipeline` the driver
        #: samples once per tick (the driver owns the loop, so the
        #: pipeline's own scheduler stays off).
        self.telemetry = telemetry
        #: A :class:`~repro.control.controller.Controller` polled every
        #: half second; when set, the driver stops recovering
        #: on its own at the kill — the control plane must notice the fault
        #: (heartbeats, SLO burn) and begin recovery via ``poll()``.
        self.controller = controller
        self._next_poll = _POLL_INTERVAL
        self._served_mark = 0
        self._replayed_mark = 0
        self._latency_hist = self.sim.metrics.histogram("live.latency_s")
        if telemetry is not None:
            # Bounded raw observations feed the pipeline's windowed
            # percentile series (live.latency_s.p50 / .p99).
            self._latency_hist.keep_observations(8192)
        if controller is not None:
            controller.on_recovery_begun = self._controller_begun

        # task_id ("count[0]") -> (component_id, index) for every
        # protected task, captured while they are all still alive.
        self._task_keys: Dict[str, Tuple[str, int]] = {
            f"{cid}[{index}]": (cid, index)
            for (cid, index) in sorted(self.cluster.stateful_tasks())
        }
        if not self._task_keys:
            raise LiveHarnessError("the cell's topology has no stateful tasks")
        #: The kill target: the first protected task.
        self._kill_tid = sorted(self._task_keys)[0]
        self.kill_task = self._task_keys[self._kill_tid]
        if self.kill_at is not None:
            if self.kill_at >= self.duration:
                raise LiveHarnessError("kill_at must fall inside the run duration")
            if not any(t < self.kill_at for t in self.checkpoint_at):
                raise LiveHarnessError(
                    "a checkpoint must land before kill_at: without a barrier "
                    "there is nothing consistent to roll back to"
                )

        # ----- event stream state
        self._stream: Optional[Iterator[Tuple[str]]] = None
        self._stream_index = 0  # records injected from the current stream position
        self._replay_boundary = 0  # replaying while stream_index < boundary
        self._arrivals: Deque[float] = deque()  # pending arrival timestamps
        self._carry = 0.0  # fractional arrivals between ticks
        self._credit = 0.0  # fractional service capacity between ticks
        self._gen_cursor = 0.0  # arrivals generated up to this time
        self._last_tick = 0.0
        self._arrived = 0
        self._served = 0
        self._replayed = 0
        self._injected = 0

        # ----- checkpoints (the cluster owns the barriers)
        self._cp_pointer = 0
        self._bulk_name: Optional[str] = None  # saved with the first barrier

        # ----- failure state
        self._stalled = False
        self._killed_at: Optional[float] = None
        self._recovered_at: Optional[float] = None
        self._recoveries_left = 0
        self._catchup_mark: Optional[Tuple[float, int]] = None
        self._catchup_rate: Optional[float] = None

        # ----- app flows
        self._ingest_flows: Dict[str, Flow] = {}
        self._shuffle_flows: List[Tuple[str, str, Flow]] = []

        # ----- run bookkeeping
        self._recorder = LatencyRecorder()
        self._ran = False
        self._done = False
        self._end: Optional[float] = None

        if self.bulk_state_mb > 0:
            owner = self.backend.protected_tasks()[self._kill_tid].node
            shards = partition_synthetic(
                "live/bulk",
                int(self.bulk_state_mb * MB),
                max(4, self.backend.num_shards),
                StateVersion(0.0, 1),
            )
            self.manager.register(owner, shards, num_replicas=self.backend.num_replicas)
            self._bulk_name = "live/bulk"

    # ------------------------------------------------------------------ run

    def run(self) -> LiveReport:
        """Drive the whole scenario to completion and report."""
        if self._ran:
            raise LiveHarnessError("a LoadDriver instance runs exactly once")
        self._ran = True
        self._stream = iter(self.cell.source_factory())
        if self.app_load:
            self._open_app_flows()
        self.sim.schedule(_TICK, self._tick)
        self.sim.run_until_idle()
        if not self._done:
            raise LiveHarnessError("simulation went idle before the driver finalized")
        return self._build_report()

    # ----------------------------------------------------------- tick loop

    def _tick(self) -> None:
        t = self.sim.now
        self._maybe_checkpoint(t)
        self._generate_arrivals(t)
        if self.app_load:
            self._update_demands(t)
        self._serve(t)
        # Kill after serving: the crash lands between ticks, so the tuples
        # that arrived up to the kill instant were already handled and the
        # stall starts exactly at the next arrival.
        self._maybe_kill(t)
        backlog = len(self._arrivals) + max(0, self._replay_boundary - self._stream_index)
        self.sim.metrics.series("live.backlog").record(t, float(backlog))
        self._sample_series(t)
        if (
            self._recovered_at is not None
            and self._catchup_mark is not None
            and self._catchup_rate is None
            and backlog == 0
        ):
            t0, injected0 = self._catchup_mark
            if t > t0:
                self._catchup_rate = (self._injected - injected0) / (t - t0)
        self._last_tick = t

        drained = backlog == 0 and not self._stalled
        finished_load = self._gen_cursor >= self.duration
        killed_ok = self.kill_at is None or self._recovered_at is not None
        if finished_load and drained and killed_ok and self.cluster.barrier_in_flight is None:
            self._finalize(t)
            return
        if t >= self.duration + _DRAIN_GRACE:
            self._finalize(t)
            return
        self.sim.schedule(_TICK, self._tick)

    def _sample_series(self, t: float) -> None:
        """Per-tick instrumentation, then the telemetry/control pump."""
        dt = t - self._last_tick
        metrics = self.sim.metrics
        if dt > 0:
            metrics.series("live.throughput").record(
                t, (self._served - self._served_mark) / dt
            )
            metrics.series("live.replay_rate").record(
                t, (self._replayed - self._replayed_mark) / dt
            )
            metrics.series("live.arrival_rate").record(
                t, self.rate.rate_at(min(t, self.duration))
            )
        self._served_mark = self._served
        self._replayed_mark = self._replayed
        if self.telemetry is not None:
            self.telemetry.sample(t)
        if self.controller is not None and t >= self._next_poll:
            self.controller.poll()
            self._next_poll = t + _POLL_INTERVAL

    def _generate_arrivals(self, t: float) -> None:
        t1 = min(t, self.duration)
        t0 = self._gen_cursor
        if t1 <= t0:
            return
        expected = self.rate.events_between(t0, t1) + self._carry
        count = int(expected)
        self._carry = expected - count
        if count > 0:
            step = (t1 - t0) / count
            for i in range(1, count + 1):
                self._arrivals.append(t0 + i * step)
            self._arrived += count
        self._gen_cursor = t1

    def _serve(self, t: float) -> None:
        if self._stalled:
            return
        self._credit += self.service_rate * (t - self._last_tick)
        while self._credit >= 1.0:
            if self._stream_index < self._replay_boundary:
                self._inject_next(t, replay=True)
            elif self._arrivals:
                self._inject_next(t, replay=False)
            else:
                break
            self._credit -= 1.0
        if not self._arrivals and self._stream_index >= self._replay_boundary:
            # Idle capacity does not bank up: a pipeline that sat idle for
            # a minute cannot process a minute of tuples instantaneously.
            self._credit = min(self._credit, 1.0)

    def _inject_next(self, t: float, replay: bool) -> None:
        assert self._stream is not None
        record = next(self._stream, None)
        if record is None:
            raise LiveHarnessError(
                "backing source exhausted; the generator must outlast the run"
            )
        self.cluster.inject(self.cell.source_id, record, timestamp=float(self._stream_index))
        self._stream_index += 1
        self._injected += 1
        if replay:
            self._replayed += 1
        else:
            arrival = self._arrivals.popleft()
            self._recorder.record(arrival, t)
            self._latency_hist.observe(t - arrival, at=t)
            self._served += 1

    # --------------------------------------------------------- checkpoints

    def _maybe_checkpoint(self, t: float) -> None:
        if self._killed_at is not None or self.cluster.barrier_in_flight is not None:
            return
        if self._cp_pointer >= len(self.checkpoint_at):
            return
        if self.checkpoint_at[self._cp_pointer] > t:
            return
        self._cp_pointer += 1
        # A kill waits for this barrier, so a standby provisioned when it
        # lands always serves a live owner.
        self.cluster.begin_checkpoint(
            on_landed=self._provision_standby if self.standby else None
        )
        if self._bulk_name is not None:
            self.cluster.join_checkpoint(self.manager.save(self._bulk_name))
            self._bulk_name = None

    def _provision_standby(self) -> None:
        """Warm (or re-warm) a standby for the kill target's states.

        Runs after each checkpoint barrier fully lands, so the standby
        tracks the newest save round. The sync is incremental — only the
        segments the standby is missing ride the network (tagged
        ``standby.sync``, contending with app flows like any transfer) —
        which *is* the steady-state overhead the standby tier pays.
        """
        owner = self.backend.protected_tasks()[self._kill_tid].node
        # The replacement recovery will pick is the owner's closest alive
        # ring neighbour, so a standby placed there finds every synced
        # segment local at takeover.
        standby = owner.leaf_set.closest(owner.node_id)
        if standby is None:
            return
        for name in sorted(self.manager.states):
            registered = self.manager.states[name]
            if registered.owner.node_id != owner.node_id:
                continue
            if registered.plan is None:
                continue
            sync = sync_standby(self.manager.ctx, registered, standby)
            sync.on_done(
                lambda report, n=name: self._standby_warm.__setitem__(
                    n, report.warm_bytes
                )
            )
            self.standby_syncs += 1

    @property
    def standby_warm_bytes(self) -> float:
        """Total warm image resident on the standby (steady-state memory)."""
        return float(sum(self._standby_warm.values()))

    # -------------------------------------------------------------- failure

    def _maybe_kill(self, t: float) -> None:
        if self.kill_at is None or self._killed_at is not None or t < self.kill_at:
            return
        if self.cluster.barrier_in_flight is not None:
            # A save round is mid-flight: killing now would leave the
            # landed image newer than the cluster's barrier. Defer one tick.
            return
        if self.cluster.barrier is None:
            raise LiveHarnessError("kill due but no checkpoint barrier has landed")
        self._do_kill(t)

    def _do_kill(self, t: float) -> None:
        self._stalled = True
        self._killed_at = t
        cid, index = self.kill_task
        owner = self.backend.protected_tasks()[self._kill_tid].node
        self.cluster.kill_task(cid, index)
        # With a heartbeat detector watching, instant leaf-set repair would
        # remove the dead member before any ping could miss — the death
        # must be *detected*, not administratively erased.
        detector_watching = (
            self.controller is not None and self.controller.world.detector is not None
        )
        self.cell.overlay.fail_node(owner, repair=not detector_watching)
        replacement = self.cell.overlay.replacement_for(owner)
        if self.app_load:
            self._reroute_flows(owner, replacement)
        if self.controller is not None:
            # Fault injection only: the control plane must notice the
            # death on its own (heartbeat declarations, SLO burn) and
            # begin recovery through poll(); _controller_begun chains the
            # cluster's restore onto whatever it starts.
            return
        handles = []
        for name in sorted(self.manager.states):
            registered = self.manager.states[name]
            if registered.owner.node_id == owner.node_id:
                handles.append(self.manager.recover(name, replacement, self.mechanism))
        if not handles:
            raise LiveHarnessError(f"dead owner {owner.name} held no recoverable state")
        self._recoveries_left = len(handles)
        for handle in handles:
            handle.on_done(self._recovery_landed)

    def _controller_begun(self, state_name: str, handle) -> None:
        """The controller's poll() started a recovery: chain revival to it."""
        del state_name
        self._recoveries_left += 1
        handle.on_done(self._recovery_landed)

    def _reroute_flows(self, dead: DhtNode, replacement: DhtNode) -> None:
        """Re-open app flows the host failure aborted, onto the replacement.

        The source keeps producing during the outage; its traffic now
        lands on the replacement — which is exactly the link the recovery
        mechanisms are fetching state over.
        """
        for tid, flow in list(self._ingest_flows.items()):
            if flow.aborted:
                self._ingest_flows[tid] = self.network.open_app_flow(
                    self.cell.ingest,
                    replacement.host,
                    demand=flow.demand,
                    tag=f"live/ingest/{tid}",
                )
        rerouted = []
        for src_tid, dst_tid, flow in self._shuffle_flows:
            if flow.aborted:
                src_host = self._task_host(src_tid, dead, replacement)
                dst_host = self._task_host(dst_tid, dead, replacement)
                flow = self.network.open_app_flow(
                    src_host,
                    dst_host,
                    demand=flow.demand,
                    tag=f"live/shuffle/{src_tid}->{dst_tid}",
                )
            rerouted.append((src_tid, dst_tid, flow))
        self._shuffle_flows = rerouted

    def _task_host(self, tid: str, dead: DhtNode, replacement: DhtNode) -> Host:
        node = self.backend.protected_tasks()[tid].node
        if node.node_id == dead.node_id:
            return replacement.host
        return node.host

    def _recovery_landed(self, _result) -> None:
        self._recoveries_left -= 1
        if self._recoveries_left > 0:
            return
        t = self.sim.now
        self._recovered_at = t
        # The dead task restarts from its SR3-recovered image (the save
        # round the barrier waited for: kills are deferred while a round is
        # in flight, so they cannot diverge) and the survivors roll back.
        rewind_to = self.cluster.restore(*self.kill_task)[self.cell.source_id]
        # Rewind the source to the barrier and mark the replay gap: every
        # record injected between the barrier and the kill goes through
        # again, against the rolled-back stores.
        self._replay_boundary = self._stream_index
        self._stream = iter(self.cell.source_factory())
        if rewind_to:
            deque(itertools.islice(self._stream, rewind_to), maxlen=0)
        self._stream_index = rewind_to
        self._stalled = False
        self._catchup_mark = (t, self._injected)
        self.sim.metrics.counter("live.recoveries").add(1)

    # ------------------------------------------------------------ app flows

    def _open_app_flows(self) -> None:
        per_task, per_shuffle = self._demands(0.0)
        tids = sorted(self._task_keys)
        for tid in tids:
            host = self.backend.protected_tasks()[tid].node.host
            self._ingest_flows[tid] = self.network.open_app_flow(
                self.cell.ingest, host, demand=per_task, tag=f"live/ingest/{tid}"
            )
        if len(tids) > 1:
            for i, src_tid in enumerate(tids):
                dst_tid = tids[(i + 1) % len(tids)]
                flow = self.network.open_app_flow(
                    self.backend.protected_tasks()[src_tid].node.host,
                    self.backend.protected_tasks()[dst_tid].node.host,
                    demand=per_shuffle,
                    tag=f"live/shuffle/{src_tid}->{dst_tid}",
                )
                self._shuffle_flows.append((src_tid, dst_tid, flow))

    def _demands(self, t: float) -> Tuple[float, float]:
        total = self.rate.rate_at(t) * _BYTES_PER_EVENT
        per_task = max(1.0, total / len(self._task_keys))
        return per_task, max(1.0, per_task * _SHUFFLE_FRACTION)

    def _update_demands(self, t: float) -> None:
        per_task, per_shuffle = self._demands(t)
        for flow in self._ingest_flows.values():
            if not flow.aborted and abs(per_task - flow.demand) > 0.01 * flow.demand:
                self.network.set_flow_demand(flow, per_task)
        for _src, _dst, flow in self._shuffle_flows:
            if not flow.aborted and abs(per_shuffle - flow.demand) > 0.01 * flow.demand:
                self.network.set_flow_demand(flow, per_shuffle)

    def _close_app_flows(self) -> None:
        for flow in self._ingest_flows.values():
            if not flow.aborted:
                self.network.close_app_flow(flow)
        for _src, _dst, flow in self._shuffle_flows:
            if not flow.aborted:
                self.network.close_app_flow(flow)

    # -------------------------------------------------------------- report

    def _finalize(self, t: float) -> None:
        self._done = True
        self._end = t
        if self.app_load:
            self._close_app_flows()
        # Self-rescheduling attachments must stop or the simulator never
        # goes idle and run() never returns.
        if self.telemetry is not None and getattr(self.telemetry, "running", False):
            self.telemetry.stop()
        if self.controller is not None:
            detector = self.controller.world.detector
            if detector is not None and getattr(detector, "running", False):
                detector.stop()

    def _build_report(self) -> LiveReport:
        killed, recovered = self._killed_at, self._recovered_at
        # The user feels the outage from the kill until the pipeline is
        # restored, or until the run ends if it never is.
        window = None if killed is None else (killed, recovered or self._end)
        split = self._recorder.split(window)
        phases: Dict[str, Optional[PhaseSummary]] = {}
        for name in PHASES:
            latencies = split.get(name, [])
            phases[name] = (
                PhaseSummary.from_latencies(name, latencies) if latencies else None
            )
        backlog = self.sim.metrics.series("live.backlog")
        recovery_s = drained_at = drain_s = None
        lag_at_recovery = 0
        if recovered is not None:
            recovery_s = recovered - killed
            lag_at_recovery = int(backlog.value_at(recovered))
            drained_at = next(
                (t for t, lag in backlog.points if t >= recovered and lag == 0), None
            )
            if drained_at is not None:
                drain_s = drained_at - recovered
        return LiveReport(
            arrived=self._arrived,
            served=self._served,
            replayed=self._replayed,
            phases=phases,
            killed_at=killed,
            recovered_at=recovered,
            recovery_s=recovery_s,
            recovery_window=window,
            replay_lag_peak=int(max(backlog.values(), default=0.0)),
            replay_lag_at_recovery=lag_at_recovery,
            drained_at=drained_at,
            drain_s=drain_s,
            catchup_events_per_s=self._catchup_rate,
        )
