"""Flow-level network model with max-min fair bandwidth sharing.

Every host has independent upload and download capacities (bytes/second),
mirroring the bandwidth asymmetry of cloud environments that the paper's
tree-structured mechanism is designed around (Sec. 3.6). A bulk transfer is
a *flow*; at any instant each flow receives its max-min fair share of the
source's upload capacity and the destination's download capacity, computed
by progressive water-filling and recomputed whenever a flow starts or
finishes.

Paper-scale fast paths (none may change a simulated result):

* **Incremental allocation.** The link-constraint graph — one ``("up",
  host)`` / ``("down", host)`` key per used direction — is maintained
  persistently. A flow admission/removal or bandwidth change only dirties
  its own links, and water-filling re-runs over the affected connected
  component; flows in untouched components keep their rates, which is
  bit-identical because each component's allocation is an independent
  subproblem (the equivalence tests compare serialized output against a
  network that re-solves every flow on every reallocation).
* **Event coalescing.** Mutations don't reallocate inline; they settle
  byte progress and schedule one zero-delay *settle event*, so N
  same-instant admissions/aborts trigger one recompute instead of N.
  Elapsed time between same-instant recomputes is zero, so no bytes can
  move differently — completion instants are preserved.
* **Cached admission order.** The live flow list is kept sorted by
  admission sequence (insert by bisection, not re-sorted per event); all
  float accumulation walks it in that fixed order.

Application traffic (the live-harness ingest/shuffle load) enters the same
allocator as *app flows* — infinite-size, never-completing flows capped at
a ``demand`` rate (:meth:`Network.open_app_flow`). Demand caps participate
in the progressive filling: a flow whose offered load sits below the
current fair share saturates at its demand and returns the remainder to
the pool (standard bounded-demand max-min). When no app flow exists the
demand branch never executes, so quiescent allocations remain
byte-identical to the historical solver.

Small control messages (DHT maintenance pings, routing messages) bypass the
flow machinery through :meth:`Network.send_control`: they are charged to
byte counters and delivered after one propagation latency, which is how the
paper measures the pure maintenance overhead of Fig. 12c.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.errors import NetworkError
from repro.obs.tracer import NULL_SPAN
from repro.sim import flowvec
from repro.sim.kernel import Event, Simulator

_EPSILON_BYTES = 1e-6

# A link-constraint key: ("up", host_name) or ("down", host_name).
_LinkKey = Tuple[str, str]


class Host:
    """A simulated machine with asymmetric network capacity.

    ``up_bw``/``down_bw`` are in bytes per second; ``math.inf`` means the
    direction is unconstrained (the paper's "no bandwidth constraint"
    configuration of Fig. 8a).
    """

    def __init__(
        self,
        name: str,
        up_bw: float = math.inf,
        down_bw: float = math.inf,
        latency: float = 0.0005,
    ) -> None:
        if up_bw <= 0 or down_bw <= 0:
            raise NetworkError(f"host {name}: bandwidth must be positive")
        if latency < 0:
            raise NetworkError(f"host {name}: latency must be non-negative")
        self.name = name
        self.up_bw = up_bw
        self.down_bw = down_bw
        # Provisioned capacity, frozen at construction. Runtime degradation
        # moves up_bw/down_bw; the nominal values are the yardstick that
        # tells a degraded link from a merely small one.
        self.nominal_up_bw = up_bw
        self.nominal_down_bw = down_bw
        self.latency = latency
        self.alive = True
        self._bytes_sent = 0.0
        self._bytes_received = 0.0
        # While the network runs in vectorized mode this points at
        # (FlowTable, slot): the table's arrays are then authoritative
        # for this host's flow-byte counters, and the properties below
        # read/write through so external accounting (tests, checkpoint
        # stores) stays transparent in either mode.
        self._flowvec = None
        self.control_bytes_sent = 0.0
        self.control_bytes_received = 0.0
        self.active_out: Set["Flow"] = set()
        self.active_in: Set["Flow"] = set()

    @property
    def bytes_sent(self) -> float:
        ref = self._flowvec
        if ref is not None:
            table, slot = ref
            return float(table.h_sent[slot])
        return self._bytes_sent

    @bytes_sent.setter
    def bytes_sent(self, value: float) -> None:
        ref = self._flowvec
        if ref is not None:
            table, slot = ref
            table.h_sent[slot] = value
        else:
            self._bytes_sent = value

    @property
    def bytes_received(self) -> float:
        ref = self._flowvec
        if ref is not None:
            table, slot = ref
            return float(table.h_recv[slot])
        return self._bytes_received

    @bytes_received.setter
    def bytes_received(self, value: float) -> None:
        ref = self._flowvec
        if ref is not None:
            table, slot = ref
            table.h_recv[slot] = value
        else:
            self._bytes_received = value

    def bw_fraction(self) -> float:
        """Current capacity as a fraction of nominal (the worse direction).

        An unconstrained direction that is still unconstrained counts as
        1.0; one that has been throttled to a finite rate counts as 0.0 —
        any finite number is negligible next to ``inf``.
        """

        def _ratio(current: float, nominal: float) -> float:
            if math.isinf(nominal):
                return 1.0 if math.isinf(current) else 0.0
            return min(current / nominal, 1.0)

        return min(
            _ratio(self.up_bw, self.nominal_up_bw),
            _ratio(self.down_bw, self.nominal_down_bw),
        )

    def __repr__(self) -> str:
        return f"Host({self.name})"


class Flow:
    """One bulk transfer in flight between two hosts."""

    __slots__ = (
        "seq",
        "src",
        "dst",
        "size",
        "remaining",
        "rate",
        "demand",
        "app",
        "on_complete",
        "on_abort",
        "tag",
        "started_at",
        "admitted_at",
        "completed_at",
        "aborted",
        "span",
        "_last_update",
    )

    def __init__(
        self,
        src: Host,
        dst: Host,
        size: float,
        on_complete: Optional[Callable[["Flow"], None]],
        on_abort: Optional[Callable[["Flow"], None]],
        tag: Optional[str],
        started_at: float,
        seq: int = 0,
        demand: float = math.inf,
        app: bool = False,
    ) -> None:
        # Admission order within the network. Flows live in identity-hashed
        # sets; every place where iteration order can leak into float
        # accumulation or callback order sorts by this instead.
        self.seq = seq
        self.src = src
        self.dst = dst
        self.size = size
        self.remaining = float(size)
        self.rate = 0.0
        # Offered load ceiling: max-min never allocates more than this.
        # Bulk transfers are elastic (demand = inf, the historical
        # behaviour); application ingest/shuffle flows carry the workload's
        # current event rate as a finite demand.
        self.demand = demand
        # Long-running application traffic: infinite size, never completes,
        # exists to contend with recovery/save transfers for link shares.
        self.app = app
        self.on_complete = on_complete
        self.on_abort = on_abort
        self.tag = tag
        self.started_at = started_at
        self.admitted_at: Optional[float] = None
        self.completed_at: Optional[float] = None
        self.aborted = False
        self.span = NULL_SPAN
        self._last_update = started_at

    @property
    def done(self) -> bool:
        return self.completed_at is not None

    def __repr__(self) -> str:
        return (
            f"Flow({self.src.name}->{self.dst.name}, {self.size:.0f}B, "
            f"remaining={self.remaining:.0f}B, rate={self.rate:.0f}B/s)"
        )


class Network:
    """The shared network connecting all hosts of one simulation."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.hosts: Dict[str, Host] = {}
        self._flows: Set[Flow] = set()
        # Live flows sorted by admission sequence — the deterministic
        # iteration order for every float accumulation. Maintained by
        # bisection insert / remove instead of sorting per event.
        self._order_cache: List[Flow] = []
        self._completion_event: Optional[Event] = None
        self.total_bytes = 0.0
        self.total_control_bytes = 0.0
        self.completed_flows = 0
        self.started_flows = 0
        # A partition is one side of a network cut: hosts whose names are in
        # the set cannot exchange traffic with hosts outside it (and vice
        # versa) until the partition heals.
        self._partition: Optional[frozenset] = None
        # Persistent link-constraint graph: link key -> live flows crossing
        # it, in admission order (dict used as an ordered set). Mutations
        # mark the keys they touch dirty; the next recompute water-fills
        # only the connected component reachable from the dirty keys.
        self._members: Dict[_LinkKey, Dict[Flow, None]] = {}
        self._dirty_keys: Set[_LinkKey] = set()
        # One zero-delay settle event coalesces all same-instant mutations
        # into a single reallocation.
        self._recompute_pending = False
        # Settle bookkeeping: re-settling at the same instant moves zero
        # bytes, so it can be skipped — unless some flow runs at infinite
        # rate (its whole payload moves on settle regardless of elapsed).
        self._settled_at = -1.0
        self._inf_rates = False
        # Vectorized mirror of the live flow list (repro.sim.flowvec).
        # Attached when the flow population crosses VECTOR_ACTIVATE,
        # detached (with state written back to the objects) below
        # VECTOR_DEACTIVATE. None when numpy is unavailable or the
        # population is small — the scalar loops below then run as-is.
        self._vec: Optional["flowvec.FlowTable"] = None
        # Hosts with at least one live flow (endpoint refcounts) — the
        # telemetry "involved" set without scanning every flow per sample.
        self._active_refs: Dict[Host, int] = {}
        # Cached registry handles: these sit on per-byte/per-flow paths.
        self._flow_bytes_counter = sim.metrics.counter("net.flow_bytes")
        self._control_bytes_counter = sim.metrics.counter("net.control_bytes")
        self._flows_started_counter = sim.metrics.counter("net.flows_started")
        self._flows_completed_counter = sim.metrics.counter("net.flows_completed")
        self._flows_aborted_counter = sim.metrics.counter("net.flows_aborted")
        self._control_dropped_counter = sim.metrics.counter("net.control_dropped")
        # Telemetry timelines: the per-link evidence behind blame
        # attribution. Every max-min reallocation appends one point per
        # involved host to its utilization/flow-count series, so the
        # profiler can answer "was the bottleneck the provider's uplink or
        # the replacement's downlink" post hoc.
        self._flows_active_series = sim.metrics.series("net.flows_active")
        self._queue_wait_hist = sim.metrics.histogram("net.flow_queue_wait")
        self._flow_stall_hist = sim.metrics.histogram("net.flow_stall_s")
        self._host_series: Dict[str, tuple] = {}
        # Last recorded (up_util, down_util, flows) per host: a sample is
        # appended only when the value moved, so the timelines stay the
        # same step functions while sampling only the hosts a reallocation
        # touched. The dedupe is what keeps a component solve and a full
        # solve serializing byte-identical series — the full solve visits
        # every host but unchanged values record nothing.
        self._host_last: Dict[str, List[float]] = {}
        # Hosts whose allocation may just have dropped (flow removed or
        # bandwidth changed) and must record a fresh sample even if they
        # no longer carry any flow.
        self._telemetry_dirty: Set[Host] = set()

    def in_flight_flows(self) -> int:
        """Number of admitted flows still moving bytes (audit hook)."""
        return len(self._flows)

    # ------------------------------------------------------------------ hosts

    def add_host(
        self,
        name: str,
        up_bw: float = math.inf,
        down_bw: float = math.inf,
        latency: float = 0.0005,
    ) -> Host:
        """Register a host; names must be unique within the network."""
        if name in self.hosts:
            raise NetworkError(f"duplicate host name: {name}")
        host = Host(name, up_bw=up_bw, down_bw=down_bw, latency=latency)
        self.hosts[name] = host
        return host

    def fail_host(self, host: Host) -> None:
        """Crash a host: all flows touching it abort immediately."""
        host.alive = False
        victims = self._ordered(host.active_out | host.active_in)
        self._settle_progress()
        for flow in victims:
            self._remove_flow(flow)
            flow.aborted = True
            self._trace_abort(flow, reason="host_failed")
            if flow.on_abort is not None:
                flow.on_abort(flow)
        self._request_recompute()

    def recover_host(self, host: Host) -> None:
        """Bring a crashed host back (replacement node taking its place)."""
        host.alive = True

    # ------------------------------------------------------- partitions & bw

    @property
    def partitioned(self) -> bool:
        return self._partition is not None

    def reachable(self, src: Host, dst: Host) -> bool:
        """Whether traffic can currently pass between two hosts."""
        if not src.alive or not dst.alive:
            return False
        if self._partition is None:
            return True
        return (src.name in self._partition) == (dst.name in self._partition)

    def partition(self, group) -> None:
        """Cut the network between ``group`` and everything else.

        In-flight flows crossing the cut abort immediately (their TCP
        connections stall and time out); control messages across the cut
        are dropped until :meth:`heal_partition`. Partitions replace each
        other — only one cut is active at a time, which is the classic
        two-sided split the chaos scenarios model.
        """
        names = frozenset(h.name if isinstance(h, Host) else str(h) for h in group)
        unknown = [n for n in names if n not in self.hosts]
        if unknown:
            raise NetworkError(f"cannot partition unknown hosts: {sorted(unknown)}")
        self._partition = names
        victims = [
            f for f in self._order_cache if not self.reachable(f.src, f.dst)
        ]
        self._settle_progress()
        for flow in victims:
            self._remove_flow(flow)
            flow.aborted = True
            self._trace_abort(flow, reason="partitioned")
            if flow.on_abort is not None:
                flow.on_abort(flow)
        self._request_recompute()
        self.sim.tracer.instant(
            "network partitioned", category="net.partition", hosts=len(names)
        )
        self.sim.metrics.counter("net.partitions").add(1)

    def heal_partition(self) -> None:
        """Remove the active partition; healing twice is harmless."""
        if self._partition is None:
            return
        self._partition = None
        self.sim.tracer.instant("network healed", category="net.partition")
        self.sim.metrics.counter("net.heals").add(1)

    def set_host_bandwidth(self, host: Host, up_bw: float, down_bw: float) -> None:
        """Change a host's link capacity mid-run (degradation, flapping).

        Settles every flow's progress at the old rates first, then
        re-runs the max-min allocation so active transfers immediately
        see the new capacity.
        """
        if up_bw <= 0 or down_bw <= 0:
            raise NetworkError(f"host {host.name}: bandwidth must be positive")
        self._settle_progress()
        host.up_bw = up_bw
        host.down_bw = down_bw
        if self._vec is not None:
            self._vec.update_host_bw(host)
        self._dirty_keys.add(("up", host.name))
        self._dirty_keys.add(("down", host.name))
        self._request_recompute()

    def degraded_hosts(self, fraction: float = 0.5) -> List[Tuple[Host, float]]:
        """Alive hosts running below ``fraction`` of their nominal capacity.

        Returns ``(host, current/nominal)`` pairs sorted by host name — the
        control plane's flaky-node signal.
        """
        out: List[Tuple[Host, float]] = []
        for name in sorted(self.hosts):
            host = self.hosts[name]
            if not host.alive:
                continue
            ratio = host.bw_fraction()
            if ratio < fraction:
                out.append((host, ratio))
        return out

    # ------------------------------------------------------------------ flows

    def transfer(
        self,
        src: Host,
        dst: Host,
        nbytes: float,
        on_complete: Optional[Callable[[Flow], None]] = None,
        on_abort: Optional[Callable[[Flow], None]] = None,
        tag: Optional[str] = None,
        parent_span=None,
    ) -> Flow:
        """Start a bulk transfer of ``nbytes`` from ``src`` to ``dst``.

        The flow is admitted after one propagation latency and then shares
        bandwidth fairly with every concurrent flow. ``on_complete`` fires
        with the flow once the last byte arrives. ``parent_span`` nests the
        flow's trace span under the operation that started it.
        """
        if not src.alive or not dst.alive:
            raise NetworkError(f"transfer between dead hosts: {src.name}->{dst.name}")
        if nbytes < 0:
            raise NetworkError("transfer size must be non-negative")
        flow = Flow(
            src, dst, nbytes, on_complete, on_abort, tag, self.sim.now,
            seq=self.started_flows,
        )
        self.started_flows += 1
        self._flows_started_counter.add(1)
        flow.span = self.sim.tracer.start(
            f"flow {src.name}->{dst.name}",
            category="net.flow",
            parent=parent_span,
            bytes=float(nbytes),
            src=src.name,
            dst=dst.name,
            **({"tag": tag} if tag else {}),
        )
        propagation = src.latency + dst.latency
        self.sim.schedule(propagation, self._admit, flow)
        return flow

    def _admit(self, flow: Flow) -> None:
        if flow.aborted or not self.reachable(flow.src, flow.dst):
            alive = flow.src.alive and flow.dst.alive
            flow.aborted = True
            self._trace_abort(flow, reason="partitioned" if alive else "dead_endpoint")
            if flow.on_abort is not None:
                flow.on_abort(flow)
            return
        self._settle_progress()
        flow.admitted_at = self.sim.now
        flow._last_update = self.sim.now
        self._queue_wait_hist.observe(self.sim.now - flow.started_at)
        if flow.remaining <= _EPSILON_BYTES:
            self._finish_flow(flow)
            return
        self._flows.add(flow)
        position = self._insert_ordered(flow)
        if self._vec is not None:
            self._vec.insert(position, flow)
        flow.src.active_out.add(flow)
        flow.dst.active_in.add(flow)
        up_key = ("up", flow.src.name)
        down_key = ("down", flow.dst.name)
        self._members.setdefault(up_key, {})[flow] = None
        self._members.setdefault(down_key, {})[flow] = None
        self._dirty_keys.add(up_key)
        self._dirty_keys.add(down_key)
        self._active_refs[flow.src] = self._active_refs.get(flow.src, 0) + 1
        self._active_refs[flow.dst] = self._active_refs.get(flow.dst, 0) + 1
        self._request_recompute()

    def abort_flow(self, flow: Flow) -> None:
        """Cancel an in-flight (or not yet admitted) transfer."""
        if flow.done or flow.aborted:
            return
        self._settle_progress()
        if flow in self._flows:
            self._remove_flow(flow)
        flow.aborted = True
        self._trace_abort(flow, reason="cancelled")
        if flow.on_abort is not None:
            flow.on_abort(flow)
        self._request_recompute()

    # -------------------------------------------------------------- app flows

    def open_app_flow(
        self,
        src: Host,
        dst: Host,
        demand: float = math.inf,
        on_abort: Optional[Callable[[Flow], None]] = None,
        tag: Optional[str] = None,
        parent_span=None,
    ) -> Flow:
        """Register long-running application traffic as a first-class flow.

        The flow has infinite size — it never completes on its own — and
        competes in the max-min allocation like any bulk transfer, capped
        at ``demand`` bytes/second (the workload's current offered load).
        Recovery and save transfers sharing a link with it get exactly the
        fair share that remains, which is how sustained ingest makes
        recovery measurably slower than the quiescent benchmarks.

        Close it with :meth:`close_app_flow`; adjust the offered load with
        :meth:`set_flow_demand`. A host failure or partition aborts it like
        any other flow (``on_abort`` fires so the workload can re-route).
        """
        if not src.alive or not dst.alive:
            raise NetworkError(
                f"app flow between dead hosts: {src.name}->{dst.name}"
            )
        if not demand > 0:
            raise NetworkError("app flow demand must be positive")
        if math.isinf(demand) and (math.isinf(src.up_bw) or math.isinf(dst.down_bw)):
            raise NetworkError(
                f"app flow {src.name}->{dst.name}: an unbounded demand on an "
                f"unconstrained link would absorb infinite bandwidth; give "
                f"the flow a finite demand or the hosts finite capacity"
            )
        flow = Flow(
            src, dst, math.inf, None, on_abort, tag, self.sim.now,
            seq=self.started_flows, demand=demand, app=True,
        )
        self.started_flows += 1
        self._flows_started_counter.add(1)
        self.sim.metrics.counter("net.app_flows_opened").add(1)
        flow.span = self.sim.tracer.start(
            f"app flow {src.name}->{dst.name}",
            category="net.app_flow",
            parent=parent_span,
            src=src.name,
            dst=dst.name,
            **({"tag": tag} if tag else {}),
        )
        propagation = src.latency + dst.latency
        self.sim.schedule(propagation, self._admit, flow)
        return flow

    def set_flow_demand(self, flow: Flow, demand: float) -> None:
        """Change an app flow's offered load (rate-curve tracking)."""
        if not flow.app:
            raise NetworkError("demand is only adjustable on app flows")
        if not demand > 0:
            raise NetworkError("app flow demand must be positive")
        if math.isinf(demand) and (
            math.isinf(flow.src.up_bw) or math.isinf(flow.dst.down_bw)
        ):
            raise NetworkError(
                "an unbounded app-flow demand needs finite link capacity"
            )
        if demand == flow.demand:
            return
        self._settle_progress()
        flow.demand = demand
        if flow in self._flows:
            if self._vec is not None:
                self._vec.demand[self._vec.pos_of(flow)] = demand
            self._dirty_keys.add(("up", flow.src.name))
            self._dirty_keys.add(("down", flow.dst.name))
            self._request_recompute()

    def close_app_flow(self, flow: Flow) -> None:
        """Retire an app flow (workload drained or re-routed).

        A deliberate close — unlike an abort, ``on_abort`` does not fire.
        Closing an already closed/aborted flow is harmless.
        """
        if not flow.app:
            raise NetworkError("close_app_flow only applies to app flows")
        if flow.done or flow.aborted:
            return
        self._settle_progress()
        if flow in self._flows:
            self._remove_flow(flow)
        flow.aborted = True
        self.sim.metrics.counter("net.app_flows_closed").add(1)
        flow.span.finish(closed=True)
        self._request_recompute()

    def app_flows(self) -> List[Flow]:
        """Live app flows in admission order (telemetry/audit hook)."""
        return [f for f in self._order_cache if f.app]

    # ------------------------------------------------------------ control msgs

    def send_control(
        self,
        src: Host,
        dst: Host,
        nbytes: float,
        on_delivery: Optional[Callable[[], None]] = None,
    ) -> None:
        """Deliver a small control message after one propagation latency.

        Control traffic is excluded from bandwidth sharing (it is tiny) but
        fully accounted in the per-host and global control-byte counters
        used to reproduce the maintenance-overhead experiment (Fig. 12c).
        """
        if nbytes < 0:
            raise NetworkError("control message size must be non-negative")
        src.control_bytes_sent += nbytes
        dst.control_bytes_received += nbytes
        self.total_control_bytes += nbytes
        self._control_bytes_counter.add(nbytes)
        if self._partition is not None and not self.reachable(src, dst):
            # Dropped at the cut: the sender already paid the bytes.
            self._control_dropped_counter.add(1)
            return
        if on_delivery is not None:
            if not dst.alive:
                return
            self.sim.schedule(src.latency + dst.latency, lambda: on_delivery())

    # ---------------------------------------------------------------- internal

    @staticmethod
    def _ordered(flows) -> List[Flow]:
        """Flows in admission order — the deterministic iteration order."""
        return sorted(flows, key=lambda f: f.seq)

    def _insert_ordered(self, flow: Flow) -> int:
        """Bisection insert into the admission-ordered live list.

        Returns the insertion position so the vectorized mirror can
        insert its row at the same index (differing propagation
        latencies admit flows out of sequence order, so the position is
        not always the end).
        """
        lst = self._order_cache
        seq = flow.seq
        lo, hi = 0, len(lst)
        while lo < hi:
            mid = (lo + hi) // 2
            if lst[mid].seq < seq:
                lo = mid + 1
            else:
                hi = mid
        lst.insert(lo, flow)
        return lo

    def _settle_progress(self) -> None:
        """Advance every flow's remaining-byte count to the current instant.

        Re-settling at an instant already settled moves zero bytes, so it
        short-circuits — except while an infinite-rate flow is live (its
        whole payload moves on settle regardless of elapsed time).
        """
        now = self.sim.now
        if now == self._settled_at and not self._inf_rates:
            return
        vec = self._vec
        if (
            vec is None
            and flowvec.HAVE_NUMPY
            and len(self._order_cache) >= flowvec.VECTOR_ACTIVATE
        ):
            # All live flows are settled as of _settled_at (the settle
            # invariant: every mutation settles first), so the array
            # snapshot taken here is coherent.
            vec = self._vec = flowvec.FlowTable(self._order_cache)
        if vec is not None:
            moved = vec.settle(now - self._settled_at)
            if moved is not None:
                self.total_bytes = flowvec.fold_total(self.total_bytes, moved)
                counter = self._flow_bytes_counter
                counter.total = flowvec.fold_total(counter.total, moved)
            self._settled_at = now
            if vec.n < flowvec.VECTOR_DEACTIVATE:
                self._deactivate_vector()
            return
        for flow in self._order_cache:
            elapsed = now - flow._last_update
            if math.isinf(flow.rate):
                if math.isinf(flow.remaining):
                    # An app flow on an unconstrained path: bytes moved are
                    # unbounded and meaningless — charge nothing rather
                    # than poison the byte counters with inf.
                    moved = 0.0
                else:
                    # Unconstrained path: the transfer completes instantly.
                    moved = flow.remaining
            elif elapsed > 0 and flow.rate > 0:
                moved = min(flow.remaining, flow.rate * elapsed)
            else:
                moved = 0.0
            if moved > 0:
                flow.remaining -= moved
                flow.src.bytes_sent += moved
                flow.dst.bytes_received += moved
                self.total_bytes += moved
                self._flow_bytes_counter.add(moved)
            flow._last_update = now
        self._settled_at = now

    def _deactivate_vector(self) -> None:
        """Write vector state back to the objects and drop the mirror.

        Callers guarantee the table is settled as of ``_settled_at``;
        surviving flows resume scalar settling from that instant.
        """
        vec = self._vec
        self._vec = None
        settled_at = self._settled_at
        for position, flow in enumerate(self._order_cache):
            flow.remaining = float(vec.remaining[position])
            flow._last_update = settled_at
        vec.detach()

    def _remove_flow(self, flow: Flow) -> None:
        self._flows.discard(flow)
        vec = self._vec
        if vec is not None:
            # Sync the authoritative remaining-byte count back before the
            # object leaves the table (completion/abort callbacks read it).
            position = vec.pos_of(flow)
            flow.remaining = float(vec.remaining[position])
            flow._last_update = self._settled_at
            vec.remove(position)
            del self._order_cache[position]
            if vec.n < flowvec.VECTOR_DEACTIVATE:
                self._deactivate_vector()
        else:
            self._order_cache.remove(flow)
        flow.src.active_out.discard(flow)
        flow.dst.active_in.discard(flow)
        up_key = ("up", flow.src.name)
        down_key = ("down", flow.dst.name)
        for key in (up_key, down_key):
            link = self._members.get(key)
            if link is not None:
                link.pop(flow, None)
                if not link:
                    del self._members[key]
            self._dirty_keys.add(key)
        for host in (flow.src, flow.dst):
            refs = self._active_refs.get(host, 0) - 1
            if refs > 0:
                self._active_refs[host] = refs
            else:
                self._active_refs.pop(host, None)
        # Their utilization may have just dropped to zero; make sure the
        # next telemetry sample closes out their timelines.
        self._telemetry_dirty.add(flow.src)
        self._telemetry_dirty.add(flow.dst)

    def _finish_flow(self, flow: Flow) -> None:
        flow.completed_at = self.sim.now
        flow.remaining = 0.0
        self.completed_flows += 1
        self._flows_completed_counter.add(1)
        if flow.admitted_at is not None:
            # Stall = time lost to bandwidth sharing: actual transfer time
            # minus what the flow's own bottleneck link would have taken.
            bottleneck = min(flow.src.up_bw, flow.dst.down_bw)
            ideal = 0.0 if math.isinf(bottleneck) else flow.size / bottleneck
            stall = (flow.completed_at - flow.admitted_at) - ideal
            self._flow_stall_hist.observe(max(0.0, stall))
        flow.span.finish()
        if flow.on_complete is not None:
            flow.on_complete(flow)

    def _trace_abort(self, flow: Flow, reason: str) -> None:
        self._flows_aborted_counter.add(1)
        flow.span.finish(aborted=True, reason=reason)

    def _request_recompute(self) -> None:
        """Coalesce same-instant reallocations behind one settle event."""
        if self._recompute_pending:
            return
        self._recompute_pending = True
        self.sim.schedule(0.0, self._settle_event)

    def _settle_event(self) -> None:
        self._recompute_pending = False
        self._recompute_rates()

    def _recompute_rates(self) -> None:
        """Max-min fair allocation by progressive water-filling.

        Only the connected component of the link graph reachable from
        dirty links is re-solved; rates of flows in untouched components
        are provably unchanged (their water-filling subproblem has
        identical inputs).
        """
        if self._completion_event is not None:
            self.sim.cancel(self._completion_event)
            self._completion_event = None
        dirty = self._dirty_keys
        if not self._flows:
            dirty.clear()
            self._inf_rates = False
            self._record_telemetry(set())
            return

        # Hosts whose allocation this pass may have changed — the only
        # ones worth re-sampling. None means "every active host" (the
        # full-solve paths re-rate everything).
        touched_hosts: Optional[Set[Host]] = set()
        if dirty:
            component = self._dirty_component()
            dirty.clear()
            if 2 * len(component) >= len(self._order_cache):
                # Most flows are affected anyway — the restricted solve
                # would walk the same links as the full one.
                self._solve_full()
                touched_hosts = None
            elif component:
                affected = self._ordered(component)
                self._solve_component(affected)
                for flow in affected:
                    touched_hosts.add(flow.src)
                    touched_hosts.add(flow.dst)
        # else: nothing touching the link graph changed (e.g. an abort of
        # a not-yet-admitted flow) — every rate is still valid.

        now = self.sim.now
        if self._vec is not None:
            next_completion, inf_rates = self._vec.completion_scan(now)
        else:
            next_completion = math.inf
            inf_rates = False
            for flow in self._order_cache:
                rate = flow.rate
                if rate > 0:
                    if math.isinf(flow.remaining):
                        # Long-running app traffic never completes; an
                        # infinite rate on it moves no bytes either, so it
                        # must not keep scheduling zero-delay completion
                        # ticks.
                        continue
                    if math.isinf(rate):
                        finish = now
                        inf_rates = True
                    else:
                        finish = now + flow.remaining / rate
                    next_completion = min(next_completion, finish)
        self._inf_rates = inf_rates
        if not math.isinf(next_completion):
            delay = max(0.0, next_completion - now)
            self._completion_event = self.sim.schedule(delay, self._on_completion_tick)
        self._record_telemetry(touched_hosts)

    def _solve_full(self) -> None:
        """Re-rate every live flow (full solve), scalar or vectorized."""
        vec = self._vec
        if vec is not None and vec.n >= flowvec.WATERFILL_MIN:
            rates = flowvec.waterfill(vec, None)
            vec.rate[: vec.n] = rates
            # Object rates stay synced: telemetry and external readers
            # consume Flow.rate directly in either mode.
            for position, flow in enumerate(self._order_cache):
                flow.rate = float(rates[position])
            return
        rates = self._waterfill(self._order_cache)
        for flow in self._order_cache:
            flow.rate = rates.get(flow, 0.0)
        if vec is not None:
            vec.sync_rates(self._order_cache)

    def _solve_component(self, affected: List[Flow]) -> None:
        """Re-rate one dirty component (admission-ordered ``affected``)."""
        vec = self._vec
        if vec is not None and len(affected) >= flowvec.WATERFILL_MIN:
            positions = vec.positions_of(affected)
            rates = flowvec.waterfill(vec, positions)
            vec.rate[positions] = rates
            for index, flow in enumerate(affected):
                flow.rate = float(rates[index])
            return
        rates = self._waterfill(affected)
        for flow in affected:
            flow.rate = rates.get(flow, 0.0)
        if vec is not None:
            vec.sync_rates(affected)

    def _dirty_component(self) -> Set[Flow]:
        """Flows connected to a dirty link through shared constraints."""
        component: Set[Flow] = set()
        members = self._members
        stack = [key for key in self._dirty_keys if key in members]
        seen = set(stack)
        while stack:
            key = stack.pop()
            for flow in members[key]:
                if flow in component:
                    continue
                component.add(flow)
                for other in (("up", flow.src.name), ("down", flow.dst.name)):
                    if other not in seen and other in members:
                        seen.add(other)
                        stack.append(other)
        return component

    def _waterfill(self, flows: List[Flow]) -> Dict[Flow, float]:
        """Progressive water-filling over ``flows`` (admission-ordered).

        ``flows`` must be closed under constraint sharing: every flow that
        crosses a link used by a member is itself a member. Float-op order
        matches the historical global solve exactly — shares divide the
        same residuals, fixed flows subtract in admission order.
        """
        residual: Dict[_LinkKey, float] = {}
        members: Dict[_LinkKey, List[Flow]] = {}
        for flow in flows:
            up_key = ("up", flow.src.name)
            down_key = ("down", flow.dst.name)
            if up_key not in residual:
                residual[up_key] = flow.src.up_bw
                members[up_key] = []
            members[up_key].append(flow)
            if down_key not in residual:
                residual[down_key] = flow.dst.down_bw
                members[down_key] = []
            members[down_key].append(flow)
        unfixed_count = {key: len(flows) for key, flows in members.items()}
        # Demand caps only enter the solve when some member actually has
        # one — the historical all-elastic case must run the exact same
        # float-op sequence (byte-identical quiescent allocations).
        demand_capped = any(not math.isinf(f.demand) for f in flows)

        unfixed = set(flows)
        rates: Dict[Flow, float] = {}
        while unfixed:
            bottleneck_share = math.inf
            for key, cap in residual.items():
                count = unfixed_count[key]
                if not count:
                    continue
                share = cap / count
                if share < bottleneck_share:
                    bottleneck_share = share
            if math.isinf(bottleneck_share):
                # No remaining link constraint: elastic flows take inf,
                # demand-capped app flows saturate at their offered load.
                for flow in unfixed:
                    rates[flow] = flow.demand
                break
            if demand_capped:
                # Flows whose offered load sits at or below the current
                # fair share saturate first: they take exactly their
                # demand and release the rest of the share back into the
                # pool before any link fills up.
                saturated = [
                    f for f in self._ordered(unfixed)
                    if f.demand <= bottleneck_share
                ]
                if saturated:
                    touched = []
                    for flow in saturated:
                        rates[flow] = flow.demand
                        unfixed.discard(flow)
                        up_key = ("up", flow.src.name)
                        down_key = ("down", flow.dst.name)
                        residual[up_key] -= flow.demand
                        unfixed_count[up_key] -= 1
                        residual[down_key] -= flow.demand
                        unfixed_count[down_key] -= 1
                        touched.append(up_key)
                        touched.append(down_key)
                    for key in touched:
                        residual[key] = max(0.0, residual[key])
                    continue
            newly_fixed = set()
            for key, cap in residual.items():
                count = unfixed_count[key]
                if count and cap / count <= bottleneck_share * (1 + 1e-12):
                    newly_fixed.update(f for f in members[key] if f in unfixed)
            if not newly_fixed:
                raise NetworkError("water-filling failed to make progress")
            # Subtract in admission order: residual capacities accumulate
            # float error, and a set-order walk would make the ulps depend
            # on object addresses rather than on the seed.
            touched = []
            for flow in self._ordered(newly_fixed):
                rates[flow] = bottleneck_share
                unfixed.discard(flow)
                up_key = ("up", flow.src.name)
                down_key = ("down", flow.dst.name)
                residual[up_key] -= bottleneck_share
                unfixed_count[up_key] -= 1
                residual[down_key] -= bottleneck_share
                unfixed_count[down_key] -= 1
                touched.append(up_key)
                touched.append(down_key)
            for key in touched:
                residual[key] = max(0.0, residual[key])
        return rates

    @staticmethod
    def _direction_utilization(flows: Set[Flow], capacity: float) -> float:
        if not flows or math.isinf(capacity):
            return 0.0
        # fsum is exactly rounded, so the value is independent of the set
        # iteration order and same-seed runs serialize identical timelines.
        used = math.fsum(f.rate for f in flows if not math.isinf(f.rate))
        return min(1.0, used / capacity)

    def _record_telemetry(self, touched: Optional[Set[Host]]) -> None:
        """Sample per-host link utilization and flow counts after a reallocation.

        Only hosts the reallocation could have moved (``touched``, plus
        any whose last flow just left) are visited; ``None`` means every
        active host (a full solve). Each series appends a point only when
        the value changed, so the dumped timelines are identical whichever
        superset of changed hosts was visited.
        """
        now = self.sim.now
        self._flows_active_series.record(now, float(len(self._flows)))
        involved = set(self._active_refs) if touched is None else set(touched)
        involved |= self._telemetry_dirty
        self._telemetry_dirty.clear()
        for host in sorted(involved, key=lambda h: h.name):
            cached = self._host_series.get(host.name)
            if cached is None:
                series = self.sim.metrics.series
                cached = (
                    series(f"net.host.{host.name}.up_util"),
                    series(f"net.host.{host.name}.down_util"),
                    series(f"net.host.{host.name}.flows"),
                )
                self._host_series[host.name] = cached
                self._host_last[host.name] = [-1.0, -1.0, -1.0]
            up_series, down_series, flows_series = cached
            last = self._host_last[host.name]
            up = self._direction_utilization(host.active_out, host.up_bw)
            if up != last[0]:
                last[0] = up
                up_series.record(now, up)
            down = self._direction_utilization(host.active_in, host.down_bw)
            if down != last[1]:
                last[1] = down
                down_series.record(now, down)
            flows = float(len(host.active_out) + len(host.active_in))
            if flows != last[2]:
                last[2] = flows
                flows_series.record(now, flows)

    def _on_completion_tick(self) -> None:
        self._completion_event = None
        self._settle_progress()
        vec = self._vec
        if vec is not None:
            order = self._order_cache
            finished = [
                order[int(position)]
                for position in vec.finished_positions(_EPSILON_BYTES)
            ]
        else:
            finished = [
                f for f in self._order_cache if f.remaining <= _EPSILON_BYTES
            ]
        for flow in finished:
            self._remove_flow(flow)
        for flow in finished:
            self._finish_flow(flow)
        self._request_recompute()


class RemoteStorage(Host):
    """A remote checkpoint store (HDFS/GFS/KV-store stand-in).

    Beyond link bandwidth, every read or write pays a fixed per-request
    overhead, modelling the two-orders-of-magnitude gap between in-memory
    message rates and remote key-value request rates cited in Sec. 2.1.
    """

    def __init__(
        self,
        name: str,
        up_bw: float,
        down_bw: float,
        request_overhead: float = 0.05,
        latency: float = 0.005,
    ) -> None:
        super().__init__(name, up_bw=up_bw, down_bw=down_bw, latency=latency)
        if request_overhead < 0:
            raise NetworkError("request_overhead must be non-negative")
        self.request_overhead = request_overhead
        self.requests_served = 0

    def charge_request(self) -> float:
        """Account one request; returns the overhead to add to its latency."""
        self.requests_served += 1
        return self.request_overhead
