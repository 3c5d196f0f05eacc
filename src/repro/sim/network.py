"""Flow-level network model with max-min fair bandwidth sharing.

Every host has independent upload and download capacities (bytes/second),
mirroring the bandwidth asymmetry of cloud environments that the paper's
tree-structured mechanism is designed around (Sec. 3.6). A bulk transfer is
a *flow*; at any instant each flow receives its max-min fair share of the
source's upload capacity and the destination's download capacity, computed
by progressive water-filling and recomputed whenever a flow starts or
finishes.

Paper-scale fast paths (none may change a simulated result):

* **Incremental allocation.** Every host owns an uplink and a downlink
  record listing the live flows that cross it, and every flow points at its
  two records. A mutation dirties only its own records, and water-filling
  re-runs over the connected component reachable from them (a flow alone on
  both its links is answered without the loop); other components keep their
  rates, bit-identically, because each is an independent subproblem (the
  equivalence tests re-solve every flow on every reallocation).
* **Sampled link telemetry.** The network stores no per-host series: it
  registers :meth:`Network.link_readings` as a collector on the registry,
  read by a :class:`~repro.obs.timeseries.TelemetryPipeline` at its ticks.
  Without one none of it is computed, and ``registry.dump()`` holds only
  ``net.flows_active``, one point per reallocation.
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
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.errors import NetworkError
from repro.obs.tracer import NULL_SPAN
from repro.sim import flowvec
from repro.sim.kernel import Event, Simulator

_EPSILON_BYTES = 1e-6
_INF = math.inf
_BY_SEQ = attrgetter("seq")  # admission order: the deterministic iteration order


class Link:
    """One direction of a host's access link.

    ``flows`` is the persistent constraint graph: the live flows crossing
    the link (a dict used as an ordered set). The other three fields are
    the link's working record during one scalar water-fill and mean
    nothing between solves (``members is None``).
    """

    __slots__ = ("flows", "residual", "unfixed", "members")

    def __init__(self) -> None:
        self.flows: Dict["Flow", None] = {}
        self.members: Optional[List["Flow"]] = None


def _byte_counter(own: str, column: str) -> property:
    """A host's flow-byte counter, kept in the FlowTable while one is attached.

    The table's arrays are then authoritative; reading and writing through
    keeps external accounting (tests, checkpoint stores) transparent in
    either mode.
    """

    def fget(host: "Host") -> float:
        ref = host._flowvec
        if ref is None:
            return getattr(host, own)
        return float(getattr(ref[0], column)[ref[1]])

    def fset(host: "Host", value: float) -> None:
        ref = host._flowvec
        if ref is None:
            setattr(host, own, value)
        else:
            getattr(ref[0], column)[ref[1]] = value

    return property(fget, fset)


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
        self._flowvec = None  # (FlowTable, slot) while one is attached
        self.control_bytes_sent = 0.0
        self.control_bytes_received = 0.0
        self.up_link = Link()
        self.down_link = Link()

    bytes_sent = _byte_counter("_bytes_sent", "h_sent")
    bytes_received = _byte_counter("_bytes_received", "h_recv")

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
        "up_link",
        "down_link",
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
        self.up_link = src.up_link
        self.down_link = dst.down_link
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
        # Mutations mark the links they touch dirty; the next recompute
        # water-fills only the connected component reachable from them.
        self._dirty_links: Set[Link] = set()
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
        # Cached registry handles: these sit on per-byte/per-flow paths.
        self._flow_bytes_counter = sim.metrics.counter("net.flow_bytes")
        self._control_bytes_counter = sim.metrics.counter("net.control_bytes")
        self._flows_started_counter = sim.metrics.counter("net.flows_started")
        self._flows_completed_counter = sim.metrics.counter("net.flows_completed")
        self._flows_aborted_counter = sim.metrics.counter("net.flows_aborted")
        self._control_dropped_counter = sim.metrics.counter("net.control_dropped")
        self._flows_active_series = sim.metrics.series("net.flows_active")
        self._queue_wait_hist = sim.metrics.histogram("net.flow_queue_wait")
        self._flow_stall_hist = sim.metrics.histogram("net.flow_stall_s")
        # Per-link evidence ("was the bottleneck the provider's uplink or
        # the replacement's downlink") is read live by whoever samples.
        sim.metrics.add_collector(self.link_readings)
        # The three callbacks every flow schedules, bound once rather than per
        # event. They point back here: the network is a cycle until close().
        self._admit_cb = self._admit
        self._settle_cb = self._recompute_rates
        self._tick_cb = self._on_completion_tick

    def close(self) -> None:
        """Drop the cached callbacks and the link collector; twice is harmless."""
        self._admit_cb = self._settle_cb = self._tick_cb = None
        self.sim.metrics.remove_collector(self.link_readings)

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
        victims = sorted({**host.up_link.flows, **host.down_link.flows}, key=_BY_SEQ)
        self._settle_progress()
        for flow in victims:
            self._abort(flow, "host_failed")
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
            self._abort(flow, "partitioned")
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
        if host.up_link.flows or host.down_link.flows:
            self._dirty_links.add(host.up_link)
            self._dirty_links.add(host.down_link)
        self._request_recompute()

    def degraded_hosts(self) -> List[Tuple[Host, float]]:
        """Alive hosts running below half of their nominal capacity.

        Returns ``(host, current/nominal)`` pairs sorted by host name — the
        control plane's flaky-node signal.
        """
        out: List[Tuple[Host, float]] = []
        for name in sorted(self.hosts):
            host = self.hosts[name]
            if not host.alive:
                continue
            ratio = host.bw_fraction()
            if ratio < 0.5:
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
        sim = self.sim
        flow = Flow(
            src, dst, nbytes, on_complete, on_abort, tag, sim.now,
            seq=self.started_flows,
        )
        if sim.tracer.enabled:
            return self._launch(flow, parent_span)
        # Untraced, _launch is these three lines.
        self.started_flows += 1
        self._flows_started_counter.add(1)
        sim.schedule(src.latency + dst.latency, self._admit_cb, flow)
        return flow

    def _launch(self, flow: Flow, parent_span) -> Flow:
        """Count and trace a new flow; admit it one propagation latency on."""
        self.started_flows += 1
        self._flows_started_counter.add(1)
        src, dst = flow.src, flow.dst
        tracer = self.sim.tracer
        if tracer.enabled:  # the null tracer costs no span name or attrs
            attrs = {} if flow.app else {"bytes": float(flow.size)}
            attrs.update(src=src.name, dst=dst.name)
            if flow.tag:
                attrs["tag"] = flow.tag
            flow.span = tracer.start(
                f"{'app flow' if flow.app else 'flow'} {src.name}->{dst.name}",
                category="net.app_flow" if flow.app else "net.flow",
                parent=parent_span,
                **attrs,
            )
        self.sim.schedule(src.latency + dst.latency, self._admit_cb, flow)
        return flow

    def _admit(self, flow: Flow) -> None:
        # Once per flow, so reachable(), the settle when already settled
        # and _request_recompute() are written out here.
        src, dst = flow.src, flow.dst
        alive = src.alive and dst.alive
        cut = self._partition
        if (
            flow.aborted
            or not alive
            or (cut is not None and (src.name in cut) != (dst.name in cut))
        ):
            self._abort(flow, "partitioned" if alive else "dead_endpoint")
            return
        now = self.sim.now
        if now != self._settled_at or self._inf_rates:
            self._settle_progress()
        flow.admitted_at = now
        self._queue_wait_hist.observe(now - flow.started_at)
        if flow.remaining <= _EPSILON_BYTES:
            self._finish_flow(flow)
            return
        self._flows.add(flow)
        order = self._order_cache
        seq = flow.seq
        position = len(order)
        if position and order[-1].seq > seq:
            # Differing propagation latencies admit flows out of sequence
            # order: bisect for the first one admitted after it.
            low = 0
            while low < position:
                mid = (low + position) // 2
                if order[mid].seq < seq:
                    low = mid + 1
                else:
                    position = mid
        order.insert(position, flow)  # the table inserts its row at the same index
        if self._vec is not None:
            self._vec.insert(position, flow)
        up, down = flow.up_link, flow.down_link
        up.flows[flow] = None
        down.flows[flow] = None
        self._dirty_links.add(up)
        self._dirty_links.add(down)
        if not self._recompute_pending:
            self._recompute_pending = True
            self.sim.schedule(0.0, self._settle_cb)

    def abort_flow(self, flow: Flow) -> None:
        """Cancel an in-flight (or not yet admitted) transfer."""
        if flow.done or flow.aborted:
            return
        self._settle_progress()
        self._abort(flow, "cancelled")
        self._request_recompute()

    # -------------------------------------------------------------- app flows

    def open_app_flow(
        self,
        src: Host,
        dst: Host,
        demand: float = math.inf,
        tag: Optional[str] = None,
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
        any other flow (the workload sees ``flow.aborted`` and re-routes).
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
            src, dst, math.inf, None, None, tag, self.sim.now,
            seq=self.started_flows, demand=demand, app=True,
        )
        self.sim.metrics.counter("net.app_flows_opened").add(1)
        return self._launch(flow, None)

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
            self._dirty_links.add(flow.up_link)
            self._dirty_links.add(flow.down_link)
            self._request_recompute()

    def close_app_flow(self, flow: Flow) -> None:
        """Retire an app flow (workload drained or re-routed).

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
            self.sim.schedule(src.latency + dst.latency, on_delivery)

    # ---------------------------------------------------------------- internal

    def _settle_progress(self) -> None:
        """Advance every flow's remaining-byte count to the current instant.

        Every mutation settles first, so all live flows were last settled
        at ``_settled_at`` and share one ``elapsed``. Re-settling at an
        instant already settled moves zero bytes, so it short-circuits —
        except while an infinite-rate flow is live (its whole payload
        moves on settle regardless of elapsed time).
        """
        now = self.sim.now
        if now == self._settled_at and not self._inf_rates:
            return
        elapsed = now - self._settled_at
        self._settled_at = now
        vec = self._vec
        if (
            vec is None
            and flowvec.HAVE_NUMPY
            and len(self._order_cache) >= flowvec.VECTOR_ACTIVATE
        ):
            vec = self._vec = flowvec.attach(self._order_cache)
        if vec is not None:
            moved = vec.settle(elapsed)
            if moved is not None:
                self.total_bytes = flowvec.fold_total(self.total_bytes, moved)
                counter = self._flow_bytes_counter
                counter.total = flowvec.fold_total(counter.total, moved)
            if vec.n < flowvec.VECTOR_DEACTIVATE:
                self._deactivate_vector()
            return
        # No table is attached, so every host keeps its own byte counters
        # and the properties' read-through can be bypassed.
        total = self.total_bytes
        counted = self._flow_bytes_counter.total
        for flow in self._order_cache:
            rate = flow.rate
            if rate == _INF:
                # Unconstrained path: the transfer completes instantly. An
                # app flow (infinite remaining) would move unbounded,
                # meaningless bytes — charge nothing rather than poison
                # the byte counters with inf.
                moved = flow.remaining
                if moved == _INF:
                    continue
            elif elapsed > 0 and rate > 0:
                moved = min(flow.remaining, rate * elapsed)
            else:
                continue
            if moved > 0:
                flow.remaining -= moved
                flow.src._bytes_sent += moved
                flow.dst._bytes_received += moved
                total += moved
                counted += moved
        self.total_bytes = total
        self._flow_bytes_counter.total = counted

    def _deactivate_vector(self) -> None:
        """Write vector state back to the objects and drop the mirror."""
        vec = self._vec
        self._vec = None
        remaining = vec.remaining[: vec.n].tolist()
        for flow, left in zip(self._order_cache, remaining):
            flow.remaining = left
        vec.detach()

    def _remove_flow(self, flow: Flow) -> None:
        vec = self._vec
        if vec is not None:
            # Sync the authoritative remaining-byte count back before the
            # object leaves the table (abort callbacks read it).
            position = vec.pos_of(flow)
            flow.remaining = float(vec.remaining[position])
            vec.remove_many([position])
            del self._order_cache[position]
            if vec.n < flowvec.VECTOR_DEACTIVATE:
                self._deactivate_vector()
        else:
            self._order_cache.remove(flow)
        self._flows.discard(flow)
        del flow.up_link.flows[flow]
        del flow.down_link.flows[flow]
        self._dirty_links.add(flow.up_link)
        self._dirty_links.add(flow.down_link)

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
        # A finished flow drops both callbacks, or one reaching it is a cycle.
        on_complete = flow.on_complete
        flow.on_complete = flow.on_abort = None
        if on_complete is not None:
            on_complete(flow)

    def _abort(self, flow: Flow, reason: str) -> None:
        if flow in self._flows:
            self._remove_flow(flow)
        flow.aborted = True
        self._flows_aborted_counter.add(1)
        flow.span.finish(aborted=True, reason=reason)
        on_abort = flow.on_abort
        flow.on_complete = flow.on_abort = None
        if on_abort is not None:
            on_abort(flow)

    def _request_recompute(self) -> None:
        """Coalesce same-instant reallocations behind one settle event."""
        if self._recompute_pending:
            return
        self._recompute_pending = True
        self.sim.schedule(0.0, self._settle_cb)

    def _recompute_rates(self) -> None:
        """The settle event: max-min fair allocation by progressive water-filling.

        Only the connected component of the link graph reachable from
        dirty links is re-solved; rates of flows in untouched components
        are provably unchanged (their water-filling subproblem has
        identical inputs).
        """
        self._recompute_pending = False
        if self._completion_event is not None:
            self.sim.cancel(self._completion_event)
            self._completion_event = None
        dirty = self._dirty_links
        if not self._flows:
            dirty.clear()
            self._inf_rates = False
            self._flows_active_series.record(self.sim.now, 0.0)
            return

        order = self._order_cache
        if dirty:
            if len(order) == 1 and self._vec is None:
                # A lone flow's component is itself when a dirty link carries
                # it, else empty; its rate is _waterfill's single-flow case.
                (flow,) = order
                if flow.up_link in dirty or flow.down_link in dirty:
                    share = min(flow.src.up_bw, flow.dst.down_bw)
                    demand = flow.demand
                    flow.rate = demand if share == _INF or demand <= share else share
            else:
                component = self._dirty_component()
                if 2 * len(component) >= len(order):
                    # Most flows are affected anyway — the restricted solve
                    # would walk the same links as the full one.
                    self._rerate(order, full=True)
                elif component:
                    self._rerate(sorted(component, key=_BY_SEQ), full=False)
            dirty.clear()
        # else: nothing touching the link graph changed (e.g. an abort of
        # a not-yet-admitted flow) — every rate is still valid.

        now = self.sim.now
        if self._vec is not None:
            next_completion, inf_rates = self._vec.completion_scan(now)
        else:
            next_completion = _INF
            inf_rates = False
            for flow in order:
                rate = flow.rate
                # Long-running app traffic (infinite remaining) never
                # completes; an infinite rate on it moves no bytes either,
                # so it must not keep scheduling zero-delay completion
                # ticks.
                if rate > 0 and flow.remaining != _INF:
                    if rate == _INF:
                        finish = now
                        inf_rates = True
                    else:
                        finish = now + flow.remaining / rate
                    if finish < next_completion:
                        next_completion = finish
        self._inf_rates = inf_rates
        if next_completion != _INF:
            delay = max(0.0, next_completion - now)
            self._completion_event = self.sim.schedule(delay, self._tick_cb)
        self._flows_active_series.record(now, float(len(self._flows)))

    def _rerate(self, flows: List[Flow], full: bool) -> None:
        """Water-fill ``flows`` and apply the rates that actually moved.

        Object rates stay synced with the table: link readings and
        external readers consume ``Flow.rate`` in either mode.
        """
        vec = self._vec
        if vec is not None and len(flows) >= flowvec.WATERFILL_MIN:
            positions = None if full else vec.positions_of(flows)
            moved, rates = vec.rerate(positions)
            moved = [flows[index] for index in moved]
        else:
            solved = self._waterfill(flows)
            moved = [flow for flow in flows if solved[flow] != flow.rate]
            rates = [solved[flow] for flow in moved]
            if vec is not None and moved:
                vec.set_rates(moved, rates)
        for flow, rate in zip(moved, rates):
            flow.rate = rate

    def _dirty_component(self) -> Set[Flow]:
        """Flows connected to a dirty link through shared constraints."""
        component: Set[Flow] = set()
        stack = [link for link in self._dirty_links if link.flows]
        seen = set(stack)
        while stack:
            for flow in stack.pop().flows:
                if flow in component:
                    continue
                component.add(flow)
                other = flow.up_link
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
                other = flow.down_link
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
        return component

    def _waterfill(self, flows: List[Flow]) -> Dict[Flow, float]:
        """Progressive water-filling over ``flows`` (admission-ordered).

        ``flows`` must be closed under constraint sharing: every flow that
        crosses a link used by a member is itself a member. Float-op order
        matches the reference solver kept in the tests exactly — shares
        divide the same residuals, fixed flows subtract in admission order.
        A flow is fixed once it has an entry in the returned dict.
        """
        if len(flows) == 1:
            # Alone on both its links: the loop below would divide each
            # capacity by one and stop at the smaller, or at the demand.
            (flow,) = flows
            share = min(flow.src.up_bw, flow.dst.down_bw)
            return {flow: flow.demand if share == _INF or flow.demand <= share else share}
        links: List[Link] = []
        # Demand caps only enter the solve when some member actually has
        # one — the all-elastic case must run the exact same float-op
        # sequence (byte-identical quiescent allocations).
        demand_capped = False
        for flow in flows:
            link = flow.up_link
            if link.members is None:
                link.residual = flow.src.up_bw
                link.members = []
                links.append(link)
            link.members.append(flow)
            link = flow.down_link
            if link.members is None:
                link.residual = flow.dst.down_bw
                link.members = []
                links.append(link)
            link.members.append(flow)
            if flow.demand != _INF:
                demand_capped = True
        for link in links:
            link.unfixed = len(link.members)

        rates: Dict[Flow, float] = {}
        unfixed = len(flows)
        open_links = links
        while unfixed:
            bottleneck_share = _INF
            for link in open_links:
                share = link.residual / link.unfixed
                if share < bottleneck_share:
                    bottleneck_share = share
            if bottleneck_share == _INF:
                # No remaining link constraint: elastic flows take inf,
                # demand-capped app flows saturate at their offered load.
                for flow in flows:
                    if flow not in rates:
                        rates[flow] = flow.demand
                break
            # Flows whose offered load sits at or below the current
            # fair share saturate first: they take exactly their demand
            # and release the rest of the share back into the pool
            # before any link fills up.
            saturated = demand_capped and [
                f for f in flows if f.demand <= bottleneck_share and f not in rates
            ]
            if saturated:
                fixed = saturated
            else:
                limit = bottleneck_share * (1 + 1e-12)
                contributors = 0
                fixed = []
                for link in open_links:
                    if link.residual / link.unfixed <= limit:
                        fixed += [f for f in link.members if f not in rates]
                        contributors += 1
                if not fixed:
                    raise NetworkError("water-filling failed to make progress")
                if contributors > 1:
                    # Subtract in admission order: residual capacities
                    # accumulate float error. One link's members are
                    # already in that order; several links' need the
                    # merge (a flow can sit on two of them).
                    fixed = sorted(set(fixed), key=_BY_SEQ)
            for flow in fixed:
                amount = flow.demand if saturated else bottleneck_share
                rates[flow] = amount
                link = flow.up_link
                link.residual -= amount
                link.unfixed -= 1
                link = flow.down_link
                link.residual -= amount
                link.unfixed -= 1
            for flow in fixed:
                if flow.up_link.residual <= 0.0:
                    flow.up_link.residual = 0.0
                if flow.down_link.residual <= 0.0:
                    flow.down_link.residual = 0.0
            unfixed -= len(fixed)
            # Links with every member fixed constrain nothing further.
            open_links = [link for link in open_links if link.unfixed]
        for link in links:
            link.members = None
        return rates

    def link_readings(self) -> Dict[str, float]:
        """``net.host.<name>.{up_util,down_util,flows}`` of every busy host.

        Live state under the allocation in force; a host carrying no flow
        has no entry and reads 0.0. Read through the registry's collectors.
        """
        busy: Dict[Host, None] = {}
        for flow in self._order_cache:
            busy[flow.src] = None
            busy[flow.dst] = None
        readings: Dict[str, float] = {}
        for host in busy:
            out_flows = host.up_link.flows
            in_flows = host.down_link.flows
            prefix = f"net.host.{host.name}."
            readings[prefix + "up_util"] = _utilization(out_flows, host.up_bw)
            readings[prefix + "down_util"] = _utilization(in_flows, host.down_bw)
            readings[prefix + "flows"] = float(len(out_flows) + len(in_flows))
        return readings

    def _on_completion_tick(self) -> None:
        self._completion_event = None
        self._settle_progress()
        order = self._order_cache
        vec = self._vec
        if vec is not None:
            positions = vec.finished_positions(_EPSILON_BYTES)
            finished = [order[position] for position in positions]
            # A completion callback may look at a sibling that finished in
            # the same tick before that sibling's own turn.
            for flow, left in zip(finished, vec.remaining[positions].tolist()):
                flow.remaining = left
            vec.remove_many(positions)
            for position in reversed(positions):
                del order[position]
            if vec.n < flowvec.VECTOR_DEACTIVATE:
                self._deactivate_vector()
        elif len(order) == 1:  # the comprehensions below, without their frames
            finished = [order.pop()] if order[0].remaining <= _EPSILON_BYTES else []
        else:
            finished = [f for f in order if f.remaining <= _EPSILON_BYTES]
            if finished:
                order[:] = [f for f in order if f.remaining > _EPSILON_BYTES]
        dirty = self._dirty_links
        for flow in finished:  # _remove_flow's unlinking, the list already cut
            self._flows.discard(flow)
            up, down = flow.up_link, flow.down_link
            del up.flows[flow]
            del down.flows[flow]
            dirty.add(up)
            dirty.add(down)
        for flow in finished:
            self._finish_flow(flow)
        if not self._recompute_pending:
            self._recompute_pending = True
            self.sim.schedule(0.0, self._settle_cb)


def _utilization(flows: Dict[Flow, None], capacity: float) -> float:
    """Share of ``capacity`` the finite-rate ``flows`` are allocated."""
    if not flows or capacity == _INF:
        return 0.0
    if len(flows) == 1:
        (flow,) = flows
        used = flow.rate
        if used == _INF:
            used = 0.0
    else:
        # fsum is exactly rounded, so the value is independent of the
        # iteration order and same-seed runs serialize identical timelines.
        used = math.fsum(f.rate for f in flows if f.rate != _INF)
    return min(1.0, used / capacity)


class RemoteStorage(Host):
    """A remote checkpoint store (HDFS/GFS/KV-store stand-in).

    Beyond link bandwidth, every read or write pays a fixed per-request
    overhead, modelling the two-orders-of-magnitude gap between in-memory
    message rates and remote key-value request rates cited in Sec. 2.1.
    """

    #: Seconds every read or write request pays on top of its transfer.
    request_overhead = 0.05

    def __init__(self, name: str, up_bw: float, down_bw: float) -> None:
        super().__init__(name, up_bw=up_bw, down_bw=down_bw, latency=0.005)
        self.requests_served = 0

    def charge_request(self) -> float:
        """Account one request; returns the overhead to add to its latency."""
        self.requests_served += 1
        return self.request_overhead
