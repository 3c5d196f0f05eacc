"""Shared machinery of all recovery mechanisms: cost model, context, results.

The :class:`CostModel` holds the calibrated constants of the simulation —
merge throughput, per-shard and per-stage setup costs, detection delay —
chosen so the *shape* of every figure in the paper's evaluation holds
(which mechanism wins in which regime, where the crossovers fall). The
absolute constants are documented here and in DESIGN.md; benchmarks assert
orderings, never absolute seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.dht.node import DhtNode
from repro.dht.overlay import Overlay
from repro.errors import InsufficientShardsError, RecoveryError, ReplacementDiedError
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.sim.resources import ResourceProfile
from repro.state.placement import PlacedShard, PlacementPlan
from repro.util.sizes import MB


@dataclass(frozen=True)
class CostModel:
    """Calibrated constants of the recovery simulation.

    Rates are bytes/second, delays are seconds. Defaults are calibrated so
    that, with GbE links and a 100 Mb/s constrained mode, the Fig. 8/9/10
    orderings reproduce (see ``benchmarks/``).
    """

    # Failure detection before any mechanism starts moving data.
    detection_delay: float = 1.0
    # Hash-table merge throughput when reconstructing state from shards.
    merge_rate: float = 12.5 * MB
    # Installing an already-merged state image into the replacement store.
    install_rate: float = 100.0 * MB
    # Partitioning a snapshot into shards during save.
    partition_rate: float = 50.0 * MB
    # Fixed cost per shard fetched in star recovery (request/queue setup).
    shard_setup: float = 0.05
    # Fixed cost per line stage (chain handoff and coordination).
    stage_setup: float = 0.08
    # Line recovery recomputes the accumulated prefix at every stage — the
    # "redundant calculations in their state recovery paths" of Sec. 5.2.
    # Each stage pays ``redundant_factor * accumulated_bytes / merge_rate``.
    line_redundant_factor: float = 0.06
    # Fixed cost per tree level (parent waits, merge scheduling).
    level_setup: float = 0.05
    # Building/subscribing the per-shard Scribe aggregation trees.
    tree_build_base: float = 2.4
    tree_build_per_member: float = 0.02
    # Tree aggregation merges concatenate disjoint key ranges, which is
    # cheaper than hash-table merging; it runs at the install rate.
    # Fixed cost to write one shard replica during save (request overhead).
    replica_write_overhead: float = 0.4
    # Extra routing/lookup cost to locate an alternate replica after a
    # shard loss (Fig. 10's slight growth with simultaneous failures).
    replica_lookup_overhead: float = 0.25
    # Chain-aware recovery: fixed coordination cost per delta link replayed
    # (version handshake, tombstone pass scheduling)...
    chain_link_setup: float = 0.03
    # ...and delta replay runs slower than a base merge per byte: upserts
    # hit existing buckets and tombstones force lookups, so each delta byte
    # costs ``delta_replay_factor`` base-merge bytes.
    delta_replay_factor: float = 1.2
    # Hot-standby tier (the StreamShield-style fourth tier): the warm
    # replica keeps a dedicated heartbeat session with the primary, so it
    # notices the failure after only a fraction of the DHT-wide detector
    # delay...
    standby_detection_factor: float = 0.25
    # ...and takeover is an ownership flip (routing update + store
    # promotion, no bulk movement)...
    standby_flip: float = 0.05
    # ...plus replay of the delta tail the standby had not folded into its
    # warm image yet: this fraction of the chain's delta payload.
    standby_lag_fraction: float = 0.1
    # CPU fraction a node spends while actively merging (Fig. 12a).
    merge_cpu_fraction: float = 0.75
    # CPU fraction spent while sending/receiving a bulk flow.
    transfer_cpu_fraction: float = 0.15
    # Memory multiplier for recovery buffers (bytes held per byte merged).
    buffer_memory_factor: float = 1.3

    def merge_time(self, nbytes: float) -> float:
        return nbytes / self.merge_rate

    def install_time(self, nbytes: float) -> float:
        return nbytes / self.install_rate

    def partition_time(self, nbytes: float) -> float:
        return nbytes / self.partition_rate

    def replay_time(self, delta_bytes: float, num_deltas: int) -> float:
        """Time to replay ``num_deltas`` delta links totalling ``delta_bytes``.

        Zero for chain-free recoveries, so every existing full-replica
        code path is unchanged by the chain terms.
        """
        if num_deltas <= 0:
            return 0.0
        return (
            self.chain_link_setup * num_deltas
            + self.delta_replay_factor * delta_bytes / self.merge_rate
        )

    def standby_takeover_time(self, delta_bytes: float, chain_links: int) -> float:
        """Post-detection standby takeover: ownership flip + tail replay.

        The warm image already holds the base and every folded delta, so
        only ``standby_lag_fraction`` of the chain's delta payload (the
        unfolded tail) replays at the flip.
        """
        tail = max(0.0, delta_bytes) * self.standby_lag_fraction
        return self.standby_flip + self.replay_time(tail, max(0, chain_links - 1))

    def lookup_penalty(self, num_replicas: int, surviving: int) -> float:
        """DHT lookup cost to find alternate replicas after shard loss.

        Scales with the fraction of replicas lost: a larger replication
        factor leaves more nearby copies, so "a larger replication factor
        can reduce the retrieval time of failed shards" (Sec. 5.2,
        Fig. 10).
        """
        if num_replicas <= 0:
            raise ValueError("num_replicas must be positive")
        lost = max(0, num_replicas - surviving)
        return self.replica_lookup_overhead * lost / num_replicas


@dataclass(frozen=True)
class RetryPolicy:
    """How a mechanism reacts when a transfer dies mid-recovery.

    A provider crash (or a partition cutting it off) aborts its flow; the
    mechanism waits ``backoff * 2**attempt`` seconds, re-queries the
    placement plan for a surviving replica, and retries — up to
    ``max_retries`` times per shard before the recovery fails with a
    descriptive error. The exponential backoff lets recoveries ride out
    transient partitions that heal within the retry budget.
    """

    max_retries: int = 5
    backoff: float = 1.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff <= 0:
            raise ValueError("backoff must be positive")

    def delay(self, attempt: int) -> float:
        """Seconds to wait before retry number ``attempt`` (0-based)."""
        return self.backoff * (2 ** attempt)


def replacement_died(
    mechanism: str, state_name: str, replacement: DhtNode
) -> ReplacementDiedError:
    """The error every mechanism raises when its replacement node dies.

    Kept uniform (and a :class:`RecoveryError`, never an overlay or network
    internal) so callers can catch it by type and restart the recovery onto
    a fresh replacement.
    """
    return ReplacementDiedError(
        f"state {state_name!r}: replacement node {replacement.name} died during "
        f"{mechanism} recovery; restart the recovery onto a new replacement"
    )


@dataclass
class RecoveryContext:
    """Everything a mechanism needs to run: sim, network, overlay, costs."""

    sim: Simulator
    network: Network
    overlay: Overlay
    cost_model: CostModel = field(default_factory=CostModel)
    profiles: Dict[str, ResourceProfile] = field(default_factory=dict)

    def profile_for(self, node: DhtNode) -> ResourceProfile:
        """The resource profile of a node, created on first use."""
        name = node.host.name  # DhtNode.name without the property frame
        profile = self.profiles.get(name)
        if profile is None:
            profile = self.profiles[name] = ResourceProfile(
                name, baseline_cpu=0.18, baseline_memory=500 * MB
            )
        return profile

    def charge_cpu(self, node: DhtNode, start: float, duration: float, fraction: float) -> None:
        if duration > 0:
            self.profile_for(node).add_cpu(start, start + duration, fraction)

    def charge_memory(self, node: DhtNode, start: float, duration: float, nbytes: float) -> None:
        if duration > 0 and nbytes > 0:
            self.profile_for(node).add_memory(start, start + duration, nbytes)


@dataclass
class RecoveryResult:
    """Outcome of one completed recovery."""

    mechanism: str
    state_name: str
    state_bytes: float
    started_at: float
    finished_at: float
    bytes_transferred: float
    nodes_involved: int
    shards_recovered: int
    replacement: str
    detail: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at


class Pending:
    """A save, standby sync or recovery in flight; resolves exactly once.

    Callers run the simulator and then read ``result``. A callback given
    to ``on_done`` after the value landed fires at once; resolving twice
    is an error; a failure surfaces its exception from ``result``. Each
    kind words its two errors in ``unfinished`` and ``twice``, formatted
    with the handle's own attributes.
    """

    unfinished: str
    twice: str

    def __init__(self, state_name: str) -> None:
        self.state_name = state_name
        self._result: Any = None
        self._error: Optional[Exception] = None
        self._callbacks: List[Callable[[Any], None]] = []
        self.done = False  # a field, not a property: every recovery step reads it

    @property
    def result(self) -> Any:
        if self._error is not None:
            raise self._error
        if self._result is None:
            raise RecoveryError(self.unfinished.format_map(vars(self)))
        return self._result

    def on_done(self, callback: Callable[[Any], None]) -> None:
        if self._result is not None:
            callback(self._result)
        else:
            self._callbacks.append(callback)

    def _resolve(self, result: Any) -> None:
        if self.done:
            raise RecoveryError(self.twice.format_map(vars(self)))
        self._result = result
        self.done = True
        callbacks, self._callbacks = self._callbacks, []  # dropped, as a flow's are
        for callback in callbacks:
            callback(result)

    def _fail(self, error: Exception) -> None:
        if self.done:
            raise RecoveryError(self.twice.format_map(vars(self)))
        self._error = error
        self.done = True
        self._callbacks = []  # a failed handle fires none of them


class RecoveryHandle(Pending):
    """A recovery in flight; resolves to a :class:`RecoveryResult`.

    Mechanisms schedule their event cascade and return a handle; callers
    run the simulator (alone or alongside other concurrent recoveries) and
    then read ``handle.result``.
    """

    unfinished = "recovery of {state_name!r} via {mechanism} has not finished"
    twice = "handle for {state_name!r} resolved twice"
    # In the class's own dict, so a harness can wrap it for this kind alone.
    on_done = Pending.on_done

    def __init__(self, mechanism: str, state_name: str) -> None:
        super().__init__(state_name)
        self.mechanism = mechanism


class RecoverySession:
    """Where every recovery, mechanism or baseline, opens and closes.

    Opening creates the handle and starts the root span ``span`` (category
    ``recovery``, ``attrs`` in the caller's order). ``fail`` and
    ``finish`` each close the root span, count the outcome and resolve the
    handle, in that order; once the handle is done both are no-ops.
    ``moved`` is the bytes put on the wire, reported on the result.
    """

    def __init__(
        self,
        sim: Simulator,
        mechanism: str,
        state_name: str,
        replacement: DhtNode,
        span: str,
        /,
        **attrs: Any,
    ) -> None:
        self.sim = sim
        self.mechanism = mechanism
        self.name = state_name
        self.replacement = replacement
        self.handle = RecoveryHandle(mechanism, state_name)
        self.started_at = sim.now
        self.moved = 0.0
        self.root_span = sim.tracer.start(span, category="recovery", **attrs)

    def fail(self, error: Exception, **span_attrs: Any) -> None:
        """Close the root span with the error, count, then fail the handle."""
        if self.handle.done:
            return
        self.root_span.finish(**span_attrs, error=str(error))
        self.sim.metrics.counter("recovery.failed").add(1, label=self.mechanism)
        self.handle._fail(error)

    def finish(
        self,
        state_bytes: float,
        nodes_involved: int,
        shards_recovered: int,
        detail: Dict[str, float],
        **span_attrs: Any,
    ) -> None:
        """Close the root span, count, time, then resolve with the result."""
        if self.handle.done:
            return
        sim = self.sim
        self.root_span.finish(**span_attrs)
        sim.metrics.counter("recovery.completed").add(1, label=self.mechanism)
        sim.metrics.histogram("recovery.duration").observe(sim.now - self.started_at)
        self.handle._resolve(
            RecoveryResult(
                mechanism=self.mechanism,
                state_name=self.name,
                state_bytes=state_bytes,
                started_at=self.started_at,
                finished_at=sim.now,
                bytes_transferred=self.moved,
                nodes_involved=nodes_involved,
                shards_recovered=shards_recovered,
                replacement=self.replacement.name,
                detail=detail,
            )
        )


class RecoveryRun(RecoverySession):
    """One mechanism's recovery in flight: everything the mechanisms share, once.

    A mechanism's ``start()`` opens a run and then describes only its
    shape: which replica travels where, and in what order. The run owns
    the session (handle, root span, outcome), the snapshot of surviving
    providers, the guards against a dead replacement, the retry budget,
    the traced transfer and the ``merge -> replay deltas -> install``
    tail.

    Call order is part of the contract. Within one event the run issues
    ``tracer.*``, ``metrics.*``, ``sim.schedule`` and ``network.transfer``
    calls in a fixed order (each method lists its own), because that order
    assigns span ids and breaks the kernel's same-instant ties;
    ``tests/test_recovery_trace_pins.py`` pins the resulting traces.
    """

    def __init__(
        self,
        ctx: RecoveryContext,
        mechanism: str,
        plan: PlacementPlan,
        replacement: DhtNode,
        state_name: Optional[str] = None,
        retry_policy: RetryPolicy = RetryPolicy(),
        **knobs: Any,
    ) -> None:
        """Open the session, then snapshot the providers.

        A shard with no surviving replica fails the handle here; callers
        return ``run.handle`` at once when ``run.handle.done``. ``knobs``
        are the mechanism's tunables, recorded on the root span.
        """
        if not state_name:
            if not plan.placements:
                raise InsufficientShardsError("empty placement plan")
            state_name = plan.placements[0].replica.shard.state_name
        super().__init__(
            ctx.sim,
            mechanism,
            state_name,
            replacement,
            f"recovery/{mechanism}",
            state=state_name,
            replacement=replacement.name,
            **knobs,
        )
        self.ctx = ctx
        self.plan = plan
        self.policy = retry_policy
        self.involved: Set[str] = {replacement.name}  # names of nodes that took part
        self.retries: Dict[Hashable, int] = {}  # retries spent, per budget key
        self._used: Set[object] = set()
        self.providers: Dict[int, List[PlacedShard]] = {}
        for index in plan.shard_indexes():
            providers = plan.providers_for(index)
            if not providers:
                # Closed here rather than by fail(): recovery.failed stays uncounted.
                self.root_span.finish(error="insufficient_shards", shard=index)
                self.handle._fail(
                    InsufficientShardsError(
                        f"{state_name}: no surviving replica of shard {index}"
                    )
                )
                return
            self.providers[index] = providers
        self.total_bytes = float(
            sum(p[0].replica.size_bytes for p in self.providers.values())
        )
        # Version-chain shape of the plan (1 link / 0 bytes for flat plans):
        # how many links the segments span, and how much of the payload is
        # delta to replay on top of the base.
        self.chain_len = int(getattr(plan, "length", 1))
        self.delta_bytes = float(getattr(plan, "delta_bytes", 0.0))
        self.root_span.annotate(
            state_bytes=self.total_bytes,
            shards=len(self.providers),
            chain_len=self.chain_len,
            delta_bytes=self.delta_bytes,
        )

    @property
    def base_bytes(self) -> float:
        """Bytes of base shards: what is merged and installed, not replayed."""
        return self.total_bytes - self.delta_bytes

    def lookup_penalty(self, index: int) -> float:
        """DHT lookup cost of a shard that lost replicas before the run (Fig. 10)."""
        providers = self.providers[index]
        return self.ctx.cost_model.lookup_penalty(
            providers[0].replica.num_replicas, len(providers)
        )

    def spread(self, providers: Sequence[PlacedShard]) -> PlacedShard:
        """Pick a provider, preferring nodes no earlier pick already loads."""
        fresh = [p for p in providers if p.node.node_id not in self._used]
        chosen = (fresh or providers)[0]
        self._used.add(chosen.node.node_id)
        self.involved.add(chosen.node.name)
        return chosen

    def detect(self, delay: float, launch: Callable[[], None]) -> None:
        """Spend the failure-detection delay under a span, then ``launch``."""
        span = self.root_span.child("detect", category="recovery.detect", delay=delay)

        def detected() -> None:
            span.finish()
            launch()

        self.sim.schedule(delay, detected)

    def live(self) -> bool:
        """Whether to go on; fails the handle first if the replacement died."""
        if self.handle.done:
            return False
        if not self.replacement.alive:
            self.fail(replacement_died(self.mechanism, self.name, self.replacement))
            return False
        return True

    def backoff(
        self, key: Hashable, label: str, exhausted: str, **attrs: Any
    ) -> Optional[float]:
        """Spend one retry of ``key``'s budget; seconds to wait before it.

        Budget check, then counter, then the ``retry`` instant. With the
        budget spent the handle fails with ``exhausted`` and the answer is
        None, so ``recovery.retries`` never counts a retry that was not
        scheduled.
        """
        attempt = self.retries.get(key, 0)
        if attempt >= self.policy.max_retries:
            self.fail(InsufficientShardsError(f"{self.name}: {exhausted}"))
            return None
        self.retries[key] = attempt + 1
        self.sim.metrics.counter("recovery.retries").add(1, label=self.mechanism)
        self.sim.tracer.instant(
            f"retry {label}", category="recovery.retry", attempt=attempt + 1, **attrs
        )
        return self.policy.delay(attempt)

    def survivors(self, index: int) -> List[PlacedShard]:
        """Replicas of a shard alive now; fails the handle when none is left."""
        providers = self.plan.providers_for(index)
        if not providers:
            self.fail(
                InsufficientShardsError(
                    f"{self.name}: every replica of shard {index} was lost "
                    f"during recovery"
                )
            )
        return providers

    def usable(self, index: int, dst: DhtNode) -> Optional[List[PlacedShard]]:
        """Surviving replicas that can reach ``dst``; None once the handle failed.

        An empty list means replicas survive across a partition: back off
        and hope the cut heals within the retry budget.
        """
        providers = self.survivors(index)
        if not providers:
            return None
        reachable = self.ctx.network.reachable
        return [p for p in providers if reachable(p.node.host, dst.host)]

    def transfer(
        self,
        parent,
        label: str,
        src: DhtNode,
        dst: DhtNode,
        nbytes: float,
        arrived: Callable,
        aborted: Callable,
        **attrs: Any,
    ) -> Tuple[Any, Any]:
        """Start one flow under its own ``recovery.transfer`` child span.

        Span first, then the flow nested under it. ``arrived(span, flow)``
        and ``aborted(span, flow)`` close the span themselves: whether a
        late arrival still closes it is the mechanism's call.
        """
        span = parent.child(
            label, category="recovery.transfer", bytes=float(nbytes), **attrs
        )
        flow = self.ctx.network.transfer(
            src.host,
            dst.host,
            nbytes,
            on_complete=partial(arrived, span),
            on_abort=partial(aborted, span),
            parent_span=span,
        )
        return flow, span

    def rebuild(
        self,
        merge: float,
        install: float,
        buffer_bytes: float,
        detail: Dict[str, float],
        **span_attrs: Any,
    ) -> None:
        """The tail on the replacement: merge, replay deltas, install, finish.

        ``merge`` and ``install`` are seconds (0 skips the stage and its
        span); delta links replay between them in version order (upserts
        and tombstones), and take no time on a flat plan. The replacement's
        CPU is charged for the whole tail and ``buffer_bytes`` of memory is
        held across it. Spans in stage order, then CPU, memory, and the
        ``finish`` event.
        """
        if self.handle.done:
            return
        sim, cost, node = self.sim, self.ctx.cost_model, self.replacement
        record = sim.tracer.record
        now = sim.now
        replay = cost.replay_time(self.delta_bytes, self.chain_len - 1)
        if merge > 0:
            record(
                "merge",
                now,
                now + merge,
                category="recovery.merge",
                parent=self.root_span,
                bytes=self.base_bytes,
                node=node.name,
            )
        if replay > 0:
            record(
                "replay deltas",
                now + merge,
                now + merge + replay,
                category="recovery.replay",
                parent=self.root_span,
                bytes=self.delta_bytes,
                links=self.chain_len - 1,
                node=node.name,
            )
        if install > 0:
            record(
                "install",
                now + merge + replay,
                now + merge + replay + install,
                category="recovery.install",
                parent=self.root_span,
                bytes=self.total_bytes,
                node=node.name,
            )
        busy = merge + replay + install
        self.ctx.charge_cpu(node, now, busy, cost.merge_cpu_fraction)
        self.ctx.charge_memory(node, now, busy, buffer_bytes)
        if busy > 0:
            sim.schedule(busy, self.complete, detail, span_attrs)
        else:
            self.complete(detail, span_attrs)

    def complete(self, detail: Dict[str, float], span_attrs: Dict[str, Any]) -> None:
        """Finish the session with the bytes moved, nodes involved and shards."""
        self.finish(
            self.total_bytes,
            len(self.involved),
            len(self.providers),
            detail,
            bytes=self.moved,
            **span_attrs,
        )


class FetchWindow:
    """Replicas fetched straight onto the replacement, ``window`` at a time.

    Each entry of ``chosen`` is ``(shard index, replica, lookup penalty)``.
    A fetch starts one penalty event after its slot frees up, or within
    the same event when the penalty is None. A provider that dies or is cut
    off, before or during its transfer, costs one retry: back off, then
    re-fetch from a replica that can reach the replacement. ``then`` runs
    when every entry has landed; ``noun`` names an entry in spans and
    errors. The window is the record its flows and events call; it points
    at the run, never the other way.
    """

    __slots__ = ("run", "queue", "left", "noun", "then")

    def __init__(self, run: RecoveryRun, chosen: Sequence[Tuple[int, PlacedShard, Optional[float]]],
                 window: int, noun: str, then: Callable[[], None]) -> None:
        self.run, self.queue, self.left = run, iter(chosen), len(chosen)
        self.noun, self.then = noun, then
        if not chosen:
            then()
        for _ in range(min(window, len(chosen))):
            self.next()

    def next(self) -> None:
        entry = next(self.queue, None)
        if entry is None:
            return
        index, placed, penalty = entry
        if penalty is None:
            self.start(index, placed)
        else:
            self.run.sim.schedule(penalty, self.start, index, placed)

    def start(self, index: int, placed: PlacedShard) -> None:
        run = self.run
        if not run.live():
            return
        if not run.ctx.network.reachable(placed.node.host, run.replacement.host):
            # The chosen provider died (or was cut off) before this fetch
            # started, e.g. during the detection window.
            self.retry(index)
            return
        run.involved.add(placed.node.name)
        landed = partial(self.landed, index)
        run.transfer(
            run.root_span, f"fetch {self.noun} {index} from {placed.node.name}", placed.node,
            run.replacement, placed.replica.size_bytes, landed, landed,
            shard=index, provider=placed.node.name, attempt=run.retries.get(index, 0),
        )

    def landed(self, index: int, span, flow) -> None:
        """A fetch's flow ended: count it and start the next, or retry."""
        run = self.run
        if flow.aborted:
            span.finish(aborted=True)
            if run.live():
                self.retry(index)
            return
        if run.handle.done:
            return
        span.finish()
        run.moved += flow.size
        self.left -= 1
        if self.left == 0:
            self.then()
        else:
            self.next()

    def retry(self, index: int) -> None:
        run = self.run
        delay = run.backoff(
            index, f"shard {index}",
            f"{self.noun} {index} could not be fetched after {run.policy.max_retries} "
            f"retries (providers kept dying or stayed unreachable)",
            shard=index,
        )
        if delay is not None:
            run.sim.schedule(delay, self.reassign, index)

    def reassign(self, index: int) -> None:
        if self.run.handle.done:
            return
        usable = self.run.usable(index, self.run.replacement)
        if usable:
            self.start(index, usable[0])
        elif usable is not None:
            self.retry(index)


def run_handles(sim: Simulator, handles: List[RecoveryHandle]) -> List[RecoveryResult]:
    """Drive the simulator until every handle resolves; return results."""
    sim.run_until_idle()
    unresolved = [h for h in handles if not h.done]
    if unresolved:
        names = [h.state_name for h in unresolved]
        raise RecoveryError(f"recoveries never completed: {names}")
    return [h.result for h in handles]
