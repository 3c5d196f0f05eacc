"""The SR3 state-save pipeline.

Periodically each node's state is divided into ``m`` shards, each shard is
replicated ``n`` times, and the replicas are written to peer nodes chosen
by the placement strategy (Sec. 3.3 Layer 2). The paper's Fig. 8c writes
replicas to the leaf set *serially* "to enable a fair comparison with the
checkpointing recovery", and so does this pipeline.

The save cost = partition CPU + (replicate + transfer + per-replica write
overhead) over the network, all executed as simulation events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.dht.node import DhtNode
from repro.errors import SaveAbortedError, StateError
from repro.obs.tracer import NULL_SPAN
from repro.recovery.model import Pending, RecoveryContext
from repro.state.partitioner import replicate
from repro.state.placement import PlacementPlan
from repro.state.shard import Shard


@dataclass
class SaveResult:
    """Outcome of one completed save round."""

    state_name: str
    state_bytes: float
    started_at: float
    finished_at: float
    replicas_written: int
    bytes_transferred: float
    plan: PlacementPlan
    # "full" for a base rewrite, "delta" for an incremental round.
    mode: str = "full"
    # Bytes shipped as delta payload this round (0 for full saves).
    delta_bytes: float = 0.0
    # Chain length after this round landed (1 for a fresh base).
    chain_len: int = 1

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at


class SaveHandle(Pending):
    """A save round in flight; resolves to :class:`SaveResult`."""

    unfinished = "save of {state_name!r} has not finished"
    twice = "save handle for {state_name!r} resolved twice"
    # In the class's own dict, so a harness can wrap it for this kind alone.
    on_done = Pending.on_done


def sr3_save(
    ctx: RecoveryContext,
    owner: DhtNode,
    shards: Sequence[Shard],
    num_replicas: int,
    placement,
    mode: str = "full",
    chain_len: int = 1,
) -> SaveHandle:
    """Start one save round; returns a handle resolving when all writes land.

    ``placement`` is a strategy object (``LeafSetPlacement`` or
    ``HashPlacement``). The pipeline:

    1. partition CPU on the owner (``state_bytes / partition_rate``),
    2. per replica: one network flow of the shard's bytes plus a fixed
       per-replica write overhead, one after the other,
    3. each arrival installs the replica into the target's shard store.

    ``mode`` is ``"full"`` for a base round or ``"delta"`` for an
    incremental round (shards are then :class:`DeltaShard` objects and
    ``state_bytes`` is only the changed-key payload); ``chain_len`` is the
    resulting chain length, carried through to the span and result so the
    profiler can attribute save amplification.
    """
    if not shards:
        raise StateError("cannot save zero shards")
    if mode not in ("full", "delta"):
        raise StateError(f"unknown save mode {mode!r}; expected 'full' or 'delta'")
    cost = ctx.cost_model
    sim = ctx.sim
    state_name = shards[0].state_name
    state_bytes = float(sum(s.size_bytes for s in shards))
    replicas = replicate(list(shards), num_replicas)
    plan = placement.place(owner, replicas, ctx.overlay)
    started_at = sim.now
    tracer = sim.tracer
    delta_bytes = state_bytes if mode == "delta" else 0.0
    root_span = tracer.start(
        "recovery/save",
        category="recovery",
        state=state_name,
        owner=owner.name,
        bytes=state_bytes,
        num_replicas=num_replicas,
        serial=True,
        mode=mode,
        delta_bytes=delta_bytes,
        chain_len=chain_len,
    )

    partition_time = cost.partition_time(state_bytes)
    tracer.record(
        "partition",
        started_at,
        started_at + partition_time,
        category="recovery.partition",
        parent=root_span,
        bytes=state_bytes,
        node=owner.name,
    )
    ctx.charge_cpu(owner, started_at, partition_time, cost.merge_cpu_fraction)
    ctx.charge_memory(owner, started_at, partition_time, state_bytes * 0.5)
    result = SaveResult(
        state_name, state_bytes, started_at, finished_at=started_at, replicas_written=0,
        bytes_transferred=0.0, plan=plan, mode=mode, delta_bytes=delta_bytes, chain_len=chain_len,
    )
    round_ = SaveRound(ctx, owner, SaveHandle(state_name), root_span, result)
    sim.schedule(partition_time, round_.write)
    return round_.handle


class SaveRound:
    """One save round in flight: the record its flows and events call.

    Replicas are written one after the other: ``index`` is the one on the
    wire and ``span`` its write span. ``result`` fills in as writes land
    and resolves the handle after the last ack. The round points at what it
    writes and at nothing that points back, and stores no bound method of
    its own, so reference counting frees it once its last event has run.
    """

    __slots__ = ("ctx", "owner", "handle", "root_span", "result", "span", "index")

    def __init__(self, ctx: RecoveryContext, owner: DhtNode, handle: SaveHandle,
                 root_span, result: SaveResult) -> None:
        self.ctx, self.owner, self.handle = ctx, owner, handle
        self.root_span, self.result = root_span, result
        self.span = NULL_SPAN
        self.index = 0

    def write(self) -> None:
        """Write replica ``index``; its ack starts the next one."""
        placements = self.result.plan.placements
        if self.index == len(placements):
            self.finish()
            return
        placed = placements[self.index]
        replica, target = placed.replica, placed.node
        if self.ctx.sim.tracer.enabled:  # the null tracer costs no span name or attrs
            self.span = self.root_span.child(
                f"write {replica.key} to {target.name}", category="recovery.write",
                bytes=float(replica.size_bytes), target=target.name,
            )
        if not (self.owner.host.alive and target.host.alive):
            self.fail()
            return
        landed = self.landed
        self.ctx.network.transfer(
            self.owner.host, target.host, replica.size_bytes, landed, landed, parent_span=self.span
        )

    def landed(self, flow) -> None:
        """The write's flow ended: install the replica and ack it, or fail."""
        if flow.aborted:
            self.fail()
            return
        ctx, cost, result = self.ctx, self.ctx.cost_model, self.result
        placed = result.plan.placements[self.index]
        placed.node.store_shard(placed.replica.key, placed.replica)
        result.replicas_written += 1
        result.bytes_transferred += placed.replica.size_bytes
        ctx.charge_cpu(
            placed.node, ctx.sim.now, cost.replica_write_overhead, cost.transfer_cpu_fraction
        )
        ctx.sim.schedule(cost.replica_write_overhead, self.ack)

    def ack(self) -> None:
        self.span.finish()
        self.index += 1
        self.write()

    def finish(self) -> None:
        sim, result = self.ctx.sim, self.result
        self.root_span.finish(bytes=result.bytes_transferred, replicas=result.replicas_written)
        sim.metrics.counter("save.completed").add(1)
        sim.metrics.histogram("save.duration").observe(sim.now - result.started_at)
        result.finished_at = sim.now
        self.handle._resolve(result)

    def fail(self) -> None:
        """A write's endpoint died or was cut off, before its flow or during it."""
        placed = self.result.plan.placements[self.index]
        error = SaveAbortedError(
            f"save of {self.handle.state_name!r}: the write of replica "
            f"{placed.replica.key} from {self.owner.name} to {placed.node.name} was "
            f"lost (an endpoint died or a partition cut them apart); save again"
        )
        self.span.finish(aborted=True)
        self.root_span.finish(error=str(error))
        self.handle._fail(error)
