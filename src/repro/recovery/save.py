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
from repro.errors import StateError
from repro.obs.tracer import NULL_SPAN
from repro.recovery.model import Pending, RecoveryContext
from repro.state.partitioner import replicate
from repro.state.placement import PlacementPlan
from repro.state.shard import Shard, ShardReplica


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
    handle = SaveHandle(state_name)
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

    pending = list(plan.placements)
    progress = {"written": 0, "bytes": 0.0}

    def finish() -> None:
        if handle.done:
            return
        root_span.finish(bytes=progress["bytes"], replicas=progress["written"])
        sim.metrics.counter("save.completed").add(1)
        sim.metrics.histogram("save.duration").observe(sim.now - started_at)
        handle._resolve(
            SaveResult(
                state_name=state_name,
                state_bytes=state_bytes,
                started_at=started_at,
                finished_at=sim.now,
                replicas_written=progress["written"],
                bytes_transferred=progress["bytes"],
                plan=plan,
                mode=mode,
                delta_bytes=delta_bytes,
                chain_len=chain_len,
            )
        )

    def write(index: int) -> None:
        """Write replica ``index``; its ack starts the next one."""
        if index >= len(pending):
            finish()
            return
        placed = pending[index]
        replica: ShardReplica = placed.replica
        target = placed.node
        write_span = NULL_SPAN
        if tracer.enabled:  # the null tracer costs no span name or attrs
            write_span = root_span.child(
                f"write {replica.key} to {target.name}",
                category="recovery.write",
                bytes=float(replica.size_bytes),
                target=target.name,
            )

        def arrived(_flow) -> None:
            target.store_shard(replica.key, replica)
            progress["written"] += 1
            progress["bytes"] += replica.size_bytes
            ctx.charge_cpu(
                target, sim.now, cost.replica_write_overhead, cost.transfer_cpu_fraction
            )
            sim.schedule(cost.replica_write_overhead, ack)

        def ack() -> None:
            write_span.finish()
            write(index + 1)

        ctx.network.transfer(
            owner.host,
            target.host,
            replica.size_bytes,
            on_complete=arrived,
            parent_span=write_span,
        )

    sim.schedule(partition_time, write, 0)
    return handle
