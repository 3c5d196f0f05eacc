"""Checkpointing recovery: the paper's primary comparison baseline.

"All nodes periodically checkpoint their states to remote storage such as
HDFS or GFS ... When a primary node fails, a standby node retrieves the
latest checkpoint from the persistent storage, and its upstream node
essentially replays the backup records serially to this failover node to
recreate the lost state" (Sec. 2.2). Used by TimeStream, Storm, Trident,
Drizzle, Flink.

Costs modelled:
- save: coordination (ZooKeeper round), then the full state streamed to
  remote storage in chunks, each chunk paying the storage's per-request
  overhead (the 1-5k req/s KV-store limit of Sec. 2.1);
- recovery: failure detection, standby allocation, checkpoint fetch from
  storage, then serial replay of the buffered records (``replay_factor``
  bytes of raw records per byte of state) through the upstream node's
  uplink while the standby re-applies them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dht.node import DhtNode
from repro.errors import RecoveryError
from repro.recovery.model import (
    RecoveryContext,
    RecoveryHandle,
    RecoverySession,
    replacement_died,
)
from repro.recovery.save import SaveHandle, SaveResult
from repro.sim.network import RemoteStorage
from repro.state.placement import PlacementPlan
from repro.util.sizes import MB


@dataclass(frozen=True)
class CheckpointConfig:
    """Calibrated constants of the checkpointing baseline."""

    # Per-client streaming rate of the remote store (bytes/second).
    storage_rate: float = 6.0 * MB
    # Chunked I/O: each chunk pays the storage's request overhead.
    chunk_bytes: float = 4.0 * MB
    # Coordination with the cluster coordinator (standby allocation,
    # ZooKeeper session work) before data moves.
    save_coordination: float = 2.0
    recover_coordination: float = 5.0
    # Raw buffered records replayed per byte of reconstructed state.
    replay_factor: float = 3.0
    # CPU rate at which the standby re-applies replayed records.
    replay_rate: float = 40.0 * MB
    # Memory held by the coordinator (ZooKeeper-style) session on every
    # participating node for the whole recovery window (Fig. 12b):
    # "checkpointing recovery involves a coordination service such as
    # Zookeeper that needs to continuously maintain connections with all
    # other nodes while SR3 avoids it" (Sec. 5.4).
    coordination_memory: float = 400.0 * MB
    # Extra CPU the coordination session burns on every node (Fig. 12a).
    coordination_cpu: float = 0.12

    def __post_init__(self) -> None:
        if self.storage_rate <= 0 or self.replay_rate <= 0:
            raise ValueError("rates must be positive")
        if self.chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive")
        if self.replay_factor < 0:
            raise ValueError("replay_factor must be non-negative")


class CheckpointingBaseline:
    """Checkpoint-to-remote-storage save and recovery."""

    name = "checkpointing"

    def __init__(self, ctx: RecoveryContext, storage: RemoteStorage, config: CheckpointConfig = CheckpointConfig()) -> None:
        self.ctx = ctx
        self.storage = storage
        self.config = config

    def _chunk_overhead(self, state_bytes: float) -> float:
        chunks = max(1, int(-(-state_bytes // self.config.chunk_bytes)))
        return sum(self.storage.charge_request() for _ in range(chunks))

    # ------------------------------------------------------------------- save

    def save(self, owner: DhtNode, state_bytes: float) -> SaveHandle:
        """Checkpoint ``state_bytes`` of state from ``owner`` to storage."""
        if state_bytes < 0:
            raise RecoveryError("state size must be non-negative")
        sim = self.ctx.sim
        cfg = self.config
        handle = SaveHandle(f"checkpoint/{owner.name}")
        started_at = sim.now
        overhead = self._chunk_overhead(state_bytes)
        stream_time = state_bytes / min(cfg.storage_rate, owner.host.up_bw)
        duration = cfg.save_coordination + overhead + stream_time
        save_span = sim.tracer.start(
            "baseline/checkpoint-save",
            category="baseline",
            owner=owner.name,
            bytes=state_bytes,
        )
        self.ctx.charge_cpu(owner, started_at, duration, self.ctx.cost_model.transfer_cpu_fraction)
        self.ctx.charge_memory(owner, started_at, duration, state_bytes)
        self.storage.bytes_received += state_bytes

        def finish() -> None:
            save_span.finish()
            handle._resolve(
                SaveResult(
                    state_name=handle.state_name,
                    state_bytes=state_bytes,
                    started_at=started_at,
                    finished_at=sim.now,
                    replicas_written=1,
                    bytes_transferred=state_bytes,
                    plan=PlacementPlan(owner=owner),
                )
            )

        sim.schedule(duration, finish)
        return handle

    # --------------------------------------------------------------- recovery

    def recover(
        self,
        upstream: DhtNode,
        replacement: DhtNode,
        state_bytes: float,
        state_name: str = "checkpointed-state",
    ) -> RecoveryHandle:
        """Recover ``state_bytes`` onto ``replacement``.

        Pipeline: detection -> standby coordination -> checkpoint fetch
        from storage (chunked flow) -> serial replay of buffered records
        from ``upstream`` racing with replay CPU on the replacement. A
        replacement or upstream that is dead when the replay starts, or a
        replay flow that aborts, fails the handle with a ``RecoveryError``.
        """
        sim = self.ctx.sim
        cfg = self.config
        cost = self.ctx.cost_model
        session = RecoverySession(
            sim,
            self.name,
            state_name,
            replacement,
            "baseline/checkpoint-recover",
            state=state_name,
            replacement=replacement.name,
            bytes=state_bytes,
        )
        root_span = session.root_span
        tracer = sim.tracer

        def start_fetch() -> None:
            overhead = self._chunk_overhead(state_bytes)
            fetch_rate = min(cfg.storage_rate, replacement.host.down_bw)
            fetch_time = overhead + state_bytes / fetch_rate
            tracer.record(
                "fetch checkpoint",
                sim.now,
                sim.now + fetch_time,
                category="recovery.transfer",
                parent=root_span,
                bytes=state_bytes,
                node=replacement.name,
            )
            self.ctx.charge_cpu(
                replacement, sim.now, fetch_time, cost.transfer_cpu_fraction
            )
            self.ctx.charge_memory(replacement, sim.now, fetch_time, state_bytes)
            session.moved += state_bytes
            sim.schedule(fetch_time, start_replay)

        def fail() -> None:
            error = (
                RecoveryError(
                    f"state {state_name!r}: replay from upstream node {upstream.name} "
                    f"was lost during {self.name} recovery"
                )
                if replacement.alive
                else replacement_died(self.name, state_name, replacement)
            )
            session.fail(error, aborted=True)

        def start_replay() -> None:
            replay_bytes = state_bytes * cfg.replay_factor
            if replay_bytes <= 0:
                finish()
                return
            if not (upstream.alive and replacement.alive):
                fail()
                return
            replay_span = root_span.child(
                "replay", category="recovery.replay", bytes=replay_bytes
            )
            replay_cpu = replay_bytes / cfg.replay_rate
            self.ctx.charge_cpu(replacement, sim.now, replay_cpu, cost.merge_cpu_fraction)
            self.ctx.charge_cpu(
                upstream, sim.now, replay_cpu, cost.transfer_cpu_fraction
            )
            self.ctx.charge_memory(
                replacement,
                sim.now,
                replay_cpu,
                state_bytes * cost.buffer_memory_factor,
            )
            session.moved += replay_bytes
            done = {"flow": False, "cpu": False}

            def flow_done(_flow) -> None:
                done["flow"] = True
                if done["cpu"]:
                    replay_span.finish()
                    finish()

            def flow_aborted(_flow) -> None:
                replay_span.finish(aborted=True)
                fail()

            def cpu_done() -> None:
                done["cpu"] = True
                if done["flow"]:
                    replay_span.finish()
                    finish()

            self.ctx.network.transfer(
                upstream.host,
                replacement.host,
                replay_bytes,
                on_complete=flow_done,
                on_abort=flow_aborted,
                parent_span=replay_span,
            )
            sim.schedule(replay_cpu, cpu_done)

        def finish() -> None:
            # Retroactively account the coordinator session held by both
            # participating nodes for the whole recovery window.
            started, window = session.started_at, sim.now - session.started_at
            for node in (upstream, replacement):
                self.ctx.charge_memory(node, started, window, cfg.coordination_memory)
                self.ctx.charge_cpu(node, started, window, cfg.coordination_cpu)
            session.finish(
                state_bytes,
                3,  # storage, upstream, replacement
                1,
                {"replay_factor": cfg.replay_factor},
                bytes=session.moved,
            )

        sim.schedule(cost.detection_delay + cfg.recover_coordination, start_fetch)
        return session.handle


def checkpointing_to_remote_storage(ctx: RecoveryContext) -> CheckpointingBaseline:
    """The baseline on the testbed's remote store (Sec. 5.1): a 400 MB/s
    ``remote-storage`` host, registered on ``ctx.network``."""
    storage = RemoteStorage("remote-storage", up_bw=400 * MB, down_bw=400 * MB)
    ctx.network.hosts[storage.name] = storage
    return CheckpointingBaseline(ctx, storage)
