"""FP4S: the authors' prior fragment-based erasure-coded recovery.

Sec. 2.3 describes FP4S and quantifies the limitations that motivated SR3:
a (26, 16)-style code stores ``n/m`` times the state (62.5% extra for
16+10), and encode/decode computation adds seconds of latency that grow
with state size (about +10 s at 128 MB). This baseline is a closed-form
cost model of that mechanism: fragment sizes and counts come from the
(n, m) parameters, coding time from two calibrated throughputs, and the
fragments move over the simulated network. No payload is coded, which is
all the ablation benchmarks need to reproduce both numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.dht.node import DhtNode
from repro.errors import InsufficientShardsError, RecoveryError
from repro.recovery.model import RecoveryContext, RecoveryHandle, RecoverySession
from repro.recovery.save import SaveHandle, SaveResult
from repro.state.placement import PlacementPlan
from repro.util.sizes import MB


@dataclass(frozen=True)
class Fp4sConfig:
    """FP4S parameters: the (n, m) code plus coding throughputs."""

    num_data: int = 16  # m raw fragments
    num_coded: int = 26  # n coded fragments (62.5% storage increment)
    encode_rate: float = 25.0 * MB  # bytes/s of state encoded
    decode_rate: float = 12.8 * MB  # bytes/s of state decoded (+10 s at 128 MB)

    def __post_init__(self) -> None:
        if self.num_data <= 0:
            raise ValueError("num_data must be positive")
        if self.num_coded < self.num_data:
            raise ValueError("num_coded must be >= num_data")
        if self.encode_rate <= 0 or self.decode_rate <= 0:
            raise ValueError("coding rates must be positive")

    @property
    def storage_overhead(self) -> float:
        return self.num_coded / self.num_data - 1.0


class Fp4sBaseline:
    """Erasure-coded save and parallel fragment recovery."""

    name = "fp4s"

    def __init__(self, ctx: RecoveryContext, config: Fp4sConfig = Fp4sConfig()) -> None:
        self.ctx = ctx
        self.config = config

    def save(self, owner: DhtNode, targets: List[DhtNode], state_bytes: float) -> SaveHandle:
        """Encode and scatter ``n`` coded fragments to ``targets``.

        Total bytes written = ``state_bytes * n / m`` — the storage
        increment Sec. 2.3 criticizes.
        """
        cfg = self.config
        if len(targets) < cfg.num_coded:
            raise RecoveryError(
                f"need {cfg.num_coded} target nodes, got {len(targets)}"
            )
        sim = self.ctx.sim
        handle = SaveHandle(f"fp4s/{owner.name}")
        started_at = sim.now
        fragment_bytes = state_bytes / cfg.num_data
        encode_time = state_bytes / cfg.encode_rate
        self.ctx.charge_cpu(owner, started_at, encode_time, self.ctx.cost_model.merge_cpu_fraction)
        self.ctx.charge_memory(
            owner, started_at, encode_time, state_bytes * (1 + cfg.storage_overhead)
        )
        remaining = {"count": cfg.num_coded, "bytes": 0.0}

        def after_encode() -> None:
            for target in targets[: cfg.num_coded]:
                self.ctx.network.transfer(
                    owner.host, target.host, fragment_bytes, on_complete=one_written
                )

        def one_written(flow) -> None:
            remaining["count"] -= 1
            remaining["bytes"] += flow.size
            if remaining["count"] == 0:
                handle._resolve(
                    SaveResult(
                        state_name=handle.state_name,
                        state_bytes=state_bytes,
                        started_at=started_at,
                        finished_at=sim.now,
                        replicas_written=cfg.num_coded,
                        bytes_transferred=remaining["bytes"],
                        plan=PlacementPlan(owner=owner),
                    )
                )

        sim.schedule(encode_time, after_encode)
        return handle

    def recover(
        self,
        providers: List[DhtNode],
        replacement: DhtNode,
        state_bytes: float,
    ) -> RecoveryHandle:
        """Fetch any ``m`` fragments in parallel, then decode and install."""
        state_name = "fp4s-state"
        cfg = self.config
        cost = self.ctx.cost_model
        alive = [n for n in providers if n.alive]
        if len(alive) < cfg.num_data:
            raise InsufficientShardsError(
                f"only {len(alive)} fragment providers survive; need {cfg.num_data}"
            )
        sim = self.ctx.sim
        session = RecoverySession(
            sim,
            self.name,
            state_name,
            replacement,
            "baseline/fp4s-recover",
            state=state_name,
            replacement=replacement.name,
            bytes=state_bytes,
        )
        fragment_bytes = state_bytes / cfg.num_data
        remaining = {"count": cfg.num_data}
        root_span = session.root_span
        tracer = sim.tracer

        def launch() -> None:
            for provider in alive[: cfg.num_data]:
                fetch_span = root_span.child(
                    f"fetch fragment from {provider.name}",
                    category="recovery.transfer",
                    bytes=fragment_bytes,
                    provider=provider.name,
                )
                self.ctx.network.transfer(
                    provider.host,
                    replacement.host,
                    fragment_bytes,
                    on_complete=lambda flow, s=fetch_span: one_fetched(flow, s),
                    parent_span=fetch_span,
                )

        def one_fetched(flow, fetch_span) -> None:
            fetch_span.finish()
            remaining["count"] -= 1
            session.moved += flow.size
            if remaining["count"] == 0:
                # Reconstruction = the usual hash-table merge PLUS the
                # erasure-decode computation — the "extra overhead in the
                # erasure code computation, which takes an additional 10s
                # in recovering 128MB state" (Sec. 2.3).
                decode_time = state_bytes / cfg.decode_rate
                rebuild_time = cost.merge_time(state_bytes) + decode_time
                tracer.record(
                    "decode+merge",
                    sim.now,
                    sim.now + rebuild_time,
                    category="recovery.merge",
                    parent=root_span,
                    bytes=state_bytes,
                    node=replacement.name,
                )
                self.ctx.charge_cpu(
                    replacement, sim.now, rebuild_time, cost.merge_cpu_fraction
                )
                self.ctx.charge_memory(
                    replacement,
                    sim.now,
                    rebuild_time,
                    state_bytes * (1 + cfg.storage_overhead),
                )
                sim.schedule(rebuild_time + cost.install_time(state_bytes), finish)

        def finish() -> None:
            session.finish(
                state_bytes,
                cfg.num_data + 1,
                cfg.num_data,
                {"storage_overhead": cfg.storage_overhead},
                bytes=session.moved,
            )

        sim.schedule(cost.detection_delay, launch)
        return session.handle
