"""DStream-based lineage recovery (Spark Streaming).

"When nodes fail ... DStream re-runs the lost tasks in parallel on other
reliable nodes in the cluster using the lineage graph. However, the entire
recovery processing is linear ... the lost tasks need to be executed
strictly in line with the original lineage graph. As such, it may not work
well for multiple failures" (Sec. 2.2).

Model: the lost state is the output of a lineage of ``lineage_depth``
deterministic stages. Recovery re-executes every stage in order; within a
stage, ``parallelism`` workers recompute partitions concurrently, so
recovery time grows with the lineage depth.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dht.node import DhtNode
from repro.errors import RecoveryError
from repro.recovery.model import RecoveryContext, RecoveryHandle, RecoverySession
from repro.util.sizes import MB


@dataclass(frozen=True)
class LineageConfig:
    """Constants of the lineage re-execution model."""

    # Stages in the lineage graph between the last checkpoint/source and
    # the lost state ("slow when the lineage graph is long").
    lineage_depth: int = 8
    # Workers recomputing partitions of one stage concurrently.
    parallelism: int = 4
    # Recompute throughput per worker (bytes of stage output per second).
    recompute_rate: float = 20.0 * MB
    # Scheduling/dispatch overhead per stage.
    stage_overhead: float = 0.25

    def __post_init__(self) -> None:
        if self.lineage_depth < 1:
            raise ValueError("lineage_depth must be at least 1")
        if self.parallelism < 1:
            raise ValueError("parallelism must be at least 1")
        if self.recompute_rate <= 0:
            raise ValueError("recompute_rate must be positive")


class LineageBaseline:
    """Serial lineage re-execution recovery."""

    name = "lineage"

    def __init__(self, ctx: RecoveryContext, config: LineageConfig = LineageConfig()) -> None:
        self.ctx = ctx
        self.config = config

    def recover(self, workers: DhtNode, state_bytes: float) -> RecoveryHandle:
        """Re-run the lineage for the lost state on ``workers``' cluster."""
        if state_bytes < 0:
            raise RecoveryError("state size must be non-negative")
        sim = self.ctx.sim
        cfg = self.config
        state_name = "lineage-state"
        per_stage = cfg.stage_overhead + state_bytes / (cfg.recompute_rate * cfg.parallelism)
        tracer = sim.tracer
        session = RecoverySession(
            sim,
            self.name,
            state_name,
            workers,
            "baseline/lineage-recover",
            state=state_name,
            lineage_depth=cfg.lineage_depth,
            bytes=state_bytes,
        )

        def run_stage(stage: int) -> None:
            if stage >= cfg.lineage_depth:
                session.moved = state_bytes * cfg.lineage_depth
                session.finish(
                    state_bytes,
                    cfg.parallelism,
                    1,
                    {"lineage_depth": float(cfg.lineage_depth)},
                )
                return
            tracer.record(
                f"lineage stage {stage}",
                sim.now,
                sim.now + per_stage,
                category="recovery.replay",
                parent=session.root_span,
                stage=stage,
            )
            self.ctx.charge_cpu(
                workers, sim.now, per_stage, self.ctx.cost_model.merge_cpu_fraction
            )
            sim.schedule(per_stage, run_stage, stage + 1)

        sim.schedule(self.ctx.cost_model.detection_delay, run_stage, 0)
        return session.handle
