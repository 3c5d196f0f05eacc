"""The star-structured recovery mechanism (Sec. 3.4).

Non-overlapping providers from the failed node's leaf set upload one
replica of each shard directly to the replacing node, which merges them
into the recovered state. Fast for small state — depth is always one, so
latency only depends on state size and transmission speed (Fig. 9a) — but
for large state the replacing node does all downloading and reconstruction
work, a centralized bottleneck under constrained bandwidth (Fig. 8b).

The *star fan-out bit* ``b`` caps the number of concurrent shard uploads
at ``2**b``; additional shards queue behind the window.
"""

from __future__ import annotations

from typing import Optional

from repro.dht.node import DhtNode
from repro.recovery.model import (
    FetchWindow,
    RecoveryContext,
    RecoveryHandle,
    RecoveryRun,
    RetryPolicy,
)
from repro.state.placement import PlacementPlan


class StarRecovery:
    """Leaf-set parallel fan-in recovery."""

    name = "star"

    def __init__(self, fanout_bits: int = 2, retry_policy: RetryPolicy = RetryPolicy()) -> None:
        if fanout_bits < 0:
            raise ValueError("fanout_bits must be non-negative")
        self.fanout_bits = fanout_bits
        self.retry_policy = retry_policy

    @property
    def window(self) -> int:
        return 1 << self.fanout_bits

    def start(
        self,
        ctx: RecoveryContext,
        plan: PlacementPlan,
        replacement: DhtNode,
        state_name: Optional[str] = None,
    ) -> RecoveryHandle:
        """Begin recovering the state described by ``plan`` onto ``replacement``."""
        run = RecoveryRun(
            ctx,
            self.name,
            plan,
            replacement,
            state_name,
            self.retry_policy,
            fanout_bits=self.fanout_bits,
        )
        if run.handle.done:
            return run.handle
        cost = ctx.cost_model
        run.root_span.annotate(window=self.window)
        # One provider per shard, spread across distinct nodes; a shard whose
        # primary replica was lost pays a DHT lookup to locate an alternate
        # (Fig. 10) before its fetch starts.
        chosen = [
            (index, run.spread(providers), run.lookup_penalty(index))
            for index, providers in run.providers.items()
        ]

        def merge() -> None:
            # The centralized reconstruction: the replacing node "needs to
            # do all the downloading and reconstructing work" (Sec. 3.5's
            # critique of star). The full hash-table rebuild runs on its
            # CPU only after the last shard lands. Per-shard merge setup
            # applies to the base shards only: delta segments are replayed,
            # and their per-round setup is ``replay_time``'s link term.
            run.rebuild(
                merge=cost.merge_time(run.base_bytes)
                + cost.shard_setup * (len(chosen) // run.chain_len),
                install=cost.install_time(run.base_bytes),
                buffer_bytes=run.total_bytes * cost.buffer_memory_factor,
                detail={"fanout_bits": float(self.fanout_bits)},
            )

        run.detect(
            cost.detection_delay,
            lambda: FetchWindow(run, chosen, self.window, "shard", merge),
        )
        return run.handle
