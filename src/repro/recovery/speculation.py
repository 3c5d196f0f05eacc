"""Speculative straggler mitigation (the paper's future work, Sec. 6).

"Stragglers are slow nodes ... We plan to explore speculation approach to
address this challenge, in which speculative backup copies of slow tasks
could be run in DHT's leaf set nodes."

:class:`SpeculativeStarRecovery` extends star-structured recovery with
per-shard watchdogs: when a provider has not delivered its shard within
``straggler_factor`` times the expected transfer time, a backup fetch of
the same shard starts from an alternate replica holder. Whichever copy
arrives first wins; the loser's flow is aborted. A straggling provider
therefore delays recovery by at most the watchdog margin instead of its
full (possibly unbounded) slowdown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.dht.node import DhtNode
from repro.errors import InsufficientShardsError
from repro.recovery.model import RecoveryContext, RecoveryHandle, RecoveryRun
from repro.state.placement import PlacementPlan


@dataclass(frozen=True)
class SpeculationConfig:
    """Watchdog parameters.

    ``straggler_factor`` scales the expected shard transfer time into the
    watchdog deadline; ``min_wait`` bounds it from below so tiny shards do
    not speculate on scheduling noise; ``reference_bandwidth`` is the
    healthy-provider throughput used to compute the expectation.
    """

    straggler_factor: float = 2.5
    min_wait: float = 0.5
    reference_bandwidth: float = 12.5e6

    def __post_init__(self) -> None:
        if self.straggler_factor <= 1.0:
            raise ValueError("straggler_factor must exceed 1.0")
        if self.min_wait < 0:
            raise ValueError("min_wait must be non-negative")
        if self.reference_bandwidth <= 0:
            raise ValueError("reference_bandwidth must be positive")

    def deadline(self, shard_bytes: float) -> float:
        expected = shard_bytes / self.reference_bandwidth
        return max(self.min_wait, expected * self.straggler_factor)


class SpeculativeStarRecovery:
    """Star recovery with speculative backup fetches for slow providers."""

    name = "star+speculation"

    def __init__(self, fanout_bits: int = 2) -> None:
        if fanout_bits < 0:
            raise ValueError("fanout_bits must be non-negative")
        self.fanout_bits = fanout_bits
        self.config = SpeculationConfig()

    def start(
        self,
        ctx: RecoveryContext,
        plan: PlacementPlan,
        replacement: DhtNode,
        state_name: Optional[str] = None,
    ) -> RecoveryHandle:
        run = RecoveryRun(
            ctx,
            self.name,
            plan,
            replacement,
            state_name,
            fanout_bits=self.fanout_bits,
        )
        if run.handle.done:
            return run.handle
        sim = ctx.sim
        cost = ctx.cost_model
        run.root_span.annotate(window=1 << self.fanout_bits)
        arrived_shards = set()  # shard indices already landed
        flows = {}  # index -> live (flow, span) pairs
        next_attempt = {}  # index -> next untried replica position
        in_flight = {}  # index -> live fetch count
        speculations = {"count": 0}

        def every_replica_failed(index: int) -> None:
            run.fail(
                InsufficientShardsError(
                    f"{run.name}: every replica of shard {index} failed "
                    f"or became unreachable during recovery"
                )
            )

        def spawn_next(index: int) -> bool:
            """Start a fetch from the next untried replica, if one is left.

            The watchdog and the abort path share the ``next_attempt``
            counter so a straggler timeout racing a provider crash never
            launches two fetches against the same replica.
            """
            nxt = next_attempt.get(index, 0)
            if nxt >= len(run.providers[index]):
                return False
            fetch(index, nxt)
            return True

        def fetch(index: int, attempt: int) -> None:
            if not run.live():
                return
            pool = run.providers[index]
            # Providers may have died since the pool was snapshot (e.g. a
            # rack failure killing the owner and replica holders together);
            # skip ahead to the first replica that can still serve.
            while attempt < len(pool) and not ctx.network.reachable(
                pool[attempt].node.host, replacement.host
            ):
                attempt += 1
            if attempt >= len(pool):
                # No replica left to try; fail unless copies are in flight.
                if index not in arrived_shards and in_flight.get(index, 0) == 0:
                    every_replica_failed(index)
                return
            next_attempt[index] = attempt + 1
            in_flight[index] = in_flight.get(index, 0) + 1
            placed = pool[attempt]
            run.involved.add(placed.node.name)
            size = placed.replica.size_bytes

            def arrived(span, flow) -> None:
                in_flight[index] -= 1
                if run.handle.done or index in arrived_shards:
                    span.finish(lost_race=True)
                    return  # a racing copy won; ignore
                span.finish()
                arrived_shards.add(index)
                run.moved += size
                for other, other_span in flows.get(index, []):
                    if other is not flow and not other.done:
                        ctx.network.abort_flow(other)
                        other_span.finish(lost_race=True)
                if len(arrived_shards) == len(run.providers):
                    merge()

            def aborted(span, _flow) -> None:
                in_flight[index] -= 1
                if run.handle.done or index in arrived_shards:
                    return  # cancelled loser of a won race; nothing to do
                span.finish(aborted=True)
                # The provider died (or a partition cut it off): treat it
                # exactly like a straggler and promote the next replica.
                if not run.live() or spawn_next(index):
                    return
                if in_flight.get(index, 0) == 0:
                    every_replica_failed(index)

            flows.setdefault(index, []).append(
                run.transfer(
                    run.root_span,
                    f"fetch shard {index} from {placed.node.name}"
                    + (" (speculative)" if attempt else ""),
                    placed.node,
                    replacement,
                    size,
                    arrived,
                    aborted,
                    shard=index,
                    provider=placed.node.name,
                    attempt=attempt,
                )
            )

            def watchdog() -> None:
                if run.handle.done or index in arrived_shards:
                    return
                if next_attempt.get(index, 0) < len(pool):
                    speculations["count"] += 1
                    sim.tracer.instant(
                        f"speculate shard {index}",
                        category="recovery.speculation",
                        shard=index,
                        attempt=next_attempt.get(index, 0),
                    )
                    sim.metrics.counter("recovery.speculations").add(1)
                    spawn_next(index)

            sim.schedule(self.config.deadline(size), watchdog)

        def merge() -> None:
            # Merge, replay and install as in plain star; the one difference
            # is that no buffer memory is charged to the replacement.
            run.rebuild(
                merge=cost.merge_time(run.base_bytes)
                + cost.shard_setup * (len(run.providers) // run.chain_len),
                install=cost.install_time(run.base_bytes),
                buffer_bytes=0.0,
                detail={"speculations": float(speculations["count"])},
                speculations=speculations["count"],
            )

        def launch() -> None:
            for index in run.providers:
                fetch(index, 0)

        run.detect(cost.detection_delay, launch)
        return run.handle
