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
from functools import partial
from typing import List, Optional

from repro.dht.node import DhtNode
from repro.errors import InsufficientShardsError
from repro.recovery.model import RecoveryContext, RecoveryHandle, RecoveryRun
from repro.state.placement import PlacedShard, PlacementPlan


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
        run.root_span.annotate(window=1 << self.fanout_bits)
        run.detect(ctx.cost_model.detection_delay, SpeculationRace(run, self.config).launch)
        return run.handle


class SpeculationRace:
    """One speculative recovery in flight, the record its flows and events
    call: it points at the run, which never stores it (see :class:`LineRun`)."""

    __slots__ = ("run", "config", "arrived_shards", "flows", "next_attempt", "in_flight",
                 "speculations")

    def __init__(self, run: RecoveryRun, config: SpeculationConfig) -> None:
        self.run, self.config = run, config
        self.arrived_shards = set()  # shard indices already landed
        self.flows = {}  # index -> live (flow, span) pairs
        self.next_attempt = {}  # index -> next untried replica position
        self.in_flight = {}  # index -> live fetch count
        self.speculations = 0

    def launch(self) -> None:
        for index in self.run.providers:
            self.fetch(index, 0)

    def every_replica_failed(self, index: int) -> None:
        self.run.fail(InsufficientShardsError(
            f"{self.run.name}: every replica of shard {index} failed "
            f"or became unreachable during recovery"
        ))

    def spawn_next(self, index: int) -> bool:
        """Start a fetch from the next untried replica, if one is left.

        The watchdog and the abort path share the ``next_attempt``
        counter so a straggler timeout racing a provider crash never
        launches two fetches against the same replica.
        """
        nxt = self.next_attempt.get(index, 0)
        if nxt >= len(self.run.providers[index]):
            return False
        self.fetch(index, nxt)
        return True

    def fetch(self, index: int, attempt: int) -> None:
        run = self.run
        if not run.live():
            return
        pool = run.providers[index]
        replacement = run.replacement
        # Providers may have died since the pool was snapshot (e.g. a
        # rack failure killing the owner and replica holders together);
        # skip ahead to the first replica that can still serve.
        while attempt < len(pool) and not run.ctx.network.reachable(
            pool[attempt].node.host, replacement.host
        ):
            attempt += 1
        if attempt >= len(pool):
            # No replica left to try; fail unless copies are in flight.
            if index not in self.arrived_shards and self.in_flight.get(index, 0) == 0:
                self.every_replica_failed(index)
            return
        self.next_attempt[index] = attempt + 1
        self.in_flight[index] = self.in_flight.get(index, 0) + 1
        placed = pool[attempt]
        run.involved.add(placed.node.name)
        size = placed.replica.size_bytes
        self.flows.setdefault(index, []).append(
            run.transfer(
                run.root_span,
                f"fetch shard {index} from {placed.node.name}"
                + (" (speculative)" if attempt else ""),
                placed.node, replacement, size,
                partial(self.arrived, index, size), partial(self.aborted, index),
                shard=index, provider=placed.node.name, attempt=attempt,
            )
        )
        run.sim.schedule(self.config.deadline(size), self.watchdog, index, pool)

    def arrived(self, index: int, size: float, span, flow) -> None:
        run = self.run
        self.in_flight[index] -= 1
        if run.handle.done or index in self.arrived_shards:
            span.finish(lost_race=True)
            return  # a racing copy won; ignore
        span.finish()
        self.arrived_shards.add(index)
        run.moved += size
        for other, other_span in self.flows.get(index, []):
            if other is not flow and not other.done:
                run.ctx.network.abort_flow(other)
                other_span.finish(lost_race=True)
        if len(self.arrived_shards) == len(run.providers):
            self.merge()

    def aborted(self, index: int, span, _flow) -> None:
        self.in_flight[index] -= 1
        if self.run.handle.done or index in self.arrived_shards:
            return  # cancelled loser of a won race; nothing to do
        span.finish(aborted=True)
        # The provider died (or a partition cut it off): treat it
        # exactly like a straggler and promote the next replica.
        if not self.run.live() or self.spawn_next(index):
            return
        if self.in_flight.get(index, 0) == 0:
            self.every_replica_failed(index)

    def watchdog(self, index: int, pool: List[PlacedShard]) -> None:
        run = self.run
        if run.handle.done or index in self.arrived_shards:
            return
        if self.next_attempt.get(index, 0) < len(pool):
            self.speculations += 1
            run.sim.tracer.instant(
                f"speculate shard {index}", category="recovery.speculation",
                shard=index, attempt=self.next_attempt.get(index, 0),
            )
            run.sim.metrics.counter("recovery.speculations").add(1)
            self.spawn_next(index)

    def merge(self) -> None:
        # Merge, replay and install as in plain star; the one difference
        # is that no buffer memory is charged to the replacement.
        run, cost = self.run, self.run.ctx.cost_model
        run.rebuild(
            merge=cost.merge_time(run.base_bytes)
            + cost.shard_setup * (len(run.providers) // run.chain_len),
            install=cost.install_time(run.base_bytes),
            buffer_bytes=0.0,
            detail={"speculations": float(self.speculations)},
            speculations=self.speculations,
        )
