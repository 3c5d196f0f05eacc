"""Hot-standby recovery: the fourth tier of the spectrum.

Star/line/tree move the state *after* the failure; the hot-standby tier
moves it *before*. A designated standby node keeps a warm image of every
segment (base shards plus the folded delta chain), continuously refreshed
by :func:`sync_standby` after each save round. Takeover is then an
ownership flip plus replay of the delta tail the standby had not folded
yet — no bulk movement on the critical path, so the makespan is dominated
by detection (a dedicated primary↔standby heartbeat, faster than the
DHT-wide detector) rather than transfer.

The price is steady-state cost: the sync traffic shares links with the
application (shuffle bandwidth) and the warm image occupies memory on the
standby for as long as it stands by. Both are surfaced through
``SelectionInputs.standby_refresh_bytes_per_s`` / ``standby_memory_bytes``
so the selection layer can weigh them.

Degradation is graceful: segments the promoted node does not hold locally
(a lagging sync, or the overlay picked a different replacement than the
provisioned standby) are fetched star-style from surviving providers with
the usual retry/backoff machinery, so a "cold" standby recovery is still
correct — just no longer O(flip).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.dht.node import DhtNode
from repro.recovery.model import (
    FetchWindow,
    Pending,
    RecoveryContext,
    RecoveryHandle,
    RecoveryRun,
    RetryPolicy,
)
from repro.state.placement import PlacedShard, PlacementPlan
from repro.state.shard import Shard, ShardReplica

# Tag carried by standby sync flows so network telemetry (and tests) can
# tell steady-state provisioning traffic from recovery and app traffic.
STANDBY_TAG = "standby.sync"


class StandbyReplica(ShardReplica):
    """A warm copy held by the standby, outside the normal replica set."""

    standby = True

    def __init__(self, shard: Shard, num_replicas: int) -> None:
        # Slot index ``num_replicas`` in an (n+1)-wide set: distinct key
        # from every regular replica, so the standby copy coexists with a
        # regular replica of the same segment on the same node.
        super().__init__(shard, num_replicas, num_replicas + 1)


def _holds_warm(plan, index: int, node: DhtNode) -> bool:
    """Does ``node`` hold a live warm copy of segment ``index`` of ``plan``?"""
    if not node.alive:
        return False
    for placed in plan.for_shard(index):
        if (
            getattr(placed.replica, "standby", False)
            and placed.node.node_id == node.node_id
            and node.get_shard(placed.replica.key) is not None
        ):
            return True
    return False


@dataclass
class StandbySyncReport:
    """Outcome of one provisioning round."""

    state_name: str
    standby: str
    warm_segments: int  # already held before this round
    copied_segments: int  # shipped by this round
    missed_segments: int  # no surviving provider (or transfer aborted)
    copied_bytes: float
    warm_bytes: float  # resident warm image after the round


class StandbySync(Pending):
    """A provisioning round in flight; resolves to a :class:`StandbySyncReport`."""

    unfinished = "standby sync of {state_name!r} has not finished"
    twice = "standby sync of {state_name!r} resolved twice"


def sync_standby(ctx: RecoveryContext, registered, standby: DhtNode) -> StandbySync:
    """Warm (or re-warm) ``standby`` with every segment it is missing.

    Idempotent and incremental: segments already resident are skipped, so
    calling after every save round ships only the new delta links. Copies
    ride ordinary network flows tagged :data:`STANDBY_TAG` — they contend
    with application traffic, which is exactly the steady-state bandwidth
    cost the selection layer wants surfaced. Segments with no surviving
    provider are counted as missed, never fatal: the takeover path can
    still fetch them later if a replica resurfaces.
    """
    sim = ctx.sim
    name = registered.state_name
    handle = StandbySync(name)
    span = sim.tracer.start(
        "standby/sync",
        category="standby.sync",
        state=name,
        standby=standby.name,
    )
    warm_segments = 0
    warm_bytes = 0.0
    missed = {"count": 0}
    todo: List[Tuple[PlacementPlan, PlacedShard]] = []
    for link in registered.plan.links:
        plan = link.plan
        for index in plan.shard_indexes():
            if _holds_warm(plan, index, standby):
                warm_segments += 1
                warm_bytes += plan.for_shard(index)[0].replica.size_bytes
                continue
            providers = [
                p
                for p in plan.providers_for(index)
                if p.node.node_id != standby.node_id
                and ctx.network.reachable(p.node.host, standby.host)
            ]
            if not providers:
                missed["count"] += 1
                continue
            todo.append((plan, providers[0]))

    progress = {"pending": len(todo), "copied": 0, "bytes": 0.0}
    started_at = sim.now

    def finish() -> None:
        resident = warm_bytes + progress["bytes"]
        sim.metrics.gauge("standby.warm_bytes").set(resident)
        # The warm image occupies the standby's memory from the moment it
        # lands — charged over the sync round so the resource profiles see
        # the steady-state footprint.
        ctx.charge_memory(
            standby, started_at, max(sim.now - started_at, 1e-9), resident
        )
        span.finish(
            warm=warm_segments,
            copied=progress["copied"],
            missed=missed["count"],
            bytes=progress["bytes"],
        )
        handle._resolve(
            StandbySyncReport(
                state_name=name,
                standby=standby.name,
                warm_segments=warm_segments,
                copied_segments=progress["copied"],
                missed_segments=missed["count"],
                copied_bytes=progress["bytes"],
                warm_bytes=resident,
            )
        )

    if not todo:
        finish()
        return handle

    def landed(plan: PlacementPlan, placed: PlacedShard) -> None:
        if not standby.alive:
            aborted()
            return
        replica = StandbyReplica(placed.replica.shard, placed.replica.num_replicas)
        standby.store_shard(replica.key, replica)
        plan.placements.append(PlacedShard(replica, standby))
        progress["copied"] += 1
        progress["bytes"] += replica.size_bytes
        sim.metrics.counter("standby.sync_bytes").add(replica.size_bytes)
        progress["pending"] -= 1
        if progress["pending"] == 0:
            finish()

    def aborted() -> None:
        missed["count"] += 1
        progress["pending"] -= 1
        if progress["pending"] == 0:
            finish()

    for plan, placed in todo:
        ctx.network.transfer(
            placed.node.host,
            standby.host,
            placed.replica.size_bytes,
            on_complete=lambda flow, p=plan, pl=placed: landed(p, pl),
            on_abort=lambda flow: aborted(),
            tag=STANDBY_TAG,
            parent_span=span,
        )
    return handle


class StandbyRecovery:
    """Ownership-flip takeover onto a warm standby."""

    name = "standby"

    def __init__(
        self,
        fetch_window: int = 4,
        retry_policy: RetryPolicy = RetryPolicy(),
    ) -> None:
        if fetch_window < 1:
            raise ValueError("fetch_window must be positive")
        self.fetch_window = fetch_window
        self.retry_policy = retry_policy

    def start(
        self,
        ctx: RecoveryContext,
        plan: PlacementPlan,
        replacement: DhtNode,
        state_name: Optional[str] = None,
    ) -> RecoveryHandle:
        """Promote ``replacement``: flip ownership, replay the tail.

        Segments already resident on ``replacement`` (its warm image, or a
        regular replica it happens to hold) cost nothing to move; missing
        segments are fetched star-style from surviving providers first.
        """
        run = RecoveryRun(ctx, self.name, plan, replacement, state_name, self.retry_policy)
        if run.handle.done:
            return run.handle
        sim = ctx.sim
        cost = ctx.cost_model
        tracer = sim.tracer
        # Cold segments are the ones not resident on the replacement. Each
        # is fetched star-style from a provider, spread across distinct
        # nodes, and its fetch starts without a lookup-penalty event.
        cold = [
            (index, run.spread(providers), None)
            for index, providers in run.providers.items()
            if not any(p.node.node_id == replacement.node_id for p in providers)
        ]
        warm_segments = len(run.providers) - len(cold)
        run.root_span.annotate(warm_segments=warm_segments, cold_segments=len(cold))

        def takeover() -> None:
            # The flip itself: routing update + store promotion. The warm
            # image is already merged and installed, so the only CPU on
            # the critical path is the unfolded delta tail plus folding
            # whatever cold segments had to be fetched.
            if not run.live():
                return
            flip = cost.standby_flip
            tail_bytes = run.delta_bytes * cost.standby_lag_fraction
            replay = cost.replay_time(tail_bytes, run.chain_len - 1)
            cold_bytes = run.moved
            fold = cost.merge_time(cold_bytes) + cost.install_time(cold_bytes)
            tracer.record(
                "flip ownership",
                sim.now,
                sim.now + flip,
                category="recovery.flip",
                parent=run.root_span,
                node=replacement.name,
            )
            if replay > 0:
                tracer.record(
                    "replay tail",
                    sim.now + flip,
                    sim.now + flip + replay,
                    category="recovery.replay",
                    parent=run.root_span,
                    bytes=tail_bytes,
                    links=run.chain_len - 1,
                    node=replacement.name,
                )
            if fold > 0:
                tracer.record(
                    "fold cold segments",
                    sim.now + flip + replay,
                    sim.now + flip + replay + fold,
                    category="recovery.merge",
                    parent=run.root_span,
                    bytes=cold_bytes,
                    node=replacement.name,
                )
            busy = flip + replay + fold
            ctx.charge_cpu(replacement, sim.now, busy, cost.merge_cpu_fraction)
            ctx.charge_memory(
                replacement,
                sim.now,
                busy,
                (cold_bytes + tail_bytes) * cost.buffer_memory_factor,
            )
            detail = {
                "warm_segments": float(warm_segments),
                "cold_segments": float(len(cold)),
                "flip_s": float(cost.standby_flip),
            }
            sim.schedule(busy, run.complete, detail, {})

        # The dedicated primary↔standby heartbeat notices the failure in a
        # fraction of the DHT-wide detection delay.
        run.detect(
            cost.detection_delay * cost.standby_detection_factor,
            lambda: FetchWindow(run, cold, self.fetch_window, "cold segment", takeover),
        )
        return run.handle
