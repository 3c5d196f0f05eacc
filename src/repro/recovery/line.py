"""The line-structured recovery mechanism (Sec. 3.5).

Shards are transmitted and combined along a chain covering the providing
nodes and the replacing node: each chain node merges its own shard into
the accumulated state and forwards the result downstream (Fig. 4). The
download and compute load is balanced across all chain nodes — no single
node does all the reconstruction — which helps recover large state, at the
price of per-stage latency that grows with the path length (Fig. 9b).

Modeling notes (documented in DESIGN.md): the chain is *pipelined* — a
node forwards merged data while still receiving — so the network wall time
is governed by the tightest link into the replacing node (simulated as one
full-size flow over the final hop), racing against the sequential chain of
per-stage CPU work. Each stage pays a merge of its own portion plus the
"redundant calculations in the state recovery path" (Sec. 5.2): a
recomputation proportional to the accumulated prefix it forwards.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.dht.node import DhtNode
from repro.errors import InsufficientShardsError
from repro.recovery.model import (
    RecoveryContext,
    RecoveryHandle,
    RecoveryRun,
    RetryPolicy,
)
from repro.state.placement import PlacedShard, PlacementPlan


class LineRecovery:
    """Pipelined merge-chain recovery."""

    name = "line"

    def __init__(self, path_length: int = 8, retry_policy: RetryPolicy = RetryPolicy()) -> None:
        if path_length < 1:
            raise ValueError("path_length must be at least 1")
        self.path_length = path_length
        self.retry_policy = retry_policy

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
            self.retry_policy,
            path_length=self.path_length,
        )
        if run.handle.done:
            return run.handle
        sim = ctx.sim
        cost = ctx.cost_model
        root_span = run.root_span
        total_bytes = run.total_bytes
        max_retries = run.policy.max_retries
        # One surviving replica per shard.
        sources: Dict[int, PlacedShard] = {
            index: providers[0] for index, providers in run.providers.items()
        }

        # The chain: distinct provider nodes, at most ``path_length`` of them.
        chain: List[DhtNode] = []
        seen = set()
        for placed in sources.values():
            if placed.node.node_id not in seen:
                chain.append(placed.node)
                seen.add(placed.node.node_id)
            if len(chain) == self.path_length:
                break
        # Nodes in the merge chain, not the plan's version-chain length
        # (which the run records as ``chain_len``).
        root_span.annotate(chain_length=len(chain))
        run.involved.update(node.name for node in chain)

        # Assign each shard to a chain node: its holder when the holder is
        # in the chain, round-robin otherwise (those must prefetch, after
        # the lookup penalty a lost primary replica costs).
        stage_shards: Dict[int, List[PlacedShard]] = {i: [] for i in range(len(chain))}
        chain_index = {node.node_id: i for i, node in enumerate(chain)}
        rr = 0
        prefetches: List[Dict] = []
        for index, placed in sorted(sources.items()):
            holder_pos = chain_index.get(placed.node.node_id)
            if holder_pos is None:
                holder_pos = rr % len(chain)
                rr += 1
                prefetches.append(
                    {
                        # Carry the plan's shard index (a global chain
                        # segment id for a VersionChain) — recomputing it from
                        # the shard object would lose the link offset.
                        "index": index,
                        "placed": placed,
                        "target": chain[holder_pos],
                        "penalty": run.lookup_penalty(index),
                    }
                )
            stage_shards[holder_pos].append(placed)

        progress = {"stream_done": False, "cpu_done": False}

        def alive_chain() -> List[DhtNode]:
            alive = [n for n in chain if n.alive]
            if not alive:
                run.fail(
                    InsufficientShardsError(
                        f"{run.name}: every chain node died during line recovery"
                    )
                )
            return alive

        def maybe_install() -> None:
            if progress["stream_done"] and progress["cpu_done"]:
                # The stages already merged: the replacement replays delta
                # links on the fully streamed base, then installs.
                run.rebuild(
                    merge=0.0,
                    install=cost.install_time(run.base_bytes),
                    buffer_bytes=0.0,
                    detail={"path_length": float(len(chain))},
                )

        def start_stream() -> None:
            # Network: the accumulated state streams through the chain; the
            # final hop into the replacement carries the full state and is
            # the governing link (chain links carry prefixes concurrently).
            # The sending tail is re-elected from the surviving chain if the
            # current tail dies mid-stream.
            if not run.live():
                return
            alive = alive_chain()
            if not alive:
                return
            tail = alive[-1]

            def stream_arrived(span, _flow) -> None:
                if run.handle.done:
                    return
                span.finish()
                progress["stream_done"] = True
                maybe_install()

            def stream_aborted(span, _flow) -> None:
                span.finish(aborted=True)
                if not run.live():
                    return
                delay = run.backoff(
                    "stream",
                    "stream",
                    f"chain stream into {replacement.name} kept aborting "
                    f"after {max_retries} retries",
                )
                if delay is not None:
                    sim.schedule(delay, start_stream)

            run.transfer(
                root_span,
                f"stream chain->{replacement.name}",
                tail,
                replacement,
                total_bytes,
                stream_arrived,
                stream_aborted,
                provider=tail.name,
                stage=len(chain) - 1,
            )

        def start_pipeline() -> None:
            start_stream()
            # Every chain link i carries the accumulated prefix; account
            # those bytes (the final hop is already metered by the flow).
            per_stage = total_bytes / len(chain)
            for i in range(1, len(chain)):
                run.moved += per_stage * i
            run.moved += total_bytes

            # CPU: sequential stage work along the chain. A stage whose
            # node died is taken over by the downstream survivor, which
            # re-merges from the replicas it already received — modelled as
            # the same stage cost charged to the replacement.
            def run_stage(i: int) -> None:
                if run.handle.done:
                    return
                if i >= len(chain):
                    progress["cpu_done"] = True
                    maybe_install()
                    return
                node = chain[i] if chain[i].alive else replacement
                own_bytes = float(
                    sum(p.replica.size_bytes for p in stage_shards[i])
                )
                accumulated = total_bytes * (i + 1) / len(chain)
                duration = (
                    cost.stage_setup
                    + cost.merge_time(own_bytes)
                    + cost.line_redundant_factor * cost.merge_time(accumulated)
                )
                sim.tracer.record(
                    f"stage {i} on {node.name}",
                    sim.now,
                    sim.now + duration,
                    category="recovery.merge",
                    parent=root_span,
                    bytes=accumulated,
                    node=node.name,
                    stage=i,
                )
                ctx.charge_cpu(node, sim.now, duration, cost.merge_cpu_fraction)
                ctx.charge_memory(
                    node,
                    sim.now,
                    duration,
                    accumulated * cost.buffer_memory_factor,
                )
                sim.schedule(duration, run_stage, i + 1)

            run_stage(0)

        remaining = {"count": len(prefetches)}

        def prefetch_backoff(index: int) -> Optional[float]:
            return run.backoff(
                "prefetch",
                "prefetch",
                f"shard {index} could not be pre-staged after {max_retries} "
                f"retries (providers kept dying or stayed unreachable)",
            )

        def prefetch(item: Dict) -> None:
            if run.handle.done:
                return
            placed: PlacedShard = item["placed"]
            index = item["index"]
            target: DhtNode = item["target"]
            if not target.alive:
                # The chain node that should pre-stage this shard died;
                # redirect the prefetch to the first surviving chain node
                # (the pipeline re-merges it there).
                alive = alive_chain()
                if not alive:
                    return
                target = item["target"] = alive[0]
            if not ctx.network.reachable(placed.node.host, target.host):
                # The provider died (or was cut off) before this prefetch
                # started; switch to a usable replica now or back off and
                # retry (the cut may heal).
                usable = run.usable(index, target)
                if usable is None:
                    return
                if not usable:
                    delay = prefetch_backoff(index)
                    if delay is not None:
                        sim.schedule(delay, prefetch, item)
                    return
                placed = item["placed"] = usable[0]

            def arrived(span, _flow) -> None:
                span.finish()
                if run.handle.done:
                    return
                remaining["count"] -= 1
                if remaining["count"] == 0:
                    start_pipeline()

            def aborted(span, _flow) -> None:
                span.finish(aborted=True)
                if run.handle.done:
                    return
                delay = prefetch_backoff(index)
                if delay is None:
                    return
                # Move to a replica the target can reach right away, if one
                # exists; ``prefetch`` looks again after the back-off.
                usable = run.usable(index, target)
                if usable is None:
                    return
                if usable:
                    item["placed"] = usable[0]
                sim.schedule(delay, prefetch, item)

            run.transfer(
                root_span,
                f"prefetch shard {index} to {target.name}",
                placed.node,
                target,
                placed.replica.size_bytes,
                arrived,
                aborted,
                shard=index,
                provider=placed.node.name,
            )

        def launch() -> None:
            if not prefetches:
                start_pipeline()
            for item in prefetches:
                run.moved += item["placed"].replica.size_bytes
                sim.schedule(item["penalty"], prefetch, item)

        run.detect(cost.detection_delay, launch)
        return run.handle
