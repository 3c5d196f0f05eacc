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

from functools import partial
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
        run.detect(ctx.cost_model.detection_delay, LineRun(run, self.path_length).launch)
        return run.handle


class LineRun:
    """One line recovery in flight: prefetches, the stream, the stage CPU.

    The record its flows and events call, as :class:`FetchWindow` is for
    star: it points at the run, which never stores it, so no step it
    schedules reaches back to itself.
    """

    __slots__ = ("run", "chain", "stage_shards", "prefetches", "left", "stream_done", "cpu_done")

    def __init__(self, run: RecoveryRun, path_length: int) -> None:
        self.run = run
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
            if len(chain) == path_length:
                break
        # Nodes in the merge chain, not the plan's version-chain length
        # (which the run records as ``chain_len``).
        run.root_span.annotate(chain_length=len(chain))
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
                # Carry the plan's shard index (a global chain segment id for
                # a VersionChain): recomputing it from the shard object would
                # lose the link offset.
                prefetches.append({"index": index, "placed": placed, "target": chain[holder_pos],
                                   "penalty": run.lookup_penalty(index)})
            stage_shards[holder_pos].append(placed)
        self.chain, self.stage_shards, self.prefetches = chain, stage_shards, prefetches
        self.left, self.stream_done, self.cpu_done = len(prefetches), False, False

    def launch(self) -> None:
        run = self.run
        if not self.prefetches:
            self.start_pipeline()
        for item in self.prefetches:
            run.moved += item["placed"].replica.size_bytes
            run.sim.schedule(item["penalty"], self.prefetch, item)

    def alive_chain(self) -> List[DhtNode]:
        alive = [n for n in self.chain if n.alive]
        if not alive:
            self.run.fail(InsufficientShardsError(
                f"{self.run.name}: every chain node died during line recovery"
            ))
        return alive

    def maybe_install(self) -> None:
        if self.stream_done and self.cpu_done:
            # The stages already merged: the replacement replays delta
            # links on the fully streamed base, then installs.
            run = self.run
            run.rebuild(
                merge=0.0, install=run.ctx.cost_model.install_time(run.base_bytes),
                buffer_bytes=0.0, detail={"path_length": float(len(self.chain))},
            )

    def start_stream(self) -> None:
        """Network: the accumulated state streams through the chain; the
        final hop into the replacement carries the full state and is the
        governing link (chain links carry prefixes concurrently). The
        sending tail is re-elected from the surviving chain if the current
        tail dies mid-stream."""
        run = self.run
        if not run.live():
            return
        alive = self.alive_chain()
        if not alive:
            return
        tail = alive[-1]
        run.transfer(
            run.root_span, f"stream chain->{run.replacement.name}", tail, run.replacement,
            run.total_bytes, self.stream_arrived, self.stream_aborted,
            provider=tail.name, stage=len(self.chain) - 1,
        )

    def stream_arrived(self, span, _flow) -> None:
        if self.run.handle.done:
            return
        span.finish()
        self.stream_done = True
        self.maybe_install()

    def stream_aborted(self, span, _flow) -> None:
        span.finish(aborted=True)
        run = self.run
        if not run.live():
            return
        delay = run.backoff(
            "stream", "stream",
            f"chain stream into {run.replacement.name} kept aborting "
            f"after {run.policy.max_retries} retries",
        )
        if delay is not None:
            run.sim.schedule(delay, self.start_stream)

    def start_pipeline(self) -> None:
        self.start_stream()
        # Every chain link i carries the accumulated prefix; account
        # those bytes (the final hop is already metered by the flow).
        run, total_bytes = self.run, self.run.total_bytes
        per_stage = total_bytes / len(self.chain)
        for i in range(1, len(self.chain)):
            run.moved += per_stage * i
        run.moved += total_bytes
        self.run_stage(0)

    def run_stage(self, i: int) -> None:
        """CPU: sequential stage work along the chain. A stage whose node
        died is taken over by the downstream survivor, which re-merges from
        the replicas it already received — modelled as the same stage cost
        charged to the replacement."""
        run, chain = self.run, self.chain
        if run.handle.done:
            return
        if i >= len(chain):
            self.cpu_done = True
            self.maybe_install()
            return
        sim, ctx, cost = run.sim, run.ctx, run.ctx.cost_model
        node = chain[i] if chain[i].alive else run.replacement
        own_bytes = float(sum(p.replica.size_bytes for p in self.stage_shards[i]))
        accumulated = run.total_bytes * (i + 1) / len(chain)
        duration = (
            cost.stage_setup
            + cost.merge_time(own_bytes)
            + cost.line_redundant_factor * cost.merge_time(accumulated)
        )
        sim.tracer.record(
            f"stage {i} on {node.name}", sim.now, sim.now + duration, category="recovery.merge",
            parent=run.root_span, bytes=accumulated, node=node.name, stage=i,
        )
        ctx.charge_cpu(node, sim.now, duration, cost.merge_cpu_fraction)
        ctx.charge_memory(node, sim.now, duration, accumulated * cost.buffer_memory_factor)
        sim.schedule(duration, self.run_stage, i + 1)

    def prefetch_backoff(self, index: int) -> Optional[float]:
        return self.run.backoff(
            "prefetch", "prefetch",
            f"shard {index} could not be pre-staged after {self.run.policy.max_retries} "
            f"retries (providers kept dying or stayed unreachable)",
        )

    def prefetch(self, item: Dict) -> None:
        run = self.run
        if run.handle.done:
            return
        placed: PlacedShard = item["placed"]
        index = item["index"]
        target: DhtNode = item["target"]
        if not target.alive:
            # The chain node that should pre-stage this shard died;
            # redirect the prefetch to the first surviving chain node
            # (the pipeline re-merges it there).
            alive = self.alive_chain()
            if not alive:
                return
            target = item["target"] = alive[0]
        if not run.ctx.network.reachable(placed.node.host, target.host):
            # The provider died (or was cut off) before this prefetch
            # started; switch to a usable replica now or back off and
            # retry (the cut may heal).
            usable = run.usable(index, target)
            if usable is None:
                return
            if not usable:
                delay = self.prefetch_backoff(index)
                if delay is not None:
                    run.sim.schedule(delay, self.prefetch, item)
                return
            placed = item["placed"] = usable[0]
        run.transfer(
            run.root_span, f"prefetch shard {index} to {target.name}", placed.node, target,
            placed.replica.size_bytes, self.prefetch_arrived, partial(self.prefetch_aborted, item),
            shard=index, provider=placed.node.name,
        )

    def prefetch_arrived(self, span, _flow) -> None:
        span.finish()
        if self.run.handle.done:
            return
        self.left -= 1
        if self.left == 0:
            self.start_pipeline()

    def prefetch_aborted(self, item: Dict, span, _flow) -> None:
        """The target is the one the transfer went to: only this callback
        reschedules the item's prefetch."""
        span.finish(aborted=True)
        run = self.run
        if run.handle.done:
            return
        index = item["index"]
        delay = self.prefetch_backoff(index)
        if delay is None:
            return
        # Move to a replica the target can reach right away, if one
        # exists; ``prefetch`` looks again after the back-off.
        usable = run.usable(index, item["target"])
        if usable is None:
            return
        if usable:
            item["placed"] = usable[0]
        run.sim.schedule(delay, self.prefetch, item)
