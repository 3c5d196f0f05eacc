"""The tree-structured recovery mechanism (Sec. 3.6).

Each shard is divided into sub-shards; the sub-shards of every shard are
aggregated up a Scribe-style spanning tree covering the providing nodes,
and the reconstructed shards converge on the replacing node (Figs. 5, 6).
All shard trees run in parallel, every providing node uploads only the
sub-shards it holds, and merge work is spread across the interior of each
tree — no centralized bottleneck, and the per-provider upload volume
respects bandwidth asymmetry.

Tunables mirror the paper's knobs: ``fanout_bits`` sets the per-node
fan-out to ``2**bits`` (Fig. 9d — larger fan-out, shallower tree, lower
latency); ``branch_depth`` forces deeper, narrower trees (Fig. 9c — deeper
means more sequential stages and higher latency).

Because sub-shards are disjoint key ranges, interior merges are range
concatenations and run at the (fast) install rate; the mechanism's costs
are dominated by tree construction, per-level handoffs, and the network.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.dht.node import DhtNode
from repro.multicast.tree import build_tree, build_tree_with_depth
from repro.obs.tracer import NULL_SPAN
from repro.recovery.model import (
    RecoveryContext,
    RecoveryHandle,
    RecoveryRun,
    RetryPolicy,
)
from repro.state.placement import PlacedShard, PlacementPlan


class TreeRecovery:
    """Scribe-tree parallel aggregation recovery."""

    name = "tree"

    def __init__(
        self,
        fanout_bits: int = 1,
        branch_depth: Optional[int] = None,
        sub_shards: int = 8,
        scribe=None,
        retry_policy: RetryPolicy = RetryPolicy(),
    ) -> None:
        """``scribe`` optionally supplies a
        :class:`~repro.multicast.scribe.ScribeSystem`: each shard then
        aggregates over a real Scribe topic tree (the route-union tree of
        its providers), matching the prototype's implementation "on top of
        Scribe's topic-based publish/subscribe trees" (Sec. 4). Without
        it, a balanced tree with the configured fan-out/depth is built
        directly — same asymptotics, full control over the knobs.
        """
        if fanout_bits < 0:
            raise ValueError("fanout_bits must be non-negative")
        if branch_depth is not None and branch_depth < 1:
            raise ValueError("branch_depth must be at least 1")
        if sub_shards < 1:
            raise ValueError("sub_shards must be at least 1")
        self.fanout_bits = fanout_bits
        self.branch_depth = branch_depth
        self.sub_shards = sub_shards
        self.scribe = scribe
        self.retry_policy = retry_policy

    def start(
        self,
        ctx: RecoveryContext,
        plan: PlacementPlan,
        replacement: DhtNode,
        state_name: Optional[str] = None,
    ) -> RecoveryHandle:
        run = TreeRun(self, ctx, plan, replacement, state_name)
        if not run.handle.done:
            run.detect(ctx.cost_model.detection_delay, run.launch)
        return run.handle


class TreeRun(RecoveryRun):
    """A tree recovery in flight: the record its build and install events call.

    ``shards`` holds one entry per shard tree (index, bytes, members, epoch
    and the tree of the latest attempt). Each attempt is an
    :class:`Aggregation` that points at the run and at its entry; nothing
    points back at an attempt, so a finished one is freed by reference count.
    """

    def __init__(self, config: TreeRecovery, ctx: RecoveryContext, plan: PlacementPlan,
                 replacement: DhtNode, state_name: Optional[str]) -> None:
        super().__init__(
            ctx, config.name, plan, replacement, state_name, config.retry_policy,
            fanout_bits=config.fanout_bits, sub_shards=config.sub_shards,
        )
        self.config = config
        self.shards: List[Dict] = []
        if self.handle.done:
            return
        cost = ctx.cost_model
        for index, providers in self.providers.items():
            members = self.members(providers)
            # Members that are not replica holders fetch their sub-shard
            # from the surviving providers first; each provider serves its
            # share of those requests serially, so losing replicas
            # concentrates the request load (the slight growth of Fig. 10).
            provider_ids = {p.node.node_id for p in providers}
            holders = sum(1 for m in members if m.node_id in provider_ids)
            fetchers = len(members) - holders
            fetch_overhead = cost.shard_setup * -(-fetchers // max(1, holders))
            self.shards.append({
                "index": index,
                "bytes": float(providers[0].replica.size_bytes),
                "members": members,
                "penalty": self.lookup_penalty(index) + fetch_overhead,
                "epoch": 0,
            })
        self.installs = 0
        self.cpu_free_at = self.started_at + cost.detection_delay

    def members(self, providers: List[PlacedShard]) -> List[DhtNode]:
        """Pick the nodes contributing one sub-shard each to a shard tree.

        Providers holding the shard come first (the root is a provider);
        if the tree needs more members than there are distinct providers,
        peer nodes from the overlay serve the remaining sub-shards (they
        fetch them from providers as part of tree construction — covered
        by the per-member build cost).
        """
        config = self.config
        target = config.sub_shards
        if config.branch_depth is not None:
            target = max(target, config.branch_depth)
        members: List[DhtNode] = []
        seen = set()
        for placed in providers:
            if placed.node.node_id not in seen and placed.node.alive:
                members.append(placed.node)
                seen.add(placed.node.node_id)
            if len(members) == target:
                break
        extra_needed = target - len(members)
        if extra_needed > 0:
            overlay = self.ctx.overlay
            exclude = members + [self.replacement]
            pool_size = overlay.alive_count() - len(exclude)
            members.extend(overlay.sample_nodes(min(extra_needed, max(0, pool_size)), exclude))
        self.involved.update(node.name for node in members)
        return members

    def launch(self) -> None:
        for shard in self.shards:
            self.build(shard, "build", shard["penalty"])

    def build(self, shard: Dict, verb: str, penalty: float) -> None:
        """Spend the tree construction time, then start an attempt."""
        sim, cost = self.sim, self.ctx.cost_model
        members = shard["members"]
        build_time = cost.tree_build_base + cost.tree_build_per_member * len(members) + penalty
        sim.tracer.record(
            f"{verb} tree {shard['index']}", sim.now, sim.now + build_time,
            category="recovery.tree_build", parent=self.root_span, members=len(members),
        )
        sim.schedule(build_time, self.attempt, shard)

    def attempt(self, shard: Dict) -> None:
        """Arrange the shard's members in a tree and start its leaves."""
        if self.handle.done:
            return
        config = self.config
        index, epoch, members = shard["index"], shard["epoch"], shard["members"]
        span = self.root_span.child(
            f"aggregate shard {index}", category="recovery.aggregate", bytes=shard["bytes"],
            shard=index, members=len(members), attempt=self.retries.get(index, 0),
        )
        if config.scribe is not None:
            # The prototype's path: one Scribe topic per shard; the
            # aggregation tree is the route-union tree of the members.
            # Restarted aggregations get a fresh topic per epoch.
            topic_name = f"sr3/{self.name}/shard-{index}"
            if epoch:
                topic_name += f"/retry-{epoch}"
            config.scribe.create_topic(topic_name)
            config.scribe.subscribe_many(topic_name, members)
            tree = config.scribe.topics[topic_name].tree
        elif config.branch_depth is not None:
            tree = build_tree_with_depth(members[0], members[1:], config.branch_depth)
        else:
            tree = build_tree(members[0], members[1:], 1 << config.fanout_bits)
        shard["tree"] = tree
        aggregation = Aggregation(self, shard, tree, span)
        for leaf in tree.leaves():
            if leaf is tree.root:
                aggregation.deliver()
            else:
                aggregation.node_ready(leaf)

    def restart(self, shard: Dict) -> None:
        """A tree member died (or was cut off) mid-aggregation.

        One node death aborts every flow touching it, so several abort
        callbacks may fire for the same tree; bumping the epoch here
        invalidates the stale ones (they compare the epoch they began
        with and no-op). The shard tree is then rebuilt from the surviving
        replica holders after a backoff.
        """
        if not self.live():
            return
        shard["epoch"] += 1
        index = shard["index"]
        delay = self.backoff(
            index, f"shard {index}",
            f"shard {index} aggregation kept failing after {self.policy.max_retries} "
            f"retries (tree members kept dying or stayed unreachable)",
            shard=index,
        )
        if delay is not None:
            self.sim.schedule(delay, self.regrow, shard)

    def regrow(self, shard: Dict) -> None:
        if self.handle.done:
            return
        providers = self.survivors(shard["index"])
        if not providers:
            return
        shard["members"] = self.members(providers)
        self.build(shard, "rebuild", 0.0)

    def installed(self) -> None:
        if self.handle.done:
            return
        self.installs += 1
        if self.installs == len(self.shards):
            # All segments landed and installed shard by shard: only the
            # delta replay is left before the state is live.
            height = max(shard["tree"].height() for shard in self.shards)
            detail = {"fanout_bits": float(self.config.fanout_bits)}
            detail["tree_height"] = float(height)
            self.rebuild(
                merge=0.0, install=0.0, buffer_bytes=0.0, detail=detail, tree_height=height
            )


class Aggregation:
    """One attempt at aggregating a shard up its tree: the record its flows call.

    A node sends its accumulated range to its parent once all of its
    children have delivered (``waiting``, ``aggregate``); the root ships
    the shard to the replacement. A hop's flow knows its two hosts, and
    ``nodes`` maps them back, so one bound method per hop serves as both
    ``on_complete`` and ``on_abort``. ``epoch`` is the shard's epoch when
    the attempt began: a restart bumps the shard's, which turns every
    callback still queued here into a no-op.
    """

    __slots__ = (
        "run", "shard", "epoch", "tree", "span", "waiting", "aggregate", "nodes", "hop_spans",
    )

    def __init__(self, run: TreeRun, shard: Dict, tree, span) -> None:
        self.run, self.shard, self.tree, self.span = run, shard, tree, span
        self.epoch = shard["epoch"]
        members = shard["members"]
        sub_bytes = shard["bytes"] / len(members)
        contributors = {node.node_id for node in members}
        # Scribe trees may contain pure forwarders, which contribute no sub-shard.
        self.waiting, self.aggregate, self.nodes = {}, {}, {}
        for node in tree.members():
            self.waiting[node] = tree.child_count(node)
            self.aggregate[node] = sub_bytes if node.node_id in contributors else 0.0
            self.nodes[node.host] = node
        self.hop_spans: Dict = {}  # source host -> hop span, while tracing

    def stale(self) -> bool:
        return self.run.handle.done or self.shard["epoch"] != self.epoch

    def node_ready(self, node: DhtNode) -> None:
        if self.stale():
            return
        tree, run = self.tree, self.run
        if node is tree.root:
            self.deliver()
            return
        parent = tree.parent(node)
        size = self.aggregate[node]
        if not run.ctx.network.reachable(node.host, parent.host):
            # A member died (or was cut off) between tree build and this
            # hop starting; no flow exists to abort, so take the restart
            # path directly.
            self.span.finish(aborted=True)
            run.restart(self.shard)
            return
        # The per-hop loop runs once per sub-shard of every tree, so it
        # talks to the network itself instead of ``run.transfer`` and
        # builds no span name, depth or attrs for the null tracer.
        hop_span = NULL_SPAN
        if run.sim.tracer.enabled:
            hop_span = self.hop_spans[node.host] = self.span.child(
                f"sub-shard {node.name}->{parent.name}", category="recovery.transfer",
                bytes=size, shard=self.shard["index"], level=tree.depth_of(node),
                provider=node.name,
            )
        hop = self.hop
        run.ctx.network.transfer(
            node.host, parent.host, size, on_complete=hop, on_abort=hop, parent_span=hop_span
        )

    def hop(self, flow) -> None:
        """A sub-shard's flow ended: merge it at the parent, or restart."""
        hop_span = self.hop_spans.get(flow.src, NULL_SPAN)
        if flow.aborted:
            hop_span.finish(aborted=True)
            if not self.stale():
                self.span.finish(aborted=True)
                self.run.restart(self.shard)
            return
        if self.stale():
            return
        hop_span.finish()
        run = self.run
        sim, cost = run.sim, run.ctx.cost_model
        parent, size = self.nodes[flow.dst], flow.size
        run.moved += size
        # Range concatenation at the parent + level handoff.
        duration = cost.level_setup + size / cost.install_rate
        if sim.tracer.enabled:
            sim.tracer.record(
                f"merge at {parent.name}", sim.now, sim.now + duration,
                category="recovery.merge", parent=self.span, bytes=size, node=parent.name,
            )
        run.ctx.charge_cpu(parent, sim.now, duration, cost.merge_cpu_fraction)
        run.ctx.charge_memory(parent, sim.now, duration, size * cost.buffer_memory_factor)
        sim.schedule(duration, self.merged, parent, size)

    def merged(self, parent: DhtNode, size: float) -> None:
        if self.stale():
            return
        self.aggregate[parent] += size
        self.waiting[parent] -= 1
        if self.waiting[parent] == 0:
            self.node_ready(parent)

    def deliver(self) -> None:
        """Root finished aggregating: ship the shard to the replacement."""
        self.span.finish()
        run, root = self.run, self.tree.root
        if not run.ctx.network.reachable(root.host, run.replacement.host):
            # The root (or the replacement) died while the last merge was
            # still in flight; rebuild from surviving providers.
            run.restart(self.shard)
            return
        index = self.shard["index"]
        run.transfer(
            run.root_span, f"deliver shard {index} from {root.name}", root, run.replacement,
            self.shard["bytes"], self.delivered, self.delivered, shard=index, provider=root.name,
        )

    def delivered(self, span, flow) -> None:
        """The shard's flow to the replacement ended: install it, or restart."""
        run = self.run
        if flow.aborted:
            span.finish(aborted=True)
            if not self.stale():
                run.restart(self.shard)
            return
        if self.stale():
            return
        span.finish()
        sim, cost = run.sim, run.ctx.cost_model
        size = flow.size
        run.moved += size
        install_start = max(sim.now, run.cpu_free_at)
        duration = cost.install_time(size)
        run.cpu_free_at = install_start + duration
        sim.tracer.record(
            f"install shard {self.shard['index']}", install_start, install_start + duration,
            category="recovery.install", parent=run.root_span, bytes=size,
            node=run.replacement.name,
        )
        run.ctx.charge_cpu(run.replacement, install_start, duration, cost.merge_cpu_fraction)
        sim.schedule_at(run.cpu_free_at, run.installed)
