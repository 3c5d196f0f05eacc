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
        parent_span=None,
    ) -> RecoveryHandle:
        run = RecoveryRun(
            ctx,
            self.name,
            plan,
            replacement,
            state_name,
            parent_span,
            self.retry_policy,
            fanout_bits=self.fanout_bits,
            sub_shards=self.sub_shards,
        )
        if run.handle.done:
            return run.handle
        sim = ctx.sim
        cost = ctx.cost_model
        tracer = sim.tracer
        root_span = run.root_span
        reachable = ctx.network.reachable

        trees: List[Dict] = []
        for index, providers in run.providers.items():
            members = self._tree_members(ctx, providers, replacement)
            run.involved.update(node.name for node in members)
            # Members that are not replica holders fetch their sub-shard
            # from the surviving providers first; each provider serves its
            # share of those requests serially, so losing replicas
            # concentrates the request load (the slight growth of Fig. 10).
            provider_ids = {p.node.node_id for p in providers}
            holders = sum(1 for m in members if m.node_id in provider_ids)
            fetchers = len(members) - holders
            fetch_overhead = cost.shard_setup * -(-fetchers // max(1, holders))
            trees.append(
                {
                    "index": index,
                    "bytes": float(providers[0].replica.size_bytes),
                    "members": members,
                    "penalty": run.lookup_penalty(index) + fetch_overhead,
                    "epoch": 0,
                }
            )
        progress = {
            "delivered": 0,
            "cpu_free_at": run.started_at + cost.detection_delay,
        }

        def build(tree_info: Dict, verb: str, penalty: float) -> None:
            """Spend the tree construction time, then start aggregating."""
            members = tree_info["members"]
            build_time = (
                cost.tree_build_base
                + cost.tree_build_per_member * len(members)
                + penalty
            )
            tracer.record(
                f"{verb} tree {tree_info['index']}",
                sim.now,
                sim.now + build_time,
                category="recovery.tree_build",
                parent=root_span,
                members=len(members),
            )
            sim.schedule(build_time, run_tree, tree_info)

        def restart_shard(tree_info: Dict) -> None:
            """A tree member died (or was cut off) mid-aggregation.

            One node death aborts every flow touching it, so several abort
            callbacks may fire for the same tree; bumping the epoch here
            invalidates the stale ones (they check the epoch they captured
            and no-op). The shard tree is then rebuilt from the surviving
            replica holders after a backoff.
            """
            if not run.live():
                return
            tree_info["epoch"] += 1
            index = tree_info["index"]
            delay = run.backoff(
                index,
                f"shard {index}",
                f"shard {index} aggregation kept failing after "
                f"{run.policy.max_retries} retries (tree members kept dying "
                f"or stayed unreachable)",
                shard=index,
            )
            if delay is not None:
                sim.schedule(delay, rebuild, tree_info)

        def rebuild(tree_info: Dict) -> None:
            if run.handle.done:
                return
            providers = run.survivors(tree_info["index"])
            if not providers:
                return
            members = self._tree_members(ctx, providers, replacement)
            run.involved.update(node.name for node in members)
            tree_info["members"] = members
            build(tree_info, "rebuild", 0.0)

        def installed() -> None:
            if run.handle.done:
                return
            progress["delivered"] += 1
            if progress["delivered"] == len(trees):
                # All segments landed and installed shard by shard: only
                # the delta replay is left before the state is live.
                tree_height = max(t["tree"].height() for t in trees)
                run.rebuild(
                    merge=0.0,
                    install=0.0,
                    buffer_bytes=0.0,
                    detail={
                        "fanout_bits": float(self.fanout_bits),
                        "tree_height": float(tree_height),
                    },
                    tree_height=tree_height,
                )

        def run_tree(tree_info: Dict) -> None:
            if run.handle.done:
                return
            epoch = tree_info["epoch"]
            index = tree_info["index"]
            shard_bytes = tree_info["bytes"]
            members: List[DhtNode] = tree_info["members"]
            span = root_span.child(
                f"aggregate shard {index}",
                category="recovery.aggregate",
                bytes=shard_bytes,
                shard=index,
                members=len(members),
                attempt=run.retries.get(index, 0),
            )
            if self.scribe is not None:
                # The prototype's path: one Scribe topic per shard; the
                # aggregation tree is the route-union tree of the members.
                # Restarted aggregations get a fresh topic per epoch.
                topic_name = f"sr3/{run.name}/shard-{index}"
                if epoch:
                    topic_name += f"/retry-{epoch}"
                self.scribe.create_topic(topic_name)
                self.scribe.subscribe_many(topic_name, members)
                tree = self.scribe.topics[topic_name].tree
            elif self.branch_depth is not None:
                tree = build_tree_with_depth(members[0], members[1:], self.branch_depth)
            else:
                tree = build_tree(members[0], members[1:], 1 << self.fanout_bits)
            tree_info["tree"] = tree
            sub_bytes = shard_bytes / len(members)
            contributors = {node.node_id for node in members}
            # Aggregate bottom-up: a node sends its accumulated range to its
            # parent once all of its children have delivered. Scribe trees
            # may contain pure forwarders, which contribute no sub-shard.
            waiting = {node: tree.child_count(node) for node in tree.members()}
            aggregate = {
                node: (sub_bytes if node.node_id in contributors else 0.0)
                for node in tree.members()
            }

            def stale() -> bool:
                return run.handle.done or tree_info["epoch"] != epoch

            def deliver_shard() -> None:
                """Root finished aggregating: ship the shard to the replacement."""
                span.finish()
                root: DhtNode = tree.root
                if not reachable(root.host, replacement.host):
                    # The root (or the replacement) died while the last merge
                    # was still in flight; rebuild from surviving providers.
                    restart_shard(tree_info)
                    return

                def delivered(deliver_span, _flow) -> None:
                    if stale():
                        return
                    deliver_span.finish()
                    run.moved += shard_bytes
                    install_start = max(sim.now, progress["cpu_free_at"])
                    duration = cost.install_time(shard_bytes)
                    progress["cpu_free_at"] = install_start + duration
                    tracer.record(
                        f"install shard {index}",
                        install_start,
                        install_start + duration,
                        category="recovery.install",
                        parent=root_span,
                        bytes=shard_bytes,
                        node=replacement.name,
                    )
                    ctx.charge_cpu(
                        replacement, install_start, duration, cost.merge_cpu_fraction
                    )
                    sim.schedule_at(progress["cpu_free_at"], installed)

                def deliver_aborted(deliver_span, _flow) -> None:
                    deliver_span.finish(aborted=True)
                    if not stale():
                        restart_shard(tree_info)

                run.transfer(
                    root_span,
                    f"deliver shard {index} from {root.name}",
                    root,
                    replacement,
                    shard_bytes,
                    delivered,
                    deliver_aborted,
                    shard=index,
                    provider=root.name,
                )

            def node_ready(node: DhtNode) -> None:
                if stale():
                    return
                if node is tree.root:
                    deliver_shard()
                    return
                parent = tree.parent(node)
                size = aggregate[node]
                if not reachable(node.host, parent.host):
                    # A member died (or was cut off) between tree build and
                    # this hop starting; no flow exists to abort, so take
                    # the restart path directly.
                    span.finish(aborted=True)
                    restart_shard(tree_info)
                    return

                # The per-hop loop runs once per sub-shard of every tree, so
                # it talks to the network itself instead of ``run.transfer``
                # and builds no span name, depth or attrs for the null tracer.
                hop_span = NULL_SPAN
                if tracer.enabled:
                    hop_span = span.child(
                        f"sub-shard {node.name}->{parent.name}",
                        category="recovery.transfer",
                        bytes=size,
                        shard=index,
                        level=tree.depth_of(node),
                        provider=node.name,
                    )

                # Bound as defaults, and ``merged`` only made on arrival:
                # flows outlive their hop, and so does whatever they close over.
                def hop_aborted(_flow, hop_span=hop_span) -> None:
                    hop_span.finish(aborted=True)
                    if stale():
                        return
                    span.finish(aborted=True)
                    restart_shard(tree_info)

                def arrived(_flow, p=parent, size=size, hop_span=hop_span) -> None:
                    if stale():
                        return
                    hop_span.finish()
                    run.moved += size
                    # Range concatenation at the parent + level handoff.
                    duration = cost.level_setup + size / cost.install_rate
                    if tracer.enabled:
                        tracer.record(
                            f"merge at {p.name}",
                            sim.now,
                            sim.now + duration,
                            category="recovery.merge",
                            parent=span,
                            bytes=size,
                            node=p.name,
                        )
                    ctx.charge_cpu(p, sim.now, duration, cost.merge_cpu_fraction)
                    ctx.charge_memory(
                        p, sim.now, duration, size * cost.buffer_memory_factor
                    )

                    def merged() -> None:
                        if stale():
                            return
                        aggregate[p] += size
                        waiting[p] -= 1
                        if waiting[p] == 0:
                            node_ready(p)

                    sim.schedule(duration, merged)

                ctx.network.transfer(
                    node.host,
                    parent.host,
                    size,
                    on_complete=arrived,
                    on_abort=hop_aborted,
                    parent_span=hop_span,
                )

            for leaf in tree.leaves():
                if leaf is tree.root:
                    deliver_shard()
                else:
                    node_ready(leaf)

        def launch() -> None:
            for tree_info in trees:
                build(tree_info, "build", tree_info["penalty"])

        run.detect(cost.detection_delay, launch)
        return run.handle

    def _tree_members(
        self,
        ctx: RecoveryContext,
        providers: List[PlacedShard],
        replacement: DhtNode,
    ) -> List[DhtNode]:
        """Pick the nodes contributing one sub-shard each to a shard tree.

        Providers holding the shard come first (the root is a provider);
        if the tree needs more members than there are distinct providers,
        peer nodes from the overlay serve the remaining sub-shards (they
        fetch them from providers as part of tree construction — covered
        by the per-member build cost).
        """
        target = (
            max(self.sub_shards, self.branch_depth)
            if self.branch_depth is not None
            else self.sub_shards
        )
        members: List[DhtNode] = []
        seen = set()
        for placed in providers:
            if placed.node.node_id not in seen and placed.node.alive:
                members.append(placed.node)
                seen.add(placed.node.node_id)
            if len(members) == target:
                return members
        extra_needed = target - len(members)
        if extra_needed > 0:
            exclude = members + [replacement]
            pool_size = ctx.overlay.alive_count() - len(exclude)
            extra = ctx.overlay.sample_nodes(min(extra_needed, max(0, pool_size)), exclude)
            members.extend(extra)
        return members
