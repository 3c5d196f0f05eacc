"""Remediation actions: what the control plane can actually do.

Every action follows the same contract: ``execute(world, diagnosis)``
inspects the *current* world first and returns ``changed=False`` when the
condition is already gone — actions are idempotent, so the controller can
retry them freely. Execution drives the simulator to quiescence before
reporting, so an outcome reflects landed bytes, not scheduled intentions.

The catalog:

- :class:`RecoverState` (``recover``) — proactive recovery of a state
  whose owner died, through :meth:`RecoveryManager.recover`, using the
  Fig. 7 selection-recommended mechanism unless the policy pins one.
- :class:`RecoverDegraded` (``recover-degraded``) — the telemetry-alert
  form of recovery: scan the registry for states stranded on dead owners
  (all of them, or the one the alert binds) and recover each. Exposes a
  non-blocking ``begin_all`` for embeddings that own the event loop.
- :class:`ReReplicate` (``re-replicate``) — copy thin chain segments from
  a surviving provider onto fresh nodes until every segment is back at
  the configured replication factor. Copies preserve shard checksums and
  the chain structure (this is *not* a new save round).
- :class:`RewriteState` (``rewrite``) — a fresh full save of the current
  reconstructed image: resets the chain, restores full replication.
- :class:`CompactChain` (``compact-chain``) — rewrite, but a no-op unless
  the state actually carries a multi-link chain.
- :class:`RebalanceNode` (``rebalance``) — move replicas off a flagged
  node (all of them for a flaky node, the excess for a hot shard).
- :class:`EvictNode` (``evict-node``) — rebalance everything away, then
  remove the node from the ring (refuses to evict a state owner).
- :class:`SplitShard` (``split-shard``) — split a state's hottest shard
  in two (``m`` → ``m + 1``) and land the result with a fresh save.
- :class:`MergeShards` (``merge-shards``) — fold two cold shards into
  one (``m`` → ``m - 1``), same re-save flow.
- :class:`MigrateShard` (``migrate-shard``) — live-migrate one replica
  of the heaviest shard off a flagged node; chain and checksums are
  untouched.
- :class:`PromoteStandby` (``promote-standby``) — flip ownership to a
  warm standby (dead owner) or re-warm a lagging one (live owner).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.control.diagnose import Diagnosis
from repro.errors import ConfigError, OverlayError, ReproError
from repro.recovery.deployment import MECHANISMS
from repro.recovery.standby import (
    StandbyRecovery,
    standby_coverage,
    standby_node_of,
    sync_standby,
)
from repro.state.partitioner import (
    merge_shard_pair,
    partition_snapshot,
    partition_synthetic,
    split_shard,
)
from repro.state.placement import PlacedShard, migrate_replica
from repro.state.shard import ShardReplica
from repro.state.version import StateVersion

#: Flow tag stamped on every byte the control plane moves.
CONTROL_TAG = "control.copy"


@dataclass(frozen=True)
class ActionOutcome:
    """What one action execution did (or why it could not)."""

    action: str
    ok: bool
    changed: bool
    details: Tuple[Tuple[str, object], ...] = ()
    error: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "action": self.action,
            "ok": self.ok,
            "changed": self.changed,
            "details": {k: v for k, v in self.details},
            "error": self.error,
        }


class Action:
    """Base class: a named, parameterized remediation."""

    name = "action"

    def __init__(self, **params) -> None:
        self.params = params

    def execute(
        self, world, diagnosis: Diagnosis, parent_span=None
    ) -> ActionOutcome:  # pragma: no cover - interface
        raise NotImplementedError

    # ------------------------------------------------------------- helpers

    def _ok(self, changed: bool, **details) -> ActionOutcome:
        return ActionOutcome(
            action=self.name,
            ok=True,
            changed=changed,
            details=tuple(sorted(details.items())),
        )

    def _fail(self, error: str, **details) -> ActionOutcome:
        return ActionOutcome(
            action=self.name,
            ok=False,
            changed=False,
            details=tuple(sorted(details.items())),
            error=error,
        )

    def _saved_state(self, world, state_name, live_owner_before: str = ""):
        """``(registered, failure)`` for the state a diagnosis names.

        ``failure`` is ``None`` when the state is registered and saved —
        and, if ``live_owner_before`` names what the caller is about to
        do, its owner is alive. ``registered`` is set whenever the name
        is known, so a caller can still no-op on an unsaved state.
        """
        registered = world.manager.states.get(state_name)
        if registered is None:
            return None, self._fail(f"unknown state {state_name!r}")
        if registered.plan is None:
            return registered, self._fail(f"state {state_name!r} was never saved")
        if live_owner_before and not registered.owner.alive:
            return registered, self._fail(
                f"owner of {state_name!r} is dead; recover it before "
                f"{live_owner_before}"
            )
        return registered, None

    def _resave(self, world, registered, transform=lambda shards: shards):
        """Fold the chain, repartition the image, land it with a full save.

        ``transform`` maps the current base partition to the one to save
        (identity: a plain rewrite). The save round re-scatters the shards
        across the leaf set and resets the chain; ``state_checksums()``
        ground truth is preserved because the merged snapshot is
        byte-identical before and after. Returns ``(SaveResult, failure)``.
        """
        state_name = registered.state_name
        try:
            shards = transform(_current_base_shards(world, registered))
            world.manager.refresh_shards(state_name, shards)
            handle = world.manager.save(state_name)
            world.sim.run_until_idle()
            result = handle.result
        except ReproError as exc:
            return None, self._fail(str(exc))
        rewritten = getattr(world, "on_chain_rewritten", None)
        if rewritten is not None:
            rewritten(state_name)
        return result, None


ACTIONS: Dict[str, type] = {}


def register_action(cls):
    """Register an action class under its ``name`` (tests add their own)."""
    ACTIONS[cls.name] = cls
    return cls


def build_action(name: str, **params) -> Action:
    """Instantiate a registered action by policy-table name."""
    cls = ACTIONS.get(name)
    if cls is None:
        raise ConfigError(f"unknown action {name!r}; known: {sorted(ACTIONS)}")
    return cls(**params)


def _node_by_name(world, name: Optional[str]):
    for node in world.overlay.nodes:
        if node.name == name:
            return node
    return None


def _implicated_states(world, diagnosis: Diagnosis):
    """The registered states a diagnosis covers: the one it names, else all."""
    names = (
        [diagnosis.state]
        if diagnosis.state is not None
        else sorted(world.manager.states)
    )
    for state_name in names:
        registered = world.manager.states.get(state_name)
        if registered is not None:
            yield registered


def _occupied(plan, shard_index: int) -> set:
    """Nodes barred from another replica of a shard: its holders and the owner."""
    occupied = {p.node.node_id for p in plan.for_shard(shard_index)}
    if plan.owner is not None:
        occupied.add(plan.owner.node_id)
    return occupied


def _pick_target(world, exclude_ids, pending: Dict[str, int]):
    """The least-loaded eligible alive node (deterministic tie-break).

    ``pending`` counts replicas this action already routed to each node
    but whose transfers have not landed yet, so one action round spreads
    its copies instead of piling everything on the emptiest node.
    """
    candidates = [
        node
        for node in world.overlay.alive_nodes()
        if node.node_id not in exclude_ids
    ]
    if not candidates:
        return None
    return min(
        candidates,
        key=lambda n: (n.stored_shard_count() + pending.get(n.name, 0), n.name),
    )


def _copy_replica(world, source_node, target_node, replica, parent_span=None) -> None:
    """Ship one replica's bytes and install it on arrival."""

    def arrived(flow, key=replica.key, rep=replica, node=target_node):
        node.store_shard(key, rep)

    world.network.transfer(
        source_node.host,
        target_node.host,
        replica.size_bytes,
        on_complete=arrived,
        tag=CONTROL_TAG,
        parent_span=parent_span,
    )


def _mechanism_instance(name: str):
    """A fresh mechanism implementation for a pinned policy name."""
    cls = MECHANISMS.get(name)
    if cls is None:
        raise ConfigError(f"unknown mechanism {name!r}; known: {sorted(MECHANISMS)}")
    return cls()


def _current_base_shards(world, registered) -> List[object]:
    """The state's current image re-partitioned at today's shard count.

    Folds any delta chain first, so a rewrite and the split/merge
    primitives — which operate on a base partition — always see a
    single-version, chain-link-zero shard set.
    """
    snapshot = world.manager.recovered_snapshot(registered.state_name)
    num_shards = registered.plan.num_shards
    if len(snapshot) == 0 and snapshot.size_bytes > 0:
        # Synthetic state: carry the byte size forward, bump the version
        # so the rewrite is distinguishable from the image it folded.
        version = StateVersion(world.sim.now, snapshot.version.sequence + 1)
        return partition_synthetic(
            registered.state_name, int(snapshot.size_bytes), num_shards, version
        )
    return partition_snapshot(snapshot, num_shards)


def _resident_replicas(registered, node=None):
    """``(plan, placed)`` per non-standby replica its (alive) node still holds.

    ``node`` restricts the scan to one node. Standby copies are pinned to
    their standby node; they are warm capacity, not load to shed or move.
    """
    if registered.plan is None:
        return
    for link in registered.plan.links:
        plan = link.plan
        for placed in list(plan.placements):
            if getattr(placed.replica, "standby", False):
                continue
            holder = placed.node
            if node is not None and holder.node_id != node.node_id:
                continue
            if holder.alive and holder.get_shard(placed.replica.key) is not None:
                yield plan, placed


@register_action
class RecoverState(Action):
    """Recover an owner-lost state onto a replacement node.

    ``mechanism`` (param) pins a mechanism by name; otherwise the manager
    runs the Fig. 7 selection heuristic for the state. :meth:`begin`
    starts the recovery and returns the handle without driving the
    simulator — the chaos engine uses it so mid-recovery fault injectors
    still see the recovery in flight; :meth:`execute` is the synchronous
    form the controller's sweep uses.
    """

    name = "recover"

    def begin(self, world, diagnosis: Diagnosis, replacement=None, parent_span=None):
        state_name = diagnosis.state
        registered = world.manager.states[state_name]
        if replacement is None:
            replacement = world.overlay.replacement_for(registered.owner)
        pinned = self.params.get("mechanism")
        impl = (
            _mechanism_instance(pinned)
            if pinned is not None
            else world.manager.mechanism_for(state_name)
        )
        return world.manager.recover(
            state_name,
            replacement=replacement,
            mechanism=impl,
            parent_span=parent_span,
        )

    def execute(self, world, diagnosis: Diagnosis, parent_span=None) -> ActionOutcome:
        registered, failure = self._saved_state(world, diagnosis.state)
        if failure is not None:
            return failure
        if registered.owner.alive:
            return self._ok(changed=False, owner=registered.owner.name)
        try:
            handle = self.begin(world, diagnosis, parent_span=parent_span)
            world.sim.run_until_idle()
            result = handle.result
        except (ReproError, OverlayError) as exc:
            return self._fail(str(exc))
        return self._ok(
            changed=True,
            mechanism=result.mechanism,
            replacement=result.replacement,
            duration_s=round(result.duration, 6),
        )


@register_action
class RecoverDegraded(Action):
    """Recover every dead-owner state a telemetry alert implicates.

    An SLO alert names a *symptom* (p99 burning, replay lag climbing),
    not a corpse; this action turns the symptom into recoveries by
    scanning the registry for states whose owner is dead — all of them
    when the alert carries no subject binding, just the bound state when
    it does. Parameters (``mechanism``) forward to :class:`RecoverState`.
    :meth:`begin_all` is the non-blocking form for embeddings that own
    the event loop (the live driver via :meth:`Controller.poll`);
    :meth:`execute` drives the simulator to quiescence like every other
    synchronous action.
    """

    name = "recover-degraded"

    def begin_all(self, world, diagnosis: Diagnosis, parent_span=None):
        """Start one recovery per implicated dead-owner state; no blocking.

        Returns ``[(state_name, handle), ...]`` — empty when the alert
        implicates nothing currently recoverable (the owner lives, or
        nothing was ever saved).
        """
        recover = RecoverState(**self.params)
        begun = []
        for registered in _implicated_states(world, diagnosis):
            if registered.plan is None or registered.owner.alive:
                continue
            state_name = registered.state_name
            sub = Diagnosis(
                condition="owner-lost",
                severity="critical",
                detected_at=diagnosis.detected_at,
                state=state_name,
                evidence=(
                    ("owner", registered.owner.name),
                    ("trigger", diagnosis.condition),
                ),
            )
            begun.append(
                (
                    state_name,
                    recover.begin(world, sub, parent_span=parent_span),
                )
            )
        return begun

    def execute(self, world, diagnosis: Diagnosis, parent_span=None) -> ActionOutcome:
        try:
            begun = self.begin_all(world, diagnosis, parent_span=parent_span)
        except (ReproError, OverlayError) as exc:
            return self._fail(str(exc))
        if not begun:
            return self._ok(changed=False)
        world.sim.run_until_idle()
        return self._ok(
            changed=True,
            recovered=len(begun),
            states=",".join(name for name, _ in begun),
        )


@register_action
class ReReplicate(Action):
    """Copy thin segments back up to the configured replication factor."""

    name = "re-replicate"

    def execute(self, world, diagnosis: Diagnosis, parent_span=None) -> ActionOutcome:
        state_name = diagnosis.state
        registered, failure = self._saved_state(world, state_name)
        if failure is not None:
            return failure
        plans = [link.plan for link in registered.plan.links]
        pending: Dict[str, int] = {}
        copies = 0
        for plan in plans:
            for index in plan.shard_indexes():
                providers = plan.providers_for(index)
                if len(providers) >= registered.num_replicas:
                    continue
                if not providers:
                    return self._fail(
                        f"segment {index} of {state_name!r} has no surviving "
                        f"replica; only a full recovery from another source "
                        f"can help"
                    )
                source = providers[0]
                held = {p.replica.replica_index for p in providers}
                occupied = _occupied(plan, index)
                for replica_index in range(registered.num_replicas):
                    if replica_index in held:
                        continue
                    target = _pick_target(world, occupied, pending)
                    if target is None:
                        return self._fail(
                            f"no eligible node left to host a replica of "
                            f"segment {index} of {state_name!r}"
                        )
                    replica = ShardReplica(
                        source.replica.shard, replica_index, registered.num_replicas
                    )
                    _copy_replica(world, source.node, target, replica, parent_span)
                    plan.placements.append(PlacedShard(replica, target))
                    occupied.add(target.node_id)
                    pending[target.name] = pending.get(target.name, 0) + 1
                    copies += 1
        if copies == 0:
            return self._ok(changed=False)
        world.sim.run_until_idle()
        for plan in plans:
            for index in plan.shard_indexes():
                if len(plan.providers_for(index)) < registered.num_replicas:
                    return self._fail(
                        f"segment {index} of {state_name!r} still thin after "
                        f"re-replication"
                    )
        return self._ok(changed=True, copies=copies)


@register_action
class RewriteState(Action):
    """A fresh full save of the reconstructed image (resets the chain)."""

    name = "rewrite"

    def _rewrite(self, world, registered) -> ActionOutcome:
        result, failure = self._resave(world, registered)
        return failure or self._ok(
            changed=True,
            chain_length=registered.plan.length,
            duration_s=round(result.duration, 6),
        )

    def execute(self, world, diagnosis: Diagnosis, parent_span=None) -> ActionOutcome:
        registered, failure = self._saved_state(world, diagnosis.state, "rewriting")
        return failure or self._rewrite(world, registered)


@register_action
class CompactChain(RewriteState):
    """Fold a too-long version chain into a fresh single-link base."""

    name = "compact-chain"

    def execute(self, world, diagnosis: Diagnosis, parent_span=None) -> ActionOutcome:
        registered, failure = self._saved_state(world, diagnosis.state, "rewriting")
        if registered is not None and (
            registered.plan is None or registered.plan.length <= 1
        ):
            return self._ok(changed=False)
        return failure or self._rewrite(world, registered)


@register_action
class RebalanceNode(Action):
    """Move replicas off a flagged node.

    A ``flaky-node`` diagnosis (node-scoped) drains every replica the node
    holds for registered states; a ``hot-shard`` diagnosis (state +
    node) moves only the excess above the state's per-node mean.
    """

    name = "rebalance"

    def _moves_for(self, world, node, diagnosis: Diagnosis) -> List[Tuple[object, object, PlacedShard]]:
        moves: List[Tuple[object, object, PlacedShard]] = []
        for registered in _implicated_states(world, diagnosis):
            held = sorted(
                _resident_replicas(registered, node),
                key=lambda pair: repr(pair[1].replica.key),
            )
            keep = 0
            if diagnosis.condition == "hot-shard":
                # Only shed the excess above the state's per-node mean.
                counts: Dict[str, int] = {}
                for _plan, placed in _resident_replicas(registered):
                    counts[placed.node.name] = counts.get(placed.node.name, 0) + 1
                if counts:
                    keep = int(math.ceil(sum(counts.values()) / len(counts)))
            for plan, placed in held[keep:]:
                moves.append((registered, plan, placed))
        return moves

    def execute(self, world, diagnosis: Diagnosis, parent_span=None) -> ActionOutcome:
        node = _node_by_name(world, diagnosis.node)
        if node is None or not node.alive:
            return self._ok(changed=False)
        moves = self._moves_for(world, node, diagnosis)
        if not moves:
            return self._ok(changed=False)
        pending: Dict[str, int] = {}
        moved = 0
        for registered, plan, placed in moves:
            replica = placed.replica
            target = _pick_target(
                world, _occupied(plan, replica.shard.index), pending
            )
            if target is None:
                return self._fail(
                    f"no eligible node to absorb {replica.key!r} from {node.name}"
                )

            def relocated(
                flow,
                key=replica.key,
                rep=replica,
                src=node,
                dst=target,
                the_plan=plan,
                old=placed,
            ) -> None:
                dst.store_shard(key, rep)
                src.drop_shard(key)
                the_plan.placements.remove(old)
                the_plan.placements.append(PlacedShard(rep, dst))

            world.network.transfer(
                node.host,
                target.host,
                replica.size_bytes,
                on_complete=relocated,
                tag=CONTROL_TAG,
                parent_span=parent_span,
            )
            pending[target.name] = pending.get(target.name, 0) + 1
            moved += 1
        world.sim.run_until_idle()
        leftovers = self._moves_for(world, node, diagnosis)
        if leftovers:
            return self._fail(
                f"{len(leftovers)} replicas still on {node.name} after rebalance"
            )
        return self._ok(changed=True, moved=moved, drained=node.name)


@register_action
class EvictNode(Action):
    """Drain a chronically degraded node, then remove it from the ring."""

    name = "evict-node"

    def execute(self, world, diagnosis: Diagnosis, parent_span=None) -> ActionOutcome:
        node = _node_by_name(world, diagnosis.node)
        if node is None or not node.alive:
            return self._ok(changed=False)
        owners = [
            name
            for name in sorted(world.manager.states)
            if world.manager.states[name].owner.node_id == node.node_id
        ]
        if owners:
            return self._fail(
                f"{node.name} owns {owners}; recover or migrate ownership "
                f"before eviction"
            )
        drain = RebalanceNode().execute(world, diagnosis, parent_span=parent_span)
        if not drain.ok:
            return self._fail(f"drain failed: {drain.error}")
        world.overlay.fail_node(node, repair=True)
        world.sim.run_until_idle()
        return self._ok(changed=True, evicted=node.name)


@register_action
class SplitShard(Action):
    """Split the hottest shard of a state in two (``m`` → ``m + 1``).

    The target defaults to the state's largest shard; a policy can pin
    ``shard_index`` explicitly. Keys divide by the next hash bit, so the
    halves land deterministically and later saves re-scatter them.
    """

    name = "split-shard"

    def execute(self, world, diagnosis: Diagnosis, parent_span=None) -> ActionOutcome:
        registered, failure = self._saved_state(
            world, diagnosis.state, "repartitioning"
        )
        if failure is not None:
            return failure
        index = self.params.get("shard_index")
        if index is None:
            hottest = max(
                registered.shards, key=lambda s: (s.size_bytes, -s.index)
            )
            index = hottest.index
        index = int(index)
        result, failure = self._resave(
            world, registered, lambda shards: split_shard(shards, index)
        )
        return failure or self._ok(
            changed=True,
            num_shards=len(registered.shards),
            duration_s=round(result.duration, 6),
            split_index=index,
        )


@register_action
class MergeShards(Action):
    """Merge two cold shards into one (``m`` → ``m - 1``).

    The pair comes from the ``shard-cold`` diagnosis evidence when
    available (the two smallest cold shards), else the two smallest
    shards overall; ``index_a``/``index_b`` params pin it explicitly.
    A state already at two shards is left alone — merging further would
    erase the parallelism every recovery mechanism feeds on.
    """

    name = "merge-shards"

    def _pick_pair(self, diagnosis: Diagnosis, registered) -> Tuple[int, int]:
        a = self.params.get("index_a")
        b = self.params.get("index_b")
        if a is not None and b is not None:
            low, high = sorted((int(a), int(b)))
            return low, high
        by_size = {s.index: s.size_bytes for s in registered.shards}
        evidence = dict(diagnosis.evidence)
        cold = [i for i in evidence.get("cold_shards", ()) if i in by_size]
        pool = cold if len(cold) >= 2 else sorted(by_size)
        ranked = sorted(pool, key=lambda i: (by_size[i], i))
        low, high = sorted(ranked[:2])
        return low, high

    def execute(self, world, diagnosis: Diagnosis, parent_span=None) -> ActionOutcome:
        registered, failure = self._saved_state(
            world, diagnosis.state, "repartitioning"
        )
        if failure is not None:
            return failure
        if len(registered.shards) <= 2:
            return self._ok(changed=False, num_shards=len(registered.shards))
        low, high = self._pick_pair(diagnosis, registered)
        result, failure = self._resave(
            world, registered, lambda shards: merge_shard_pair(shards, low, high)
        )
        return failure or self._ok(
            changed=True,
            num_shards=len(registered.shards),
            duration_s=round(result.duration, 6),
            merged=f"{low}+{high}",
        )


@register_action
class MigrateShard(Action):
    """Move one replica of the heaviest shard off a flagged node.

    The surgical alternative to :class:`RebalanceNode`: a single replica
    of the node's largest resident shard rides a live network flow to the
    least-loaded eligible node, preserving checksums, versions, and the
    chain (no re-save, no ground-truth re-anchor). Standby copies are
    never migrated — they are pinned to their standby node.
    """

    name = "migrate-shard"

    def execute(self, world, diagnosis: Diagnosis, parent_span=None) -> ActionOutcome:
        node = _node_by_name(world, diagnosis.node)
        if node is None or not node.alive:
            return self._ok(changed=False)
        best = None
        for registered in _implicated_states(world, diagnosis):
            for plan, placed in _resident_replicas(registered, node):
                rank = (placed.replica.size_bytes, repr(placed.replica.key))
                if best is None or rank > best[0]:
                    best = (rank, plan, placed)
        if best is None:
            return self._ok(changed=False)
        _, plan, placed = best
        shard_index = placed.replica.shard.index
        target = _pick_target(world, _occupied(plan, shard_index), {})
        if target is None:
            return self._fail(
                f"no eligible node to absorb shard {shard_index} from {node.name}"
            )
        try:
            migrate_replica(
                world.network,
                plan,
                shard_index,
                node,
                target,
                tag=CONTROL_TAG,
                parent_span=parent_span,
            )
        except ReproError as exc:
            return self._fail(str(exc))
        world.sim.run_until_idle()
        return self._ok(
            changed=True,
            shard=shard_index,
            source=node.name,
            target=target.name,
            bytes=round(placed.replica.size_bytes, 3),
        )


@register_action
class PromoteStandby(Action):
    """Flip ownership to the warm standby, or re-warm a lagging one.

    Dead owner: the standby node becomes the replacement and the standby
    mechanism takes over (warm segments are already local, so the
    takeover is a flip plus tail replay). Live owner (the
    ``standby-lagging`` case): the standby merely fell behind — an
    incremental :func:`~repro.recovery.standby.sync_standby` ships only
    the missing segments.
    """

    name = "promote-standby"

    def execute(self, world, diagnosis: Diagnosis, parent_span=None) -> ActionOutcome:
        state_name = diagnosis.state
        registered, failure = self._saved_state(world, state_name)
        if failure is not None:
            return failure
        standby = standby_node_of(registered)
        if standby is None:
            return self._fail(f"state {state_name!r} has no provisioned standby")
        if not registered.owner.alive:
            try:
                handle = world.manager.recover(
                    state_name,
                    replacement=standby,
                    mechanism=StandbyRecovery(),
                    parent_span=parent_span,
                )
                world.sim.run_until_idle()
                result = handle.result
            except (ReproError, OverlayError) as exc:
                return self._fail(str(exc))
            return self._ok(
                changed=True,
                promoted=standby.name,
                mechanism=result.mechanism,
                duration_s=round(result.duration, 6),
            )
        covered, total = standby_coverage(registered, standby)
        if total and covered == total:
            return self._ok(changed=False, standby=standby.name)
        try:
            sync = sync_standby(
                world.manager.ctx, registered, standby, parent_span=parent_span
            )
            world.sim.run_until_idle()
            report = sync.result
        except ReproError as exc:
            return self._fail(str(exc))
        return self._ok(
            changed=True,
            standby=standby.name,
            copied_segments=report.copied_segments,
            copied_bytes=round(report.copied_bytes, 3),
        )


__all__ = [
    "ACTIONS",
    "Action",
    "ActionOutcome",
    "CompactChain",
    "CONTROL_TAG",
    "EvictNode",
    "MergeShards",
    "MigrateShard",
    "PromoteStandby",
    "ReReplicate",
    "RebalanceNode",
    "RecoverDegraded",
    "RecoverState",
    "RewriteState",
    "SplitShard",
    "build_action",
    "register_action",
]
