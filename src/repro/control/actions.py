"""Remediation actions: what the control plane can actually do.

Every action has the same two halves. ``begin(world, diagnosis, span)``
inspects the *current* world, checks the action's guard and puts its work
in flight without blocking: it returns the :class:`Launch` (the recoveries
or transfers it started) or, when there is nothing to launch, an
:class:`ActionOutcome` (the condition is already gone, or the guard
failed). ``finish(world, diagnosis, launch)`` reads the outcome once the
simulator is quiescent. :meth:`Action.execute` is the blocking form:
begin, drive the simulator to quiescence if something was launched, then
finish — so an outcome reflects landed bytes, not scheduled intentions.
Actions are idempotent, so the controller can retry them freely.

The catalog:

- :class:`RecoverState` (``recover``) — proactive recovery of a state
  whose owner died, through :meth:`RecoveryManager.recover`, using the
  Fig. 7 selection-recommended mechanism unless the policy pins one.
- :class:`RecoverDegraded` (``recover-degraded``) — the telemetry-alert
  form of recovery: scan the registry for states stranded on dead owners
  (all of them, or the one the alert binds) and recover each.
- :class:`ReReplicate` (``re-replicate``) — copy thin chain segments from
  a surviving provider onto fresh nodes until every segment is back at
  the configured replication factor. Copies preserve shard checksums and
  the chain structure (this is *not* a new save round).
- :class:`RebalanceNode` (``rebalance``) — move replicas off a flagged
  node (all of them for a flaky node, the excess for a hot shard).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.control.diagnose import Diagnosis
from repro.errors import ConfigError, ReproError
from repro.recovery.deployment import MECHANISMS
from repro.state.placement import PlacedShard
from repro.state.shard import ShardReplica

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


@dataclass(frozen=True)
class Launch:
    """What a ``begin`` put in flight: recoveries (by state) or transfers."""

    recoveries: Tuple[Tuple[str, object], ...] = ()
    transfers: int = 0


class Action:
    """Base class: a named, parameterized remediation.

    A subclass defines ``begin(world, diagnosis, span)``, which returns a
    :class:`Launch` or an :class:`ActionOutcome` and never drives the
    simulator, and ``finish(world, diagnosis, launch)``, which reads the
    outcome once the simulator is quiescent.
    """

    name = "action"

    def __init__(self, **params) -> None:
        self.params = params

    def execute(self, world, diagnosis: Diagnosis, span=None) -> ActionOutcome:
        """Begin, run to quiescence if anything was launched, then finish."""
        launch = self.begin(world, diagnosis, span)
        if isinstance(launch, ActionOutcome):
            return launch
        world.sim.run_until_idle()
        return self.finish(world, diagnosis, launch)

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

    def _saved_state(self, world, state_name):
        """``(registered, failure)`` for the state a diagnosis names.

        ``failure`` is ``None`` when the state is registered and saved.
        """
        registered = world.manager.states.get(state_name)
        if registered is None:
            return None, self._fail(f"unknown state {state_name!r}")
        if registered.plan is None:
            return registered, self._fail(f"state {state_name!r} was never saved")
        return registered, None


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


def _copy_replica(world, source_node, target_node, replica, span) -> None:
    """Ship one replica's bytes and install it on arrival."""

    def arrived(flow, key=replica.key, rep=replica, node=target_node):
        node.store_shard(key, rep)

    world.network.transfer(
        source_node.host,
        target_node.host,
        replica.size_bytes,
        on_complete=arrived,
        tag=CONTROL_TAG,
        parent_span=span,
    )


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
    """Recover an owner-lost state onto its replacement node.

    ``mechanism`` (param) pins a mechanism by name, checked when the
    action is built; otherwise the manager runs the Fig. 7 selection
    heuristic for the state. The chaos engine and the live driver use the
    non-blocking :meth:`begin` (through the controller), so mid-recovery
    fault injectors and the tuple path still see the recovery in flight.
    """

    name = "recover"

    def __init__(self, **params) -> None:
        super().__init__(**params)
        pinned = params.get("mechanism")
        if pinned is not None and pinned not in MECHANISMS:
            raise ConfigError(
                f"unknown mechanism {pinned!r}; known: {sorted(MECHANISMS)}"
            )

    def _start(self, world, state_name: str) -> Tuple[str, object]:
        pinned = self.params.get("mechanism")
        mechanism = MECHANISMS[pinned]() if pinned is not None else None
        return state_name, world.manager.recover(state_name, mechanism=mechanism)

    def begin(self, world, diagnosis: Diagnosis, span):
        registered, failure = self._saved_state(world, diagnosis.state)
        if failure is not None:
            return failure
        if registered.owner.alive:
            return self._ok(changed=False, owner=registered.owner.name)
        try:
            return Launch(recoveries=(self._start(world, diagnosis.state),))
        except ReproError as exc:
            return self._fail(str(exc))

    def finish(self, world, diagnosis: Diagnosis, launch: Launch) -> ActionOutcome:
        ((_, handle),) = launch.recoveries
        try:
            result = handle.result
        except ReproError as exc:
            return self._fail(str(exc))
        return self._ok(
            changed=True,
            mechanism=result.mechanism,
            replacement=result.replacement,
            duration_s=round(result.duration, 6),
        )


@register_action
class RecoverDegraded(RecoverState):
    """Recover every dead-owner state a telemetry alert implicates.

    An SLO alert names a *symptom* (p99 burning, replay lag climbing),
    not a corpse; this action turns the symptom into recoveries by
    scanning the registry for states whose owner is dead — all of them
    when the alert carries no subject binding, just the bound state when
    it does. ``mechanism`` pins the mechanism as for :class:`RecoverState`.
    """

    name = "recover-degraded"

    def begin(self, world, diagnosis: Diagnosis, span):
        recoveries = []
        try:
            for registered in _implicated_states(world, diagnosis):
                if registered.plan is not None and not registered.owner.alive:
                    recoveries.append(self._start(world, registered.state_name))
        except ReproError as exc:
            return self._fail(str(exc))
        if not recoveries:
            return self._ok(changed=False)
        return Launch(recoveries=tuple(recoveries))

    def finish(self, world, diagnosis: Diagnosis, launch: Launch) -> ActionOutcome:
        return self._ok(
            changed=True,
            recovered=len(launch.recoveries),
            states=",".join(name for name, _ in launch.recoveries),
        )


@register_action
class ReReplicate(Action):
    """Copy thin segments back up to the configured replication factor."""

    name = "re-replicate"

    def begin(self, world, diagnosis: Diagnosis, span):
        state_name = diagnosis.state
        registered, failure = self._saved_state(world, state_name)
        if failure is not None:
            return failure
        pending: Dict[str, int] = {}
        copies = 0
        for link in registered.plan.links:
            plan = link.plan
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
                    _copy_replica(world, source.node, target, replica, span)
                    plan.placements.append(PlacedShard(replica, target))
                    occupied.add(target.node_id)
                    pending[target.name] = pending.get(target.name, 0) + 1
                    copies += 1
        if copies == 0:
            return self._ok(changed=False)
        return Launch(transfers=copies)

    def finish(self, world, diagnosis: Diagnosis, launch: Launch) -> ActionOutcome:
        registered = world.manager.states[diagnosis.state]
        for link in registered.plan.links:
            plan = link.plan
            for index in plan.shard_indexes():
                if len(plan.providers_for(index)) < registered.num_replicas:
                    return self._fail(
                        f"segment {index} of {diagnosis.state!r} still thin "
                        f"after re-replication"
                    )
        return self._ok(changed=True, copies=launch.transfers)


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

    def begin(self, world, diagnosis: Diagnosis, span):
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
                parent_span=span,
            )
            pending[target.name] = pending.get(target.name, 0) + 1
            moved += 1
        return Launch(transfers=moved)

    def finish(self, world, diagnosis: Diagnosis, launch: Launch) -> ActionOutcome:
        node = _node_by_name(world, diagnosis.node)
        leftovers = self._moves_for(world, node, diagnosis)
        if leftovers:
            return self._fail(
                f"{len(leftovers)} replicas still on {node.name} after rebalance"
            )
        return self._ok(changed=True, moved=launch.transfers, drained=node.name)


__all__ = [
    "ACTIONS",
    "Action",
    "ActionOutcome",
    "CONTROL_TAG",
    "Launch",
    "ReReplicate",
    "RebalanceNode",
    "RecoverDegraded",
    "RecoverState",
    "build_action",
    "register_action",
]
