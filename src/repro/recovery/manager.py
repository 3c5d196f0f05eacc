"""The recovery manager: tracks saved states and orchestrates recoveries.

This is the runtime face of SR3: applications register their states, the
manager runs save rounds against the overlay, watches for node failures,
selects a mechanism per application (Sec. 3.7), and drives the recovery of
every state lost in a failure — including multiple simultaneous failures,
where independent recoveries proceed in parallel on disjoint provider
sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.dht.node import DhtNode
from repro.errors import OverlayError, RecoveryError, StateError
from repro.recovery.line import LineRecovery
from repro.state.chain import CompactionPolicy, VersionChain, reconstruct_chain
from repro.state.partitioner import merge_shards
from repro.state.store import StateSnapshot
from repro.recovery.model import (
    RecoveryContext,
    RecoveryHandle,
    RecoveryResult,
    run_handles,
)
from repro.recovery.save import SaveHandle, sr3_save
from repro.recovery.selection import (
    SelectionInputs,
    build_mechanism,
)
from repro.recovery.standby import StandbyRecovery
from repro.recovery.star import StarRecovery
from repro.recovery.tree import TreeRecovery
from repro.state.placement import LeafSetPlacement
from repro.state.shard import Shard

MechanismImpl = Union[StarRecovery, LineRecovery, TreeRecovery, StandbyRecovery]


@dataclass
class RegisteredState:
    """One application state under SR3 protection."""

    state_name: str
    owner: DhtNode
    shards: List[Shard]
    num_replicas: int
    latency_sensitive: bool = True
    # The saved state: built by the first full save, extended by delta
    # rounds, reset in place whenever a full save lands; None until then.
    plan: Optional[VersionChain] = None
    last_save_duration: Optional[float] = None

    @property
    def state_bytes(self) -> float:
        return float(sum(s.size_bytes for s in self.shards))


@dataclass
class RecoveryManager:
    """Registry + orchestration for save and recovery."""

    ctx: RecoveryContext
    placement: object = field(default_factory=LeafSetPlacement)
    bandwidth_constrained: bool = False
    compaction: CompactionPolicy = field(default_factory=CompactionPolicy)
    states: Dict[str, RegisteredState] = field(default_factory=dict)
    # Last recovery handle per state; a save round must not overlap an
    # in-flight recovery of the same state (the plan it would replace is
    # the one the mechanism is reading).
    active_recoveries: Dict[str, RecoveryHandle] = field(default_factory=dict)

    # ------------------------------------------------------------- register

    def register(
        self,
        owner: DhtNode,
        shards: Sequence[Shard],
        num_replicas: int = 2,
        latency_sensitive: bool = True,
    ) -> RegisteredState:
        """Put one state under SR3 protection (not yet saved)."""
        if not shards:
            raise StateError("cannot register a state with zero shards")
        name = shards[0].state_name
        if name in self.states:
            raise StateError(f"state {name!r} is already registered")
        registered = RegisteredState(
            state_name=name,
            owner=owner,
            shards=list(shards),
            num_replicas=num_replicas,
            latency_sensitive=latency_sensitive,
        )
        self.states[name] = registered
        return registered

    def refresh_shards(self, state_name: str, shards: Sequence[Shard]) -> None:
        """Replace a registered state's shards ahead of the next save round.

        Long-running operators keep mutating their state; every periodic
        save re-partitions the current snapshot and refreshes the registry
        before writing.
        """
        if not shards:
            raise StateError("cannot refresh with zero shards")
        registered = self._get(state_name)
        if shards[0].state_name != state_name:
            raise StateError(
                f"shards belong to {shards[0].state_name!r}, not {state_name!r}"
            )
        registered.shards = list(shards)

    # ----------------------------------------------------------------- save

    def _check_no_active_recovery(self, state_name: str) -> None:
        handle = self.active_recoveries.get(state_name)
        if handle is not None and not handle.done:
            raise RecoveryError(
                f"cannot save {state_name!r}: a {handle.mechanism} recovery of "
                f"that state is still in flight"
            )

    def save(self, state_name: str) -> SaveHandle:
        """Start a full save round for one registered state.

        Resets the state's version chain to a fresh base and garbage
        collects replicas of the superseded chain that the new placement
        no longer covers.
        """
        registered = self._get(state_name)
        self._check_no_active_recovery(state_name)
        # Snapshot the superseded chain's placements now: the chain object
        # itself is reset in-place once the new base lands.
        stale = []
        if registered.plan is not None:
            stale = [
                (placed.node, placed.replica.key)
                for placed in registered.plan.placements
            ]
        handle = sr3_save(
            self.ctx,
            registered.owner,
            registered.shards,
            registered.num_replicas,
            self.placement,
        )

        def record(result) -> None:
            registered.last_save_duration = result.duration
            if registered.plan is None:
                registered.plan = VersionChain(state_name, registered.shards, result.plan)
            else:
                registered.plan.reset(registered.shards, result.plan)
            self._collect_stale_replicas(stale, result.plan)

        handle.on_done(record)
        return handle

    def save_delta(self, state_name: str, delta_shards: Sequence[Shard]) -> SaveHandle:
        """Start an incremental save round, or fall back to a full one.

        Ships only ``delta_shards`` (the changed keys since the chain tip)
        when the chain can safely grow; otherwise — no chain yet, the
        compaction policy would be violated, the owner moved since the
        base was placed, or any chain replica was lost — the round is
        promoted to a full save (``registered.shards`` must already hold
        the current full partition) and the chain resets.
        """
        registered = self._get(state_name)
        self._check_no_active_recovery(state_name)
        delta_bytes = sum(s.size_bytes for s in delta_shards)
        if not self._can_extend_chain(registered, delta_bytes):
            return self.save(state_name)
        chain = registered.plan
        handle = sr3_save(
            self.ctx,
            registered.owner,
            delta_shards,
            registered.num_replicas,
            self.placement,
            mode="delta",
            chain_len=chain.length + 1,
        )

        def record(result) -> None:
            chain.append_delta(delta_shards, result.plan)
            registered.last_save_duration = result.duration

        handle.on_done(record)
        return handle

    def _can_extend_chain(self, registered: RegisteredState, delta_bytes: float) -> bool:
        chain = registered.plan
        if chain is None:
            return False
        if chain.needs_compaction(self.compaction, extra_delta_bytes=int(delta_bytes)):
            return False
        base_owner = chain.owner
        if base_owner is None or base_owner.node_id != registered.owner.node_id:
            return False  # placement changed: the chain belongs to another owner
        # Replica loss anywhere in the chain degrades redundancy below the
        # configured factor — rewrite a full base rather than stack more
        # deltas on a weakened foundation.
        return all(
            len(chain.providers_for(segment)) >= registered.num_replicas
            for segment in chain.shard_indexes()
        )

    def _collect_stale_replicas(self, stale, new_plan) -> None:
        """Drop superseded-chain replicas that the new plan reuses nowhere.

        ``stale`` is a list of ``(node, key)`` pairs captured before the
        save was issued. Pairs the new placement re-wrote (same node, same
        key) are kept — ``store_shard`` already replaced their payload.
        """
        kept = {
            (placed.node.node_id, placed.replica.key)
            for placed in new_plan.placements
        }
        for node, key in stale:
            if (node.node_id, key) not in kept:
                node.drop_shard(key)

    def save_all(self) -> List[SaveHandle]:
        return [self.save(name) for name in sorted(self.states)]

    # ------------------------------------------------------------- recovery

    def mechanism_for(self, state_name: str) -> MechanismImpl:
        """Select and configure the mechanism for one state (Fig. 7)."""
        registered = self._get(state_name)
        mechanism = build_mechanism(
            SelectionInputs(
                state_bytes=registered.state_bytes,
                latency_sensitive=registered.latency_sensitive,
                bandwidth_constrained=self.bandwidth_constrained,
            )
        )
        if mechanism is None:
            raise RecoveryError(f"state {state_name!r} resolved as stateless")
        return mechanism

    def recover(
        self,
        state_name: str,
        replacement: Optional[DhtNode] = None,
        mechanism: Optional[MechanismImpl] = None,
    ) -> RecoveryHandle:
        """Start recovering one state onto a replacement node.

        When the handle resolves the replacement owns the state: the next
        save round writes from it, and its death is the next owner loss.
        A recovery that fails leaves the owner where it was.
        """
        registered = self._get(state_name)
        if registered.plan is None:
            raise RecoveryError(f"state {state_name!r} was never saved")
        if replacement is None:
            if registered.owner.alive:
                raise RecoveryError(
                    f"owner of {state_name!r} is alive; pass a replacement explicitly"
                )
            try:
                replacement = self.ctx.overlay.replacement_for(registered.owner)
            except OverlayError as exc:
                raise RecoveryError(
                    f"state {state_name!r}: owner {registered.owner.name} is dead "
                    f"and no replacement node is available (no alive nodes left "
                    f"in the overlay); add a spare node or pass a replacement "
                    f"explicitly"
                ) from exc
        chosen = mechanism or self.mechanism_for(state_name)
        self.ctx.sim.tracer.instant(
            f"recover {state_name} via {chosen.name}",
            category="recovery.request",
            state=state_name,
            mechanism=chosen.name,
            replacement=replacement.name,
        )
        self.ctx.sim.metrics.counter("recovery.started").add(1, label=chosen.name)
        handle = chosen.start(self.ctx, registered.plan, replacement, state_name)
        self.active_recoveries[state_name] = handle

        def handover(_result) -> None:
            registered.owner = replacement

        handle.on_done(handover)
        return handle

    def on_failures(self, failed: Sequence[DhtNode]) -> List[RecoveryHandle]:
        """React to (possibly simultaneous) node failures.

        Every registered state owned by a failed node is recovered onto
        the node that takes over its key range; recoveries run in parallel
        inside the simulation.
        """
        failed_ids = {node.node_id for node in failed}
        handles: List[RecoveryHandle] = []
        for name in sorted(self.states):
            registered = self.states[name]
            if registered.owner.node_id in failed_ids:
                handles.append(self.recover(name))
        return handles

    def run(self, handles: List[RecoveryHandle]) -> List[RecoveryResult]:
        """Drive the simulation until the given recoveries complete."""
        return run_handles(self.ctx.sim, handles)

    def recovered_snapshot(self, state_name: str) -> StateSnapshot:
        """Rebuild the state image from whatever replicas survive.

        Chain-aware: when the chain has delta links, surviving segments
        are replayed base-then-deltas in version order; a lone base merges
        shard by shard.
        """
        registered = self._get(state_name)
        if registered.plan is None:
            raise RecoveryError(f"state {state_name!r} was never saved")
        shards = registered.plan.available_shards()
        if any(s.chain_link for s in shards):
            return reconstruct_chain(shards)
        return merge_shards(shards)

    def _get(self, state_name: str) -> RegisteredState:
        try:
            return self.states[state_name]
        except KeyError:
            raise StateError(f"unknown state {state_name!r}") from None
