"""The saved-state record against the one it replaced.

A saved state used to be held twice: ``RegisteredState.plan`` (one save
round's flat ``PlacementPlan`` after a full save, a ``ChainPlan`` view
after a delta) beside ``RegisteredState.chain``, with ``link_plans()``
choosing between them. It is now one ``VersionChain`` held in ``plan``.

``ReferenceVersionChain``, ``ReferenceChainPlan`` and
``ReferenceRegisteredState`` are the classes of the commit before, moved
here verbatim apart from their names and the members nothing here reads
(``nodes``, ``store_all``, ``state_bytes``, ``for_shard``, the reprs).
``ReferenceRecord`` holds that commit's manager bookkeeping: what a
landed full or delta save wrote, when a delta could extend the chain, and
how the image was rebuilt.
The reference is fed the same save results as the live manager, so both
records point at the same placements. Seeded sequences of full saves,
deltas, compaction fallbacks, ownership moves, node deaths,
re-replication and standby syncs must leave both
answering every placement query alike, after every step.
"""

import random
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import pytest

from repro.control.actions import ReReplicate
from repro.control.controller import ControlPlane
from repro.control.diagnose import Diagnosis
from repro.dht.node import DhtNode
from repro.errors import ReproError, ShardError, VersionConflictError
from repro.recovery.deployment import build_deployment
from repro.recovery.standby import sync_standby
from repro.recovery.star import StarRecovery
from repro.state.chain import (
    ChainLink,
    CompactionPolicy,
    VersionChain,
    chain_digest,
    diff_snapshots,
    partition_delta,
    reconstruct_chain,
)
from repro.state.partitioner import (
    check_reconstruction_set,
    merge_shards,
    partition_snapshot,
)
from repro.state.placement import PlacementPlan
from repro.state.shard import DeltaShard, Shard
from repro.state.store import StateSnapshot
from repro.state.version import StateVersion

STATE = "app/state"
SHARDS = 4
REPLICAS = 3

# ------------------------------------------------- the parent's structures


class ReferenceVersionChain:
    """The ordered base + delta history of one protected state."""

    def __init__(self, state_name: str) -> None:
        self.state_name = state_name
        self.links: List[ChainLink] = []

    @property
    def length(self) -> int:
        return len(self.links)

    @property
    def num_shards(self) -> int:
        if not self.links:
            raise ShardError(f"chain for {self.state_name!r} has no base link")
        return self.links[0].shards[0].num_shards

    @property
    def tip_version(self) -> StateVersion:
        if not self.links:
            raise ShardError(f"chain for {self.state_name!r} has no base link")
        return self.links[-1].version

    @property
    def base_bytes(self) -> int:
        return self.links[0].bytes if self.links else 0

    @property
    def delta_bytes(self) -> int:
        return sum(link.bytes for link in self.links[1:])

    def reset(self, base_shards: Sequence[Shard], plan: Any) -> None:
        """Start a fresh chain from a full save round."""
        shards = sorted(base_shards, key=lambda s: s.index)
        version = check_reconstruction_set(shards)
        if any(s.chain_link != 0 for s in shards):
            raise ShardError("a chain base must be built from link-0 shards")
        self.links = [ChainLink("base", version, list(shards), plan)]

    def append_delta(self, delta_shards: Sequence[Shard], plan: Any) -> None:
        """Append one delta save round against the current tip."""
        if not self.links:
            raise ShardError(
                f"chain for {self.state_name!r} has no base to delta against"
            )
        shards = sorted(delta_shards, key=lambda s: s.index)
        version = check_reconstruction_set(shards)
        tip = self.tip_version
        link_pos = len(self.links)
        for shard in shards:
            if not isinstance(shard, DeltaShard):
                raise ShardError(f"chain deltas must be DeltaShards, got {shard!r}")
            if shard.parent_version != tip:
                raise VersionConflictError(
                    f"delta parent {shard.parent_version!r} does not match "
                    f"chain tip {tip!r}"
                )
            if shard.chain_link != link_pos:
                raise ShardError(
                    f"delta link {shard.chain_link} out of order; expected {link_pos}"
                )
        self.links.append(ChainLink("delta", version, list(shards), plan))

    def needs_compaction(
        self, policy: CompactionPolicy, extra_delta_bytes: int = 0
    ) -> bool:
        """Would appending another delta round violate the policy?"""
        if not self.links:
            return True
        if self.length + 1 > policy.max_chain_len:
            return True
        base = self.base_bytes
        if base <= 0:
            return True
        ratio = (self.delta_bytes + extra_delta_bytes) / base
        return ratio > policy.max_delta_ratio

    def all_shards(self) -> List[Shard]:
        return [s for link in self.links for s in link.shards]


class ReferenceChainPlan:
    """A whole chain exposed through the PlacementPlan interface.

    Global segment index ``k * m + i`` maps to shard ``i`` of link ``k``,
    so the base occupies segments ``0..m-1`` and the j-th delta round
    ``j*m..j*m+m-1``. Mechanisms iterate ``shard_indexes()`` and query
    ``providers_for()`` exactly as they would on a flat plan.
    """

    def __init__(self, chain: ReferenceVersionChain) -> None:
        if not chain.links:
            raise ShardError(f"chain for {chain.state_name!r} has no base link")
        self.chain = chain

    @property
    def owner(self):
        return self.chain.links[0].plan.owner

    @property
    def num_shards(self) -> int:
        return self.chain.num_shards

    @property
    def chain_length(self) -> int:
        return self.chain.length

    @property
    def delta_bytes(self) -> int:
        return self.chain.delta_bytes

    @property
    def placements(self) -> List[Any]:
        return [p for link in self.chain.links for p in link.plan.placements]

    def _locate(self, segment: int) -> Tuple[Any, int]:
        m = self.num_shards
        link_pos, index = divmod(segment, m)
        if not 0 <= link_pos < self.chain.length:
            raise ShardError(
                f"segment {segment} out of range for a {self.chain.length}-link "
                f"chain of {m} shards"
            )
        return self.chain.links[link_pos].plan, index

    def providers_for(self, segment: int) -> List[Any]:
        plan, index = self._locate(segment)
        return plan.providers_for(index)

    def shard_indexes(self) -> List[int]:
        return list(range(self.chain.length * self.num_shards))

    def available_shards(self) -> List[Shard]:
        """One surviving shard object per segment, if any replica survives."""
        result: List[Shard] = []
        for segment in self.shard_indexes():
            providers = self.providers_for(segment)
            if providers:
                result.append(providers[0].replica.shard)
        return result


@dataclass
class ReferenceRegisteredState:
    """One application state under SR3 protection."""

    state_name: str
    owner: DhtNode
    shards: List[Shard]
    num_replicas: int
    latency_sensitive: bool = True
    plan: Optional[PlacementPlan] = None
    last_save_duration: Optional[float] = None
    # Version chain behind the plan: set by the first full save, extended
    # by delta rounds, reset whenever a full save lands.
    chain: Optional[ReferenceVersionChain] = None

    def link_plans(self) -> List[PlacementPlan]:
        """The flat placement plans behind this state, base first.

        A chain-backed state exposes one flat plan per link; a flat state
        exposes its single plan. A state never saved (plan ``None``) yields
        an empty list — there is nothing placed to reason about.
        """
        if self.chain is not None and self.chain.links:
            return [link.plan for link in self.chain.links]
        if self.plan is None:
            return []
        return [self.plan]


class ReferenceRecord:
    """The parent manager's bookkeeping of one state, fed the live saves."""

    def __init__(self, live) -> None:
        self.live = live
        self.registered = ReferenceRegisteredState(
            live.state_name, live.owner, list(live.shards), live.num_replicas
        )

    def sync(self) -> None:
        """Carry over what the manager changes outside a save's record."""
        self.registered.owner = self.live.owner
        self.registered.shards = list(self.live.shards)

    def full_landed(self, result) -> None:
        registered = self.registered
        registered.plan = result.plan
        registered.last_save_duration = result.duration
        chain = registered.chain or ReferenceVersionChain(registered.state_name)
        chain.reset(registered.shards, result.plan)
        registered.chain = chain

    def delta_landed(self, chain, delta_shards, result) -> None:
        chain.append_delta(delta_shards, result.plan)
        self.registered.plan = ReferenceChainPlan(chain)
        self.registered.last_save_duration = result.duration

    def can_extend_chain(self, delta_bytes: float, compaction: CompactionPolicy) -> bool:
        registered = self.registered
        chain = registered.chain
        if chain is None or not chain.links:
            return False
        if chain.needs_compaction(compaction, extra_delta_bytes=int(delta_bytes)):
            return False
        base_owner = chain.links[0].plan.owner
        if base_owner is None or base_owner.node_id != registered.owner.node_id:
            return False  # placement changed: the chain belongs to another owner
        for link in chain.links:
            for index in link.plan.shard_indexes():
                if len(link.plan.providers_for(index)) < registered.num_replicas:
                    return False
        return True

    def recovered_snapshot(self) -> StateSnapshot:
        shards = self.registered.plan.available_shards()
        if any(s.chain_link for s in shards):
            return reconstruct_chain(shards)
        return merge_shards(shards)


# ------------------------------------------------------------- the driver


def _image(fn) -> Tuple[Any, ...]:
    """A rebuilt snapshot, or the error rebuilding it raised, as plain data."""
    try:
        snapshot = fn()
    except ReproError as exc:
        return ("error", type(exc).__name__, str(exc))
    return ("ok", sorted(snapshot.items()), snapshot.version, snapshot.size_bytes)


def assert_same_record(manager, reference: ReferenceRecord, step: str) -> None:
    chain = manager.states[STATE].plan
    ref = reference.registered.plan
    where = f"after {step}"
    assert chain.shard_indexes() == ref.shard_indexes(), where
    for segment in ref.shard_indexes():
        assert chain.providers_for(segment) == ref.providers_for(segment), where
    assert chain.available_shards() == ref.available_shards(), where
    assert chain.placements == ref.placements, where
    assert chain.owner is ref.owner, where
    assert chain.length == getattr(ref, "chain_length", 1), where
    assert float(chain.delta_bytes) == float(getattr(ref, "delta_bytes", 0.0)), where
    assert [link.plan for link in chain.links] == reference.registered.link_plans(), where
    assert _image(lambda: manager.recovered_snapshot(STATE)) == _image(
        reference.recovered_snapshot
    ), where
    assert chain_digest(chain.available_shards()) == chain_digest(
        ref.available_shards()
    ), where


class Run:
    """One seeded run: a deployment, a materialized state and its reference."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.deployment = build_deployment(num_nodes=32, seed=seed, leaf_set_size=16)
        self.manager = self.deployment.manager
        self.manager.compaction = CompactionPolicy(max_chain_len=3, max_delta_ratio=0.5)
        self.sim = self.deployment.sim
        self.entries: Dict[str, int] = {f"key-{i}": i for i in range(48)}
        self.sequence = 1
        self.landed = self.snapshot()
        shards = partition_snapshot(self.landed, SHARDS)
        self.live = self.manager.register(self.deployment.overlay.nodes[0], shards, REPLICAS)
        self.reference = ReferenceRecord(self.live)
        self.events: Counter = Counter()

    def snapshot(self) -> StateSnapshot:
        return StateSnapshot(STATE, dict(self.entries), StateVersion(self.sim.now, self.sequence))

    def mutate(self, changes: int) -> StateSnapshot:
        """Change ``changes`` keys (insert, update or delete); the new image."""
        for _ in range(changes):
            key = f"key-{self.rng.randrange(64)}"
            if key in self.entries and self.rng.random() < 0.25:
                del self.entries[key]
            else:
                self.entries[key] = self.rng.randrange(1000)
        self.sequence += 1
        current = self.snapshot()
        self.manager.refresh_shards(STATE, partition_snapshot(current, SHARDS))
        return current

    def run(self) -> None:
        self.sim.run_until_idle()

    # ----------------------------------------------------------------- steps

    def full_save(self) -> None:
        current = self.mutate(self.rng.randint(1, 6))
        self.reference.sync()
        handle = self.manager.save(STATE)
        handle.on_done(self.reference.full_landed)
        self.run()
        self.landed = current
        self.events["full save"] += 1

    def save_delta(self, changes: int) -> None:
        current = self.mutate(changes)
        self.reference.sync()
        changed, deletions = diff_snapshots(self.landed, current)
        delta = partition_delta(
            STATE,
            changed,
            deletions,
            SHARDS,
            current.version,
            self.landed.version,
            self.live.plan.length,
        )
        delta_bytes = sum(s.size_bytes for s in delta)
        extend = self.reference.can_extend_chain(delta_bytes, self.manager.compaction)
        reason = self._fallback_reason(delta_bytes)
        handle = self.manager.save_delta(STATE, delta)
        if extend:
            chain = self.reference.registered.chain
            handle.on_done(lambda result: self.reference.delta_landed(chain, delta, result))
        else:
            handle.on_done(self.reference.full_landed)
        self.run()
        assert handle.result.mode == ("delta" if extend else "full")
        self.landed = current
        self.events["delta" if extend else f"delta promoted to full: {reason}"] += 1

    def move_owner(self) -> None:
        """Kill the owner and recover onto its replacement; ownership moves."""
        if not self._survivable(self.live.owner):
            return
        self.deployment.overlay.fail_node(self.live.owner)
        handle = self.manager.recover(STATE, mechanism=StarRecovery())
        self.run()
        assert handle.result.replacement == self.live.owner.name
        self.reference.sync()
        self.events["owner moved"] += 1

    def fail_node(self) -> None:
        holders = sorted(
            {p.node.name: p.node for p in self.live.plan.placements if p.node.alive}.values(),
            key=lambda n: n.name,
        )
        holders = [
            n for n in holders if n is not self.live.owner and self._survivable(n)
        ]
        if holders:
            self.deployment.overlay.fail_node(self.rng.choice(holders))
            self.run()
            self.events["fail_node"] += 1

    def re_replicate(self) -> None:
        world = ControlPlane(self.deployment)
        diagnosis = Diagnosis("replica-thin", "warning", self.sim.now, state=STATE)
        outcome = ReReplicate().execute(world, diagnosis)
        self.events["re-replicate" if outcome.changed else "re-replicate no-op"] += 1

    def sync_standby(self) -> None:
        standby = self.rng.choice(
            [n for n in self.deployment.overlay.alive_nodes() if n is not self.live.owner]
        )
        sync_standby(self.deployment.ctx, self.live, standby)
        self.run()
        self.events["sync_standby"] += 1

    def _fallback_reason(self, delta_bytes: float) -> str:
        chain = self.reference.registered.chain
        if chain.needs_compaction(self.manager.compaction, int(delta_bytes)):
            return "compaction"
        if chain.links[0].plan.owner is not self.live.owner:
            return "owner moved"
        return "replica lost"

    def _survivable(self, node) -> bool:
        """Whether every segment keeps an alive provider once ``node`` dies."""
        chain = self.live.plan
        return all(
            any(p.node is not node for p in chain.providers_for(segment))
            for segment in chain.shard_indexes()
        )


def check_sequence(seed: int, steps: int = 20) -> Counter:
    """Drive one seeded sequence; assert both records agree after each step."""
    run = Run(seed)
    run.full_save()
    assert_same_record(run.manager, run.reference, "the first save")
    for _ in range(steps):
        step = run.rng.choice(
            ["delta", "delta", "delta", "big delta", "full", "owner", "fail",
             "re-replicate", "standby"]
        )
        if step == "delta":
            run.save_delta(run.rng.randint(1, 4))
        elif step == "big delta":
            run.save_delta(40)  # past the compaction ratio
        elif step == "full":
            run.full_save()
        elif step == "owner":
            run.move_owner()
        elif step == "fail":
            run.fail_node()
        elif step == "re-replicate":
            run.re_replicate()
        else:
            run.sync_standby()
        assert_same_record(run.manager, run.reference, step)
    return run.events


SEEDS = range(40)


@pytest.mark.parametrize("seed", SEEDS)
def test_one_chain_answers_like_the_records_it_replaced(seed):
    check_sequence(seed)


def test_the_sequences_reach_every_step():
    events: Counter = Counter()
    for seed in SEEDS:
        events.update(check_sequence(seed))
    assert set(events) >= {
        "full save",
        "delta",
        "delta promoted to full: compaction",
        "delta promoted to full: owner moved",
        "delta promoted to full: replica lost",
        "owner moved",
        "fail_node",
        "re-replicate",
        "sync_standby",
    }, events


def _caught(seeds=SEEDS) -> bool:
    try:
        for seed in seeds:
            check_sequence(seed)
    except AssertionError:
        return True
    return False


def test_a_view_that_reorders_providers_is_caught(monkeypatch):
    providers_for = VersionChain.providers_for
    monkeypatch.setattr(
        VersionChain, "providers_for", lambda self, s: providers_for(self, s)[::-1]
    )
    assert _caught()


def test_a_view_that_drops_the_last_link_is_caught(monkeypatch):
    def shard_indexes(self):
        return list(range(max(1, self.length - 1) * self.num_shards))

    monkeypatch.setattr(VersionChain, "shard_indexes", shard_indexes)
    assert _caught()
