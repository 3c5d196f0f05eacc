"""Composable, seed-deterministic fault injectors.

Each injector is a frozen dataclass describing one fault pattern — a wave
of crashes, a correlated rack outage, Poisson churn, a network partition,
bandwidth degradation, a straggling node, or a re-crash aimed at an
in-flight recovery. ``arm(engine)`` schedules the pattern's events on the
engine's virtual clock; all randomness flows through the engine's seeded
RNG, so the same scenario seed always produces the same fault timeline.

Injectors never touch the overlay directly: crashes go through
:meth:`repro.chaos.campaign.ChaosEngine.crash_node` (which runs overlay
repair and starts recoveries) and network faults go through the
:class:`~repro.sim.network.Network` chaos hooks (partition/heal and
per-host bandwidth control).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Dict, List, Type

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.chaos.campaign import ChaosEngine
    from repro.dht.node import DhtNode


@dataclass(frozen=True)
class Injector:
    """Base: one declarative fault pattern; ``arm(engine)`` schedules its events."""

    kind: ClassVar[str] = ""


@dataclass(frozen=True)
class CrashWave(Injector):
    """Crash ``count`` state owners at ``at`` (so recoveries start), each
    as its own event at that instant."""

    kind: ClassVar[str] = "crash_wave"

    at: float = 5.0
    count: int = 1

    def __post_init__(self) -> None:
        if self.count < 1:
            raise SimulationError("crash wave needs at least one victim")

    def arm(self, engine: "ChaosEngine") -> None:
        def fire() -> None:
            for node in engine.pick(engine.owner_nodes(), self.count):
                engine.sim.schedule(0.0, engine.crash_node, node)

        engine.sim.schedule(self.at, fire)


@dataclass(frozen=True)
class RackFailure(Injector):
    """Correlated failure: a node and its nearest ring neighbours die together.

    Leaf-set placement puts replicas on ring neighbours ("within the same
    rack", Sec. 3.4), so this is the scenario that kills a state owner
    *and* some of its replica holders in one blast.
    """

    kind: ClassVar[str] = "rack_failure"

    at: ClassVar[float] = 5.0
    size: ClassVar[int] = 3

    def arm(self, engine: "ChaosEngine") -> None:
        def fire() -> None:
            owners = engine.owner_nodes()
            if not owners:
                return
            center = engine.pick(owners, 1)[0]
            rack: List["DhtNode"] = [center]
            for neighbour in center.leaf_set.members():
                if len(rack) >= self.size:
                    break
                if neighbour.alive:
                    rack.append(neighbour)
            for node in rack:
                engine.crash_node(node)

        engine.sim.schedule(self.at, fire)


@dataclass(frozen=True)
class PoissonChurn(Injector):
    """Memoryless churn: crashes at ``rate`` per second over a window.

    Victims come from the non-owner population; ``rejoin_delay`` after
    every departure a fresh node joins the overlay, so membership stays
    roughly stable while identities keep changing.
    """

    kind: ClassVar[str] = "poisson_churn"

    start: ClassVar[float] = 2.0
    rejoin_delay: ClassVar[float] = 4.0
    duration: float = 20.0
    rate: float = 0.2

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise SimulationError("churn rate must be positive")
        if self.duration <= 0:
            raise SimulationError("churn duration must be positive")

    def arm(self, engine: "ChaosEngine") -> None:
        deadline = engine.sim.now + self.start + self.duration
        engine.sim.schedule(
            self.start + engine.rng.expovariate(self.rate),
            self.next_event, engine, deadline,
        )

    def next_event(self, engine: "ChaosEngine", deadline: float) -> None:
        if engine.sim.now >= deadline:
            return
        pool = engine.bystander_nodes()
        if pool:
            victim = engine.pick(pool, 1)[0]
            engine.crash_node(victim)
            engine.sim.schedule(self.rejoin_delay, engine.join_node)
        engine.sim.schedule(
            engine.rng.expovariate(self.rate), self.next_event, engine, deadline
        )


@dataclass(frozen=True)
class NetworkPartition(Injector):
    """Cut a random ``fraction`` of hosts off, heal after ``heal_after``.

    In-flight transfers across the cut abort; recoveries must retry
    (riding out the partition within their backoff budget) or fail.
    """

    kind: ClassVar[str] = "network_partition"

    fraction: ClassVar[float] = 0.3
    at: float = 4.0
    heal_after: float = 10.0

    def __post_init__(self) -> None:
        if self.heal_after <= 0:
            raise SimulationError("heal_after must be positive")

    def arm(self, engine: "ChaosEngine") -> None:
        def fire() -> None:
            alive = [n for n in engine.overlay.alive_nodes()]
            count = max(1, int(len(alive) * self.fraction))
            group = engine.pick(alive, min(count, len(alive)))
            engine.network.partition([n.host for n in group])
            engine.sim.schedule(self.heal_after, engine.network.heal_partition)

        engine.sim.schedule(self.at, fire)


@dataclass(frozen=True)
class BandwidthFlap(Injector):
    """Periodic degradation: random hosts drop to ``factor`` of their
    bandwidth for ``period`` seconds, ``cycles`` times in a row."""

    kind: ClassVar[str] = "bandwidth_flap"

    factor: ClassVar[float] = 0.1
    cycles: ClassVar[int] = 2
    at: float = 2.0
    hosts: int = 2
    period: float = 5.0

    def __post_init__(self) -> None:
        if self.hosts < 1:
            raise SimulationError("hosts must be at least 1")

    def arm(self, engine: "ChaosEngine") -> None:
        engine.sim.schedule(self.at, self.flap, engine, 0)

    def flap(self, engine: "ChaosEngine", cycle: int) -> None:
        victims = engine.pick(engine.overlay.alive_nodes(), self.hosts)
        originals = [(n.host, n.host.up_bw, n.host.down_bw) for n in victims]
        for host, up, down in originals:
            engine.network.set_host_bandwidth(host, up * self.factor, down * self.factor)
        engine.sim.schedule(self.period, self.restore, engine, cycle, originals)

    def restore(self, engine: "ChaosEngine", cycle: int, originals) -> None:
        for host, up, down in originals:
            if host.alive:
                engine.network.set_host_bandwidth(host, up, down)
        if cycle + 1 < self.cycles:
            self.flap(engine, cycle + 1)


@dataclass(frozen=True)
class Straggler(Injector):
    """Permanent slow nodes: bandwidth drops to ``factor`` and stays there.

    The Sec. 6 motivation for speculation — a straggling provider delays
    recovery by its full slowdown unless backup fetches race it.
    """

    kind: ClassVar[str] = "straggler"

    at: ClassVar[float] = 0.5
    hosts: int = 1
    factor: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 < self.factor <= 1.0:
            raise SimulationError("straggler factor must be in (0, 1]")
        if self.hosts < 1:
            raise SimulationError("hosts must be at least 1")

    def arm(self, engine: "ChaosEngine") -> None:
        def fire() -> None:
            victims = engine.pick(engine.bystander_nodes(), self.hosts)
            for node in victims:
                engine.network.set_host_bandwidth(
                    node.host,
                    node.host.up_bw * self.factor,
                    node.host.down_bw * self.factor,
                )

        engine.sim.schedule(self.at, fire)


@dataclass(frozen=True)
class MidRecoveryCrash(Injector):
    """Recovery-during-recovery: kill a participant of an in-flight recovery.

    Arms a hook on the engine; ``delay`` seconds after a recovery starts,
    the chosen ``target`` dies — ``"provider"`` crashes a replica holder
    serving the transfer (the mechanism must retry from an alternate
    replica), ``"replacement"`` crashes the node being recovered onto (the
    mechanism must fail with a clean ``RecoveryError`` and the engine
    restarts the recovery on a fresh replacement). Fires for the first
    ``times`` recoveries that start.
    """

    kind: ClassVar[str] = "mid_recovery_crash"

    delay: ClassVar[float] = 1.5
    times: ClassVar[int] = 1
    target: str = "provider"

    def __post_init__(self) -> None:
        if self.target not in ("provider", "replacement"):
            raise SimulationError(f"unknown re-crash target {self.target!r}")

    def arm(self, engine: "ChaosEngine") -> None:
        budget = {"left": self.times}

        def on_start(state_name: str, registered, replacement) -> None:
            if budget["left"] <= 0:
                return
            budget["left"] -= 1
            if self.target == "replacement":
                victim = replacement
            else:
                victim = None
                plan = registered.plan
                if plan is not None:
                    for index in plan.shard_indexes():
                        for placed in plan.providers_for(index):
                            if placed.node.node_id != replacement.node_id:
                                victim = placed.node
                                break
                        if victim is not None:
                            break
            if victim is None:
                return
            engine.sim.schedule(self.delay, engine.crash_node, victim)

        engine.on_recovery_start(on_start)


INJECTOR_KINDS: Dict[str, Type[Injector]] = {
    cls.kind: cls
    for cls in (
        CrashWave,
        RackFailure,
        PoissonChurn,
        NetworkPartition,
        BandwidthFlap,
        Straggler,
        MidRecoveryCrash,
    )
}

