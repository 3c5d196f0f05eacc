"""Failure injection: node crashes and shard loss.

The paper evaluates failure tolerance "with methods that use human
intervention ... we deliberately remove some shards of application's state
in some nodes" (Sec. 5.2, Fig. 10). This module reproduces both styles:
whole-node crashes (which abort in-flight transfers and trigger overlay
repair) and targeted shard removal (which exercises the recovery paths
without disturbing the overlay).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.errors import SimulationError
from repro.sim.kernel import Simulator
from repro.sim.network import Host, Network


@dataclass
class FailureRecord:
    """One injected failure, kept for post-run auditing."""

    time: float
    kind: str
    target: str
    detail: str = ""


@dataclass
class FailureInjector:
    """Schedules crashes and shard-loss events against a simulation.

    Victim selection is driven by ``seed`` so that failure timing and
    placement follow the same seed as the rest of the experiment.
    """

    sim: Simulator
    network: Network
    seed: int = 0
    records: List[FailureRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.rng = random.Random(self.seed)

    def crash_at(
        self,
        time: float,
        host: Host,
        on_crash: Optional[Callable[[Host], None]] = None,
    ) -> None:
        """Crash ``host`` at absolute virtual time ``time``."""
        if time < self.sim.now:
            raise SimulationError("cannot schedule a crash in the past")

        def _do_crash() -> None:
            if not host.alive:
                return
            self.network.fail_host(host)
            self.records.append(FailureRecord(self.sim.now, "crash", host.name))
            if on_crash is not None:
                on_crash(host)

        self.sim.schedule_at(time, _do_crash)

    def crash_many_at(
        self,
        time: float,
        hosts: Sequence[Host],
        on_crash: Optional[Callable[[Host], None]] = None,
    ) -> None:
        """Crash several hosts simultaneously (the multi-failure scenario)."""
        for host in hosts:
            self.crash_at(time, host, on_crash)

    def pick_victims(self, candidates: Sequence[Host], count: int) -> List[Host]:
        """Choose ``count`` distinct crash victims uniformly at random."""
        alive = [h for h in candidates if h.alive]
        if count > len(alive):
            raise SimulationError(
                f"cannot pick {count} victims from {len(alive)} alive hosts"
            )
        return self.rng.sample(alive, count)

    def lose_shards_at(
        self,
        time: float,
        description: str,
        action: Callable[[], None],
    ) -> None:
        """Schedule a shard-loss event; ``action`` performs the removal.

        The state layer supplies the action (it knows which stores hold the
        shards); the injector only provides timing and the audit trail.
        """

        def _do_loss() -> None:
            action()
            self.records.append(
                FailureRecord(self.sim.now, "shard_loss", description)
            )

        self.sim.schedule_at(time, _do_loss)

    def crashes(self) -> List[FailureRecord]:
        return [r for r in self.records if r.kind == "crash"]

    def shard_losses(self) -> List[FailureRecord]:
        return [r for r in self.records if r.kind == "shard_loss"]
