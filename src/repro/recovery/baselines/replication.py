"""Replication recovery (Flux, Borealis).

"The system maintains a completely separate set of hot failover nodes,
which processes the same stream in parallel with the primary set ... the
failover is fast and it can handle multiple failures. However, the
replication recovery scheme doubles the hardware requirement" (Sec. 2.2).

Recovery is a near-instant switchover; the cost shows up as hardware:
every protected operator permanently occupies a standby node, and every
input record is delivered twice (continuous network duplication).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.dht.node import DhtNode
from repro.errors import RecoveryError
from repro.recovery.model import RecoveryContext, RecoveryHandle, RecoverySession


@dataclass(frozen=True)
class ReplicationConfig:
    """Constants of the hot-standby scheme."""

    # Heartbeat miss detection plus the switchover handshake.
    failover_delay: float = 0.8
    # Hardware multiplier relative to an unreplicated deployment.
    hardware_factor: float = 2.0


class ReplicationBaseline:
    """Hot-standby replication: fast failover, 2x hardware."""

    name = "replication"

    def __init__(self, ctx: RecoveryContext) -> None:
        self.ctx = ctx
        self.config = ReplicationConfig()
        self._standbys: Dict[str, DhtNode] = {}

    def protect(self, primary: DhtNode, standby: DhtNode) -> None:
        """Dedicate ``standby`` as the hot failover of ``primary``."""
        if primary.node_id == standby.node_id:
            raise RecoveryError("standby must be a distinct node")
        self._standbys[primary.name] = standby

    def recover(self, primary: DhtNode, state_bytes: float) -> RecoveryHandle:
        """Fail over to the standby: no state movement, tiny fixed delay."""
        state_name = "replicated-state"
        standby = self._standbys.get(primary.name)
        if standby is None:
            raise RecoveryError(f"{primary.name} has no standby registered")
        if not standby.alive:
            raise RecoveryError(
                f"standby {standby.name} of {primary.name} has also failed"
            )
        session = RecoverySession(
            self.ctx.sim,
            self.name,
            state_name,
            standby,
            "baseline/replication-failover",
            state=state_name,
            primary=primary.name,
            standby=standby.name,
        )
        self.ctx.sim.schedule(
            self.config.failover_delay,
            session.finish,
            state_bytes,
            1,
            1,
            {"hardware_factor": self.config.hardware_factor},
        )
        return session.handle
