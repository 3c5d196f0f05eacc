"""Turning observations into named, actionable conditions.

A :class:`Diagnosis` is the control plane's unit of work: one condition
(from :data:`CONDITIONS`), one subject (a protected state or an overlay
node), a severity, and the evidence that justified it; it is the only
record the controller takes in. The :func:`diagnose` scan reads the
*actual* world — the recovery manager's registry, placement plans,
version chains, the overlay's membership, the failure detector's
declarations, the network's per-host capacity — so a dead node whose
state has since been recovered produces no diagnosis.

Conditions, in the order the paper's operational story motivates them:

- ``owner-lost`` — a registered state's owner is dead; the state is
  unreachable until a recovery lands it on a replacement (critical).
- ``replica-thin`` — some chain segment has fewer alive providers than
  the configured replication factor; one more failure may make the state
  unrecoverable (critical when any segment has a single provider left).
- ``flaky-node`` — an alive node's host runs far below its nominal link
  capacity while holding shard replicas; reads through it drag every
  recovery that touches it.
- ``hot-shard`` — one node holds :data:`HOT_SHARD_FACTOR` times a
  state's per-node mean replica count (and at least four replicas);
  losing it would thin many segments at once.

The telemetry conditions ``slo-burning`` and ``metric-anomaly`` come from
alerts, not from the scan: :func:`slo_diagnosis` and
:func:`anomaly_diagnosis` convert an :class:`~repro.obs.slo.SLOAlert` or
an :class:`~repro.obs.anomaly.Anomaly`, since no world scan can
reproduce a burn rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: Every condition the diagnosis scan can produce. The first four come
#: from the world scan; the last two are telemetry-driven (the ordering is
#: load-bearing: it is the controller's work order within a severity).
CONDITIONS = (
    "owner-lost",
    "replica-thin",
    "flaky-node",
    "hot-shard",
    "slo-burning",
    "metric-anomaly",
)

#: A node holding this multiple of a state's per-node mean replica count
#: is a hot shard.
HOT_SHARD_FACTOR = 3.0

_SEVERITY_RANK = {"critical": 0, "warning": 1}


@dataclass(frozen=True)
class Diagnosis:
    """One named condition with its subject and supporting evidence."""

    condition: str
    severity: str  # "critical" | "warning"
    detected_at: float
    state: Optional[str] = None
    node: Optional[str] = None
    evidence: Tuple[Tuple[str, object], ...] = ()

    @property
    def subject(self) -> str:
        """What the policy table matches on: the state, else the node."""
        return self.state if self.state is not None else (self.node or "")


def _detection_time(world, node, default: float) -> float:
    """When the failure of ``node`` was first declared, if a detector ran."""
    if world.detector is not None:
        declared = world.detector.detected_by_anyone(node)
        if declared is not None:
            return declared
    return default


def slo_diagnosis(alert) -> Diagnosis:
    """An :class:`~repro.obs.slo.SLOAlert` as a ``slo-burning`` diagnosis."""
    return Diagnosis(
        condition="slo-burning",
        severity=alert.severity,
        detected_at=alert.at,
        state=alert.state,
        evidence=(
            ("slo", alert.slo),
            ("series", alert.series),
            ("severity", alert.severity),
            ("burn_long", round(alert.burn_long, 6)),
            ("burn_short", round(alert.burn_short, 6)),
            ("long_s", alert.long_s),
            ("short_s", alert.short_s),
        ),
    )


def anomaly_diagnosis(anomaly) -> Diagnosis:
    """An :class:`~repro.obs.anomaly.Anomaly` as a ``metric-anomaly`` diagnosis."""
    return Diagnosis(
        condition="metric-anomaly",
        severity="warning",
        detected_at=anomaly.at,
        evidence=(
            ("series", anomaly.series),
            ("anomaly", anomaly.kind),
            ("value", round(anomaly.value, 6)),
            ("score", round(anomaly.score, 6)),
            ("baseline", round(anomaly.baseline, 6)),
        ),
    )


def _diagnose_owner_lost(world, out: List[Diagnosis]) -> None:
    manager = world.manager
    detector = world.detector
    for name in sorted(manager.states):
        registered = manager.states[name]
        if registered.owner.alive or registered.plan is None:
            continue
        if detector is not None and detector.detected_by_anyone(registered.owner) is None:
            # A deployment that runs a detector learns about deaths through
            # it: the scan must not cheat past the heartbeat protocol by
            # reading ground-truth liveness the control plane cannot know.
            continue
        out.append(
            Diagnosis(
                condition="owner-lost",
                severity="critical",
                detected_at=_detection_time(world, registered.owner, world.sim.now),
                state=name,
                evidence=(("owner", registered.owner.name),),
            )
        )


def _diagnose_replica_thin(world, out: List[Diagnosis]) -> None:
    manager = world.manager
    for name in sorted(manager.states):
        registered = manager.states[name]
        chain = registered.plan
        if chain is None:
            continue
        alive = [len(chain.providers_for(s)) for s in chain.shard_indexes()]
        thin = [count for count in alive if count < registered.num_replicas]
        if not thin:
            continue
        floor = min(thin)
        out.append(
            Diagnosis(
                condition="replica-thin",
                severity="critical" if floor <= 1 else "warning",
                detected_at=world.sim.now,
                state=name,
                evidence=(
                    ("thin_segments", len(thin)),
                    ("min_providers", floor),
                    ("num_replicas", registered.num_replicas),
                ),
            )
        )


def _diagnose_flaky_node(world, out: List[Diagnosis]) -> None:
    by_host: Dict[str, float] = {
        host.name: fraction for host, fraction in world.network.degraded_hosts()
    }
    if not by_host:
        return
    for node in sorted(world.overlay.alive_nodes(), key=lambda n: n.name):
        fraction = by_host.get(node.host.name)
        if fraction is None or not node.shard_store:
            continue
        out.append(
            Diagnosis(
                condition="flaky-node",
                severity="warning",
                detected_at=world.sim.now,
                node=node.name,
                evidence=(
                    ("bw_fraction", round(fraction, 6)),
                    ("replicas_held", len(node.shard_store)),
                ),
            )
        )


def _diagnose_hot_shard(world, out: List[Diagnosis]) -> None:
    manager = world.manager
    for name in sorted(manager.states):
        registered = manager.states[name]
        if registered.plan is None:
            continue
        counts: Dict[str, int] = {}
        nodes_by_name: Dict[str, object] = {}
        for placed in registered.plan.placements:
            if not placed.node.alive:
                continue
            if placed.node.get_shard(placed.replica.key) is None:
                continue
            if getattr(placed.replica, "standby", False):
                # A warm standby concentrates segments by design; that is
                # provisioning, not skew to disperse.
                continue
            counts[placed.node.name] = counts.get(placed.node.name, 0) + 1
            nodes_by_name[placed.node.name] = placed.node
        if len(counts) < 2:
            continue
        mean = sum(counts.values()) / len(counts)
        for node_name in sorted(counts):
            held = counts[node_name]
            if held >= HOT_SHARD_FACTOR * mean and held >= 4:
                out.append(
                    Diagnosis(
                        condition="hot-shard",
                        severity="warning",
                        detected_at=world.sim.now,
                        state=name,
                        node=node_name,
                        evidence=(
                            ("replicas_held", held),
                            ("mean_per_node", round(mean, 6)),
                        ),
                    )
                )


def diagnose(world, alerts: Sequence[Diagnosis] = ()) -> List[Diagnosis]:
    """Scan the world for remediable conditions, alongside fresh ``alerts``.

    Returns a deterministic list: critical conditions first, then by
    condition name and subject — the order the controller works in.
    ``alerts`` are the telemetry diagnoses :meth:`Controller.observe
    <repro.control.controller.Controller.observe>` returns; a
    detector-declared failure dates an ``owner-lost`` diagnosis at
    declaration time, not scan time.
    """
    out: List[Diagnosis] = list(alerts)
    _diagnose_owner_lost(world, out)
    _diagnose_replica_thin(world, out)
    _diagnose_flaky_node(world, out)
    _diagnose_hot_shard(world, out)
    out.sort(
        key=lambda d: (
            _SEVERITY_RANK.get(d.severity, 9),
            CONDITIONS.index(d.condition),
            d.subject,
            d.node or "",
        )
    )
    return out


__all__ = ["CONDITIONS", "Diagnosis", "anomaly_diagnosis", "diagnose", "slo_diagnosis"]
