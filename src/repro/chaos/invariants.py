"""Post-run invariant checkers: what "survived" actually means.

After a fault campaign runs to quiescence, these checkers audit the final
world state. Each returns a list of violation messages (empty = pass).
``hard`` checkers turn a run into **failed**; ``soft`` checkers (latency)
only degrade it — the recovery finished correctly, just slowly.

The checkers deliberately read ground truth — shard checksums captured
before the failures, the overlay's live membership, the network's flow
ledger — rather than anything the recovery path reports about itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar, Dict, List

from repro.errors import ReproError
from repro.state.chain import chain_digest

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.chaos.campaign import RunContext


@dataclass(frozen=True)
class InvariantChecker:
    """Base: one post-run assertion over the final world state."""

    name: ClassVar[str] = ""
    severity: ClassVar[str] = "hard"  # "hard" -> failed, "soft" -> degraded

    def check(self, run: "RunContext") -> List[str]:  # pragma: no cover
        raise NotImplementedError


@dataclass(frozen=True)
class StateIntegrity(InvariantChecker):
    """Recovered state byte-equals the pre-failure snapshot.

    For every state that completed recovery: the result must account for
    every shard of the pre-failure snapshot, and every replica still
    stored anywhere must carry the checksum captured at save time — the
    image the recovery read is exactly the image that was saved. (Replicas
    lost *after* the recovery completed — e.g. to ongoing churn — are a
    durability concern, not an integrity violation.) Applies to the DHT
    mechanisms only; the checkpointing baseline restores from remote
    storage, outside the shard stores.
    """

    name: ClassVar[str] = "state-integrity"

    def check(self, run: "RunContext") -> List[str]:
        if run.mechanism == "checkpointing":
            return []
        violations: List[str] = []
        for state_name in sorted(run.results):
            registered = run.engine.manager.states.get(state_name)
            if registered is None or registered.plan is None:
                violations.append(f"{state_name}: recovered without a plan")
                continue
            expected = run.pre_checksums.get(state_name, {})
            result = run.results[state_name]
            if result.shards_recovered != len(expected):
                violations.append(
                    f"{state_name}: recovery accounted for "
                    f"{result.shards_recovered} shards, snapshot had "
                    f"{len(expected)}"
                )
            for index in sorted(expected):
                for placed in registered.plan.providers_for(index):
                    checksum = placed.replica.shard.checksum
                    if checksum != expected[index]:
                        violations.append(
                            f"{state_name}: shard {index} replica on "
                            f"{placed.node.name} drifted "
                            f"({checksum[:12]} != {expected[index][:12]})"
                        )
        return violations


@dataclass(frozen=True)
class NoOrphanedReplicas(InvariantChecker):
    """Every stored replica belongs to a registered placement plan.

    Churn, joins, and restarted recoveries must not leave replica blobs on
    nodes that no plan accounts for — those would never be garbage
    collected nor served.
    """

    name: ClassVar[str] = "no-orphaned-replicas"

    def check(self, run: "RunContext") -> List[str]:
        expected = set()
        for registered in run.engine.manager.states.values():
            if registered.plan is None:
                continue
            for placed in registered.plan.placements:
                expected.add((placed.node.node_id, placed.replica.key))
        violations: List[str] = []
        for node in run.engine.overlay.nodes:
            for key in node.shard_store:
                if (node.node_id, key) not in expected:
                    violations.append(
                        f"{node.name}: orphaned replica {key!r} not in any plan"
                    )
        return violations


@dataclass(frozen=True)
class RingConsistency(InvariantChecker):
    """Leaf sets of alive nodes contain no dead members after repair."""

    name: ClassVar[str] = "ring-consistency"

    def check(self, run: "RunContext") -> List[str]:
        violations: List[str] = []
        alive = run.engine.overlay.alive_nodes()
        if not alive:
            return ["overlay has no alive nodes left"]
        for node in alive:
            for member in node.leaf_set.members():
                if not member.alive:
                    violations.append(
                        f"{node.name}: dead node {member.name} still in leaf set"
                    )
        return violations


@dataclass(frozen=True)
class FlowAccounting(InvariantChecker):
    """Every flow ever started either completed or aborted; none leaked."""

    name: ClassVar[str] = "flow-accounting"

    def check(self, run: "RunContext") -> List[str]:
        network = run.engine.network
        metrics = run.engine.sim.metrics
        started = metrics.counter("net.flows_started").total
        completed = metrics.counter("net.flows_completed").total
        aborted = metrics.counter("net.flows_aborted").total
        violations: List[str] = []
        if started != completed + aborted:
            violations.append(
                f"flow ledger out of balance: {started:.0f} started != "
                f"{completed:.0f} completed + {aborted:.0f} aborted"
            )
        in_flight = network.in_flight_flows()
        if in_flight:
            violations.append(f"{in_flight} flows still in flight at quiescence")
        if network.partitioned:
            violations.append("network still partitioned at quiescence")
        return violations


@dataclass(frozen=True)
class RecoveryLatency(InvariantChecker):
    """Soft bound: recoveries finish within the scenario's latency budget."""

    name: ClassVar[str] = "recovery-latency"
    severity: ClassVar[str] = "soft"

    def check(self, run: "RunContext") -> List[str]:
        bound = run.scenario.latency_bound
        violations: List[str] = []
        for state_name in sorted(run.results):
            duration = run.results[state_name].duration
            if duration > bound:
                violations.append(
                    f"{state_name}: recovery took {duration:.1f}s "
                    f"(bound {bound:.1f}s)"
                )
        return violations


@dataclass(frozen=True)
class ChainChecksumConsistent(InvariantChecker):
    """Chain-reconstructed state byte-matches the unfailed run's ground truth.

    After any campaign recovery, reassembling each state's version chain
    (base shard set plus every delta round, applied in version order) must
    yield exactly the pre-failure image: the digest over every surviving
    chain segment, the chain length, the reconstructed tip snapshot's size
    and version all have to match what :meth:`ChaosEngine.setup_states`
    captured before a single fault was injected. Catches chain corruption
    the per-replica checksum audit cannot see — a replayed-out-of-order
    delta, a dropped tombstone, a truncated chain after a mid-recovery
    re-failure.
    """

    name: ClassVar[str] = "chain-checksum-consistent"

    def check(self, run: "RunContext") -> List[str]:
        if run.mechanism == "checkpointing":
            return []
        violations: List[str] = []
        for state_name in sorted(run.results):
            expected = run.pre_state.get(state_name)
            registered = run.engine.manager.states.get(state_name)
            if expected is None or registered is None or registered.plan is None:
                continue
            try:
                segments = registered.plan.available_shards()
                digest = chain_digest(segments)
                snapshot = run.engine.manager.recovered_snapshot(state_name)
            except ReproError as exc:
                violations.append(
                    f"{state_name}: chain reconstruction failed ({exc})"
                )
                continue
            if digest != expected["digest"]:
                violations.append(
                    f"{state_name}: chain digest drifted "
                    f"({digest[:12]} != {str(expected['digest'])[:12]})"
                )
            if snapshot.size_bytes != expected["size_bytes"]:
                violations.append(
                    f"{state_name}: reconstructed snapshot is "
                    f"{snapshot.size_bytes} bytes, ground truth was "
                    f"{expected['size_bytes']}"
                )
            if repr(snapshot.version) != expected["version"]:
                violations.append(
                    f"{state_name}: reconstructed tip version "
                    f"{snapshot.version!r} != ground truth {expected['version']}"
                )
        return violations


DEFAULT_CHECKERS = (
    StateIntegrity(),
    ChainChecksumConsistent(),
    NoOrphanedReplicas(),
    RingConsistency(),
    FlowAccounting(),
    RecoveryLatency(),
)


@dataclass
class InvariantReport:
    """Checker results for one run, split by severity."""

    hard_violations: Dict[str, List[str]] = field(default_factory=dict)
    soft_violations: Dict[str, List[str]] = field(default_factory=dict)


def check_invariants(run: "RunContext") -> InvariantReport:
    """Run every checker against the final world state."""
    report = InvariantReport()
    for checker in DEFAULT_CHECKERS:
        violations = checker.check(run)
        if not violations:
            continue
        bucket = (
            report.hard_violations
            if checker.severity == "hard"
            else report.soft_violations
        )
        bucket[checker.name] = violations
    return report
