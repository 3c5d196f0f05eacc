"""The chaos campaign runner: scenarios × mechanisms → resilience report.

:class:`ChaosEngine` wires a scenario's injectors into a live deployment:
crashes run overlay repair and start recoveries through the
:class:`~repro.recovery.manager.RecoveryManager`, ownership hands over to
the replacement on success, and a recovery whose replacement dies (the
mechanisms surface a clean ``RecoveryError`` for that) is restarted onto a
fresh replacement — recovery-during-recovery, end to end.

:func:`run_campaign` sweeps scenarios across mechanisms (and the
checkpointing baseline), audits every run with the
:mod:`invariant checkers <repro.chaos.invariants>`, and folds the
outcomes into a :class:`ResilienceReport` whose JSON form is byte-identical
for identical seeds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.chaos.invariants import InvariantReport, check_invariants
from repro.chaos.scenario import (
    CAMPAIGNS,
    SR3_MECHANISMS,
    Scenario,
    campaign_scenarios,
)
from repro.dht.node import DhtNode
from repro.errors import OverlayError, ReplacementDiedError, ReproError, SimulationError
from repro.obs.profile import profile_tracers
from repro.recovery.baselines.checkpointing import checkpointing_to_remote_storage
from repro.recovery.deployment import (
    MECHANISMS,
    Deployment,
    HoldsDeployment,
    build_deployment,
    saved_delta,
    saved_state,
)
from repro.recovery.model import RecoveryHandle, RecoveryResult
from repro.sim.failure import FailureLog, FailureRecord
from repro.state.chain import chain_digest
from repro.state.partitioner import partition_synthetic
from repro.state.version import StateVersion

#: How many times the engine re-runs a recovery whose replacement died
#: before writing the state off as lost.
MAX_RECOVERY_RESTARTS = 2


def make_mechanism(name: str):
    """Instantiate the SR3 mechanism behind a campaign mechanism name.

    Returns ``None`` for ``"checkpointing"`` — the baseline recovers
    through :class:`~repro.recovery.baselines.checkpointing` instead of a
    mechanism implementation.
    """
    if name == "checkpointing":
        return None
    if name not in MECHANISMS:
        raise SimulationError(f"unknown mechanism {name!r}")
    return MECHANISMS[name]()


class ChaosEngine(HoldsDeployment):
    """Runs one scenario's fault timeline against one deployment."""

    def __init__(
        self, deployment: Deployment, scenario: Scenario, mechanism: str
    ) -> None:
        self.deployment = deployment
        self.scenario = scenario
        self.mechanism = mechanism
        self.impl = make_mechanism(mechanism)
        # The baseline recovers through its own remote store, not a mechanism.
        self.checkpointing = (
            checkpointing_to_remote_storage(deployment.ctx)
            if self.impl is None
            else None
        )
        # ``Random(str)`` seeds via SHA-512 of the bytes — deterministic
        # across processes, unlike ``hash()``.
        self.rng = random.Random(f"{scenario.name}/{mechanism}/{scenario.seed}")
        self.failures = FailureLog()
        self.handles: Dict[str, RecoveryHandle] = {}
        self.results: Dict[str, RecoveryResult] = {}
        # When a controller is attached (see ``run_scenario(controller=True)``)
        # owner-loss recoveries route through its policy table instead of
        # calling the manager directly, and the catalog doubles as the
        # control plane's adversarial regression suite.
        self.controller = None
        self.errors: List[str] = []
        self.restarts: Dict[str, int] = {}
        self.joins = 0
        # Per-state chain ground truth captured after setup: the digest of
        # every chain segment plus the reconstructed tip snapshot's shape,
        # audited by the chain-checksum-consistent invariant.
        self.pre_state: Dict[str, Dict[str, object]] = {}
        self._recovering: set = set()
        self._hooks: List[Callable[[str, object, DhtNode], None]] = []
        self._crash_counter = self.sim.metrics.counter("chaos.crashes")

    # ------------------------------------------------------------------ world

    def setup_states(self) -> Dict[str, Dict[int, str]]:
        """Register, save, and snapshot every protected state.

        Owners are distinct nodes. For the SR3 mechanisms each state gets
        a base save plus the scenario's ``delta_rounds`` incremental
        rounds, so campaigns recover version chains, not just flat plans.
        Returns the pre-failure ground truth ``{state: {segment_index:
        checksum}}`` (segment = chain_link * num_shards + shard_index)
        the integrity checker audits against after the campaign; richer
        chain ground truth lands in :attr:`pre_state`.
        """
        checksums: Dict[str, Dict[int, str]] = {}
        for i, state_name in enumerate(self.scenario.state_names()):
            owner = self.overlay.nodes[i]
            if self.mechanism == "checkpointing":
                registered = self.manager.register(
                    owner,
                    self._synthetic_shards(state_name),
                    self.scenario.num_replicas,
                )
                self.checkpointing.save(owner, registered.state_bytes)
                self.sim.run_until_idle()
                checksums[state_name] = {
                    shard.index: shard.checksum for shard in registered.shards
                }
                continue
            saved_state(
                self.deployment,
                state_name,
                self.scenario.state_bytes,
                num_shards=self.scenario.num_shards,
                num_replicas=self.scenario.num_replicas,
                owner=owner,
            )
            delta_bytes = self.scenario.state_bytes * self.scenario.delta_fraction
            for _round in range(self.scenario.delta_rounds):
                saved_delta(self.deployment, state_name, delta_bytes)
            checksums[state_name] = self.anchor_ground_truth(state_name)
        return checksums

    def anchor_ground_truth(self, state_name: str) -> Dict[int, str]:
        """Record what ``state_name``'s chain holds *now* as the truth to audit.

        Fills :attr:`pre_state` (segment digest, chain length, tip shape)
        and returns the per-segment checksums.
        """
        chain = self.manager.states[state_name].plan
        snapshot = self.manager.recovered_snapshot(state_name)
        self.pre_state[state_name] = {
            "digest": chain_digest(chain.available_shards()),
            "chain_length": chain.length,
            "size_bytes": snapshot.size_bytes,
            "version": repr(chain.tip_version),
        }
        return {
            link_pos * chain.num_shards + shard.index: shard.checksum
            for link_pos, link in enumerate(chain.links)
            for shard in link.shards
        }

    def _synthetic_shards(self, state_name: str):
        return partition_synthetic(
            state_name,
            int(self.scenario.state_bytes),
            self.scenario.num_shards,
            StateVersion(self.sim.now, 1),
        )

    # ------------------------------------------------------------- injections

    def on_recovery_start(
        self, callback: Callable[[str, object, DhtNode], None]
    ) -> None:
        """Register a hook fired when a recovery starts (mid-recovery faults)."""
        self._hooks.append(callback)

    def owner_nodes(self) -> List[DhtNode]:
        """Alive owners of registered states (crashing one starts a recovery)."""
        seen: Dict[object, DhtNode] = {}
        for name in sorted(self.manager.states):
            owner = self.manager.states[name].owner
            if owner.alive:
                seen[owner.node_id] = owner
        return list(seen.values())

    def bystander_nodes(self) -> List[DhtNode]:
        """Alive nodes that do not currently own a protected state."""
        owners = {n.node_id for n in self.owner_nodes()}
        return [n for n in self.overlay.alive_nodes() if n.node_id not in owners]

    def pick(self, pool: Sequence[DhtNode], count: int) -> List[DhtNode]:
        """Deterministically sample ``count`` nodes from a pool."""
        ordered = sorted(pool, key=lambda n: n.name)
        count = min(count, len(ordered))
        return self.rng.sample(ordered, count) if count else []

    def join_node(self) -> DhtNode:
        """A fresh node joins the overlay (the churn replacement path)."""
        node = self.overlay.add_node()
        self.joins += 1
        return node

    def crash_node(self, node: DhtNode) -> None:
        """Kill a node, repair the ring, and recover every state it owned."""
        if not node.alive:
            return
        self.overlay.fail_node(node)
        self.failures.records.append(
            FailureRecord(self.sim.now, "crash", node.name)
        )
        self._crash_counter.add(1)
        self._trigger_recoveries()

    # -------------------------------------------------------------- recovery

    def _trigger_recoveries(self) -> None:
        for name in sorted(self.manager.states):
            registered = self.manager.states[name]
            if registered.owner.alive or name in self._recovering:
                continue
            self._recovering.add(name)
            self._start_recovery(name, registered)

    def _start_recovery(self, name: str, registered) -> None:
        try:
            replacement = self.overlay.replacement_for(registered.owner)
        except OverlayError as exc:
            self.errors.append(f"{name}: no replacement available ({exc})")
            return
        try:
            if self.impl is None:
                handle = self._checkpointing_recovery(
                    name, registered, replacement
                )
            elif self.controller is not None:
                handle = self.controller.begin_owner_loss(name)
            else:
                handle = self.manager.recover(
                    name, replacement=replacement, mechanism=self.impl
                )
        except ReproError as exc:
            self.errors.append(f"{name}: {exc}")
            return
        self.handles[name] = handle

        def landed(_result: RecoveryResult) -> None:
            # The replacement is the owner now (the manager moved it; the
            # checkpointing baseline does not go through the manager), so
            # a later crash of it re-triggers recovery of this state.
            if self.impl is None:
                registered.owner = replacement
            self._recovering.discard(name)

        handle.on_done(landed)
        for hook in self._hooks:
            hook(name, registered, replacement)

    def _checkpointing_recovery(
        self, name: str, registered, replacement: DhtNode
    ) -> RecoveryHandle:
        upstream = next(
            (n for n in registered.owner.leaf_set.members() if n.alive),
            None,
        ) or self.overlay.alive_nodes()[0]
        return self.checkpointing.recover(
            upstream, replacement, registered.state_bytes, state_name=name
        )

    def _restart_failed(self) -> bool:
        """Re-run recoveries whose replacement died; True if any restarted."""
        progressed = False
        for name in sorted(self.handles):
            handle = self.handles[name]
            error = handle._error  # engine owns the handle lifecycle
            if error is None or name in self.results:
                continue
            registered = self.manager.states[name]
            attempts = self.restarts.get(name, 0)
            if isinstance(error, ReplacementDiedError) and attempts < MAX_RECOVERY_RESTARTS:
                self.restarts[name] = attempts + 1
                self.sim.tracer.instant(
                    f"restart recovery {name}",
                    category="chaos.restart",
                    state=name,
                    attempt=attempts + 1,
                )
                self.sim.metrics.counter("chaos.recovery_restarts").add(1)
                del self.handles[name]
                self._start_recovery(name, registered)
                progressed = True
        return progressed

    # ------------------------------------------------------------------- run

    def run(self) -> None:
        """Arm the injectors and drive the world to quiescence."""
        for injection in self.scenario.injections:
            injection.arm(self)
        while True:
            self.sim.run_until_idle()
            for name in sorted(self.handles):
                handle = self.handles[name]
                if handle._result is not None and name not in self.results:
                    self.results[name] = handle._result
            if not self._restart_failed():
                break
        for name in sorted(self.handles):
            handle = self.handles[name]
            if name in self.results:
                continue
            if handle._error is not None:
                self.errors.append(f"{name}: {handle._error}")
            else:
                self.errors.append(
                    f"{name}: recovery never completed via {self.mechanism}"
                )

    def metric(self, name: str) -> float:
        return self.sim.metrics.counter(name).total

    def close(self) -> None:
        """Drop what points back here (handles, hooks, controller); close the world."""
        self.handles, self._hooks, self.controller = {}, [], None
        self.deployment.close()


# ------------------------------------------------------------------- outcomes


@dataclass
class RunContext:
    """Everything the invariant checkers need about one finished run."""

    scenario: Scenario
    mechanism: str
    engine: ChaosEngine
    results: Dict[str, RecoveryResult]
    errors: List[str]
    pre_checksums: Dict[str, Dict[int, str]]
    # Chain-level ground truth per state: segment digest, chain length,
    # and the reconstructed tip snapshot's shape (see setup_states).
    pre_state: Dict[str, Dict[str, object]] = field(default_factory=dict)


@dataclass
class ScenarioOutcome:
    """One cell of the resilience matrix."""

    scenario: str
    mechanism: str
    status: str  # "survived" | "degraded" | "failed"
    recovered: int = 0
    expected: int = 0
    crashes: int = 0
    joins: int = 0
    retries: float = 0.0
    speculations: float = 0.0
    restarts: int = 0
    max_recovery_s: float = 0.0
    # Controller-mode extras: how many remediations the control plane
    # executed and verified, and the slowest detection-to-verified time.
    remediations: int = 0
    remediation_mttr_s: float = 0.0
    # Aggregated blame fractions across every recovery the run performed
    # (detection/transfer/merge/replay/control/queueing, summing to 1.0) —
    # the "why was this cell degraded" answer, straight from the profiler.
    # Computed only while spans are recorded (--trace, --profile, ...);
    # otherwise empty, as for a cell that recovered nothing.
    blame: Dict[str, float] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    hard_violations: Dict[str, List[str]] = field(default_factory=dict)
    soft_violations: Dict[str, List[str]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "mechanism": self.mechanism,
            "status": self.status,
            "recovered": self.recovered,
            "expected": self.expected,
            "crashes": self.crashes,
            "joins": self.joins,
            "retries": self.retries,
            "speculations": self.speculations,
            "restarts": self.restarts,
            "max_recovery_s": round(self.max_recovery_s, 6),
            "remediations": self.remediations,
            "remediation_mttr_s": round(self.remediation_mttr_s, 6),
            "blame": {k: round(self.blame[k], 6) for k in sorted(self.blame)},
            "errors": list(self.errors),
            "hard_violations": {k: list(v) for k, v in self.hard_violations.items()},
            "soft_violations": {k: list(v) for k, v in self.soft_violations.items()},
        }


@dataclass
class ResilienceReport:
    """The survived/degraded/failed matrix of one campaign sweep."""

    campaign: str
    outcomes: List[ScenarioOutcome] = field(default_factory=list)

    def matrix(self) -> Dict[str, Dict[str, str]]:
        grid: Dict[str, Dict[str, str]] = {}
        for outcome in self.outcomes:
            grid.setdefault(outcome.scenario, {})[outcome.mechanism] = outcome.status
        return grid

    def counts(self) -> Dict[str, int]:
        tally = {"survived": 0, "degraded": 0, "failed": 0}
        for outcome in self.outcomes:
            tally[outcome.status] += 1
        return tally

    def to_dict(self) -> Dict[str, object]:
        ordered = sorted(self.outcomes, key=lambda o: (o.scenario, o.mechanism))
        return {
            "campaign": self.campaign,
            "matrix": self.matrix(),
            "summary": self.counts(),
            "outcomes": [o.to_dict() for o in ordered],
        }

    def to_json(self) -> str:
        """Deterministic JSON: same seeds -> byte-identical report."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def format_matrix(self) -> str:
        """A fixed-width text rendering of the resilience matrix."""
        grid = self.matrix()
        mechanisms = sorted({m for row in grid.values() for m in row})
        name_width = max([len("scenario")] + [len(s) for s in grid])
        widths = {
            m: max(len(m), *(len(grid[s].get(m, "-")) for s in grid))
            for m in mechanisms
        }
        lines = [
            "  ".join(
                ["scenario".ljust(name_width)] + [m.ljust(widths[m]) for m in mechanisms]
            )
        ]
        for scenario in sorted(grid):
            row = grid[scenario]
            lines.append(
                "  ".join(
                    [scenario.ljust(name_width)]
                    + [row.get(m, "-").ljust(widths[m]) for m in mechanisms]
                )
            )
        tally = self.counts()
        lines.append(
            f"survived={tally['survived']} degraded={tally['degraded']} "
            f"failed={tally['failed']}"
        )
        return "\n".join(lines)


# --------------------------------------------------------------------- runner


def _attach_controller(engine: ChaosEngine, mechanism: str):
    """Wire a remediation controller into an engine (controller mode).

    The controller's policy pins proactive recovery to the cell's
    mechanism so the resilience matrix still compares mechanisms, and its
    verification step gets the campaign's pre-failure ground truth.
    """
    from repro.control import ControlPlane, Controller, default_policy

    controller = Controller(
        ControlPlane(engine.deployment), policy=default_policy(mechanism=mechanism)
    )
    engine.controller = controller
    return controller


def run_scenario(
    scenario: Scenario,
    mechanism: str,
    controller: bool = False,
) -> ScenarioOutcome:
    """Run one scenario under one mechanism and classify the outcome.

    With ``controller=True`` (SR3 mechanisms only — the checkpointing
    baseline has no placement plans to reason about) a
    :class:`~repro.control.Controller` owns the response: owner-loss
    recoveries route through its policy table during the run, and after
    quiescence it sweeps the world for residual damage — thinned
    replicas, degraded hosts, hot nodes — remediating until the
    invariants hold.
    """
    # While spans are recorded (the CLI's --trace and --profile flags) the
    # cell's tracer is recorded from the build on, so campaign and control
    # runs produce the same trace artifacts experiments do, and the outcome
    # carries the blame its recoveries' spans give. Otherwise the cell runs
    # on the null tracer and records nothing.
    trace_name = f"{scenario.name}/{mechanism}"
    deployment = build_deployment(
        num_nodes=scenario.num_nodes,
        seed=scenario.seed,
        uplink_mbit=scenario.uplink_mbit or None,
        downlink_mbit=scenario.uplink_mbit or None,
        trace_name=trace_name,
    )
    engine = ChaosEngine(deployment, scenario, mechanism)
    try:
        ctl = None
        if controller and mechanism != "checkpointing":
            ctl = _attach_controller(engine, mechanism)
        pre_checksums = engine.setup_states()
        if ctl is not None:
            ctl.bind_ground_truth(
                results=engine.results,
                pre_checksums=pre_checksums,
                pre_state=engine.pre_state,
                mechanism=mechanism,
            )
        engine.run()
        if ctl is not None:
            ctl.sweep()
            engine.sim.run_until_idle()
        run = RunContext(
            scenario=scenario,
            mechanism=mechanism,
            engine=engine,
            results=engine.results,
            errors=engine.errors,
            pre_checksums=pre_checksums,
            pre_state=engine.pre_state,
        )
        report = check_invariants(run)
        outcome = _classify(run, report)
        if ctl is not None:
            verified = [r for r in ctl.records if r.verified]
            outcome.remediations = len(verified)
            outcome.remediation_mttr_s = max(
                (r.mttr_s for r in verified if r.mttr_s is not None), default=0.0
            )
        return outcome
    finally:
        engine.close()  # the outcome holds no part of the world, which frees now


def _aggregate_blame(tracer) -> Dict[str, float]:
    """Campaign-level blame fractions: all recoveries of one run, combined."""
    profiles = profile_tracers(tracer)
    total = sum(p.makespan for p in profiles)
    if total <= 0:
        return {}
    seconds: Dict[str, float] = {}
    for profile in profiles:
        for category, value in profile.blame_seconds.items():
            seconds[category] = seconds.get(category, 0.0) + value
    return {category: seconds[category] / total for category in sorted(seconds)}


def _classify(run: RunContext, invariants: InvariantReport) -> ScenarioOutcome:
    engine = run.engine
    retries = engine.metric("recovery.retries")
    speculations = engine.metric("recovery.speculations")
    restarts = sum(engine.restarts.values())
    if run.errors or invariants.hard_violations:
        status = "failed"
    elif (
        invariants.soft_violations
        or retries > 0
        or speculations > 0
        or restarts > 0
    ):
        status = "degraded"
    else:
        status = "survived"
    return ScenarioOutcome(
        scenario=run.scenario.name,
        mechanism=run.mechanism,
        status=status,
        recovered=len(run.results),
        expected=run.scenario.num_states,
        crashes=len(engine.failures.crashes()),
        joins=engine.joins,
        retries=retries,
        speculations=speculations,
        restarts=restarts,
        max_recovery_s=max(
            (r.duration for r in run.results.values()), default=0.0
        ),
        blame=_aggregate_blame(engine.sim.tracer) if engine.sim.tracer.enabled else {},
        errors=list(run.errors),
        hard_violations=dict(invariants.hard_violations),
        soft_violations=dict(invariants.soft_violations),
    )


def run_campaign(
    campaign: str = "smoke",
    scenarios: Optional[Sequence[Scenario]] = None,
    mechanisms: Optional[Sequence[str]] = None,
    controller: bool = False,
) -> ResilienceReport:
    """Sweep scenarios × mechanisms and fold outcomes into one report.

    ``scenarios`` overrides the named campaign's list; ``mechanisms``
    overrides each scenario's own sweep (every scenario runs under its own
    seed; ``Scenario.with_seed`` makes a replica under another);
    ``controller`` hands each SR3 cell's response to the auto-remediation
    control plane (see :func:`run_scenario`).
    """
    if scenarios is None:
        scenarios = campaign_scenarios(campaign)
    report = ResilienceReport(campaign=campaign)
    for scenario in scenarios:
        sweep = tuple(mechanisms) if mechanisms else scenario.mechanisms
        for mechanism in sweep:
            report.outcomes.append(run_scenario(scenario, mechanism, controller=controller))
    return report


__all__ = [
    "CAMPAIGNS",
    "ChaosEngine",
    "MAX_RECOVERY_RESTARTS",
    "ResilienceReport",
    "RunContext",
    "ScenarioOutcome",
    "SR3_MECHANISMS",
    "make_mechanism",
    "run_campaign",
    "run_scenario",
]
