"""The closed-loop remediation controller.

One :class:`Controller` iteration (:meth:`Controller.step`) is the classic
auto-remediation shape: **observe** (the fresh alerts of the SLO engine
and the anomaly detector) → **diagnose** (:mod:`repro.control.diagnose`)
→ **plan** (first matching :class:`~repro.control.policy.PolicyRule`) →
**execute** (:mod:`repro.control.actions`) → **verify** (the condition
must be gone *and* the chaos invariant checkers must hold). Verification
failure retries the action up to the rule's budget; a condition that
survives its retries is parked so the loop always terminates.

Every remediation is timed on the simulated clock from the moment its
condition was detected to the moment verification passed — the MTTR the
``remediate`` benchmark reports. The controller traces ``control.loop`` /
``control.action`` / ``control.verify`` spans and feeds ``control.*``
counters plus a ``control.mttr_s`` histogram into the simulation's
metrics registry.

:class:`ControlPlane` is the world the controller acts through: any
:class:`~repro.recovery.deployment.Deployment` (a bench scenario, a live
cell, the façade's ``deployment``) plus the failure detector watching it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.chaos.invariants import check_invariants
from repro.control.actions import (
    Action,
    ActionOutcome,
    Launch,
    RecoverState,
    build_action,
)
from repro.control.diagnose import (
    Diagnosis,
    _detection_time,
    anomaly_diagnosis,
    diagnose,
    slo_diagnosis,
)
from repro.control.policy import PolicyTable, default_policy
from repro.errors import RecoveryError
from repro.recovery.deployment import Deployment, HoldsDeployment


#: Iteration budget of :meth:`Controller.run`: each iteration handles every
#: fresh diagnosis, so this bounds cascades, not conditions.
_MAX_ROUNDS = 8


@dataclass
class ControlPlane(HoldsDeployment):
    """Everything the controller observes and acts through."""

    deployment: Deployment
    detector: Optional[object] = None


@dataclass
class RemediationRecord:
    """One diagnosis's journey through the loop."""

    diagnosis: Diagnosis
    action: str
    attempts: int = 0
    verified: bool = False
    resolved_at: Optional[float] = None
    #: When a non-blocking remediation's last recovery handle landed (set
    #: by :meth:`Controller.poll`); resolution then dates MTTR at landing,
    #: not at the post-run sweep that verifies it.
    landed_at: Optional[float] = None
    outcomes: List[ActionOutcome] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)

    @property
    def mttr_s(self) -> Optional[float]:
        """Detection to verified-healthy, on the simulated clock."""
        if self.resolved_at is None:
            return None
        return self.resolved_at - self.diagnosis.detected_at


class Controller:
    """Policy-driven auto-remediation over one deployment.

    Records open through one path (:meth:`_open_record`, from :meth:`step`,
    :meth:`poll` and :meth:`begin_owner_loss`) and every attempt settles
    through one path (:meth:`_settle`). :meth:`step` runs its attempts to
    quiescence in place; :meth:`poll` and :meth:`begin_owner_loss` only
    begin them, and :meth:`sweep` settles what they left open.
    """

    def __init__(
        self,
        world: ControlPlane,
        policy: Optional[PolicyTable] = None,
        verify_invariants: bool = True,
        slo_engine=None,
        anomalies=None,
    ) -> None:
        self.world = world
        self.policy = policy if policy is not None else default_policy()
        #: Run the chaos invariant checkers as part of verification.
        self.verify_invariants = verify_invariants
        #: Telemetry attachments: an :class:`~repro.obs.slo.SLOEngine` and
        #: an :class:`~repro.obs.anomaly.AnomalyDetector` pumped by
        #: :meth:`observe` — their alerts enter the loop as diagnoses.
        self.slo_engine = slo_engine
        self.anomalies = anomalies
        #: Embedding hook: called ``(state_name, handle)`` for every
        #: recovery :meth:`poll` begins, so a live harness can chain its
        #: own completion logic (revive, rollback, rewind).
        self.on_recovery_begun: Optional[Callable[[str, object], None]] = None
        self.records: List[RemediationRecord] = []
        #: Remediations begun but not yet settled, each with its action and
        #: what its ``begin`` returned: owner losses by state name, polled
        #: remediations under ``poll/<condition>/<subject>/<node>``.
        self._open: Dict[str, Tuple[RemediationRecord, Action, object]] = {}
        self._parked: Set[Tuple[str, str, str]] = set()
        # Verification context beyond the live world: recovery results and
        # pre-failure ground truth, bound by the chaos engine.
        self._results: Dict[str, object] = {}
        self._pre_checksums: Dict[str, Dict[int, str]] = {}
        self._pre_state: Dict[str, Dict[str, object]] = {}
        self._mechanism = "control"

    # ------------------------------------------------------------- plumbing

    def _count(self, name: str, value: float = 1.0) -> None:
        if value:
            self.world.sim.metrics.counter(f"control.{name}").add(value)

    def bind_ground_truth(
        self,
        results: Optional[Dict[str, object]] = None,
        pre_checksums: Optional[Dict[str, Dict[int, str]]] = None,
        pre_state: Optional[Dict[str, Dict[str, object]]] = None,
        mechanism: Optional[str] = None,
    ) -> None:
        """Give verification the pre-failure ground truth a campaign holds.

        With ground truth bound, the verify step audits recovered shard
        checksums and chain digests — not just the self-contained world
        invariants.
        """
        if results is not None:
            self._results = results
        if pre_checksums is not None:
            self._pre_checksums = pre_checksums
        if pre_state is not None:
            self._pre_state = pre_state
        if mechanism is not None:
            self._mechanism = mechanism

    def _check_context(self):
        """A duck-typed ``RunContext`` for the invariant checkers."""
        return SimpleNamespace(
            scenario=SimpleNamespace(latency_bound=float("inf")),
            mechanism=self._mechanism,
            engine=self.world,
            results=self._results,
            errors=[],
            pre_checksums=self._pre_checksums,
            pre_state=self._pre_state,
        )

    # ------------------------------------------------------------- the loop

    def observe(self) -> List[Diagnosis]:
        """Pump the telemetry attachments; their fresh alerts as diagnoses."""
        now = self.world.sim.now
        alerts: List[Diagnosis] = []
        if self.slo_engine is not None:
            alerts.extend(map(slo_diagnosis, self.slo_engine.evaluate(now)))
        if self.anomalies is not None:
            alerts.extend(map(anomaly_diagnosis, self.anomalies.scan(now)))
        self._count("events", len(alerts))
        return alerts

    def diagnose(self, alerts=()) -> List[Diagnosis]:
        return diagnose(self.world, alerts)

    def _fresh(self, alerts) -> List[Diagnosis]:
        """Diagnoses not parked, not already open, not of a state in recovery."""
        open_keys = {self._key(record.diagnosis) for record, _, _ in self._open.values()}
        fresh = [
            d
            for d in self.diagnose(alerts)
            if self._key(d) not in self._parked
            and self._key(d) not in open_keys
            and d.state not in self._open
        ]
        self._count("diagnoses", len(fresh))
        return fresh

    def step(self) -> List[RemediationRecord]:
        """One full observe → diagnose → plan → execute → verify pass."""
        tracer = self.world.sim.tracer
        span = tracer.start("control loop", category="control.loop")
        handled: List[RemediationRecord] = []
        for diagnosis in self._fresh(self.observe()):
            record = self._remediate(diagnosis)
            if record is not None:
                handled.append(record)
        span.finish(remediations=len(handled))
        return handled

    def run(self) -> List[RemediationRecord]:
        """Iterate :meth:`step` until the world is clean (or budget spent)."""
        handled: List[RemediationRecord] = []
        for _ in range(_MAX_ROUNDS):
            batch = self.step()
            if not batch:
                break
            handled.extend(batch)
        return handled

    @staticmethod
    def _key(diagnosis: Diagnosis) -> Tuple[str, str, str]:
        return (diagnosis.condition, diagnosis.subject, diagnosis.node or "")

    def _open_record(self, diagnosis: Diagnosis):
        """Match a rule, open its record and build its action.

        Returns ``(record, rule, action)``, or ``None`` (the diagnosis is
        parked) when no rule matches.
        """
        rule = self.policy.lookup(diagnosis)
        if rule is None:
            self._count("unmatched")
            self._parked.add(self._key(diagnosis))
            return None
        record = RemediationRecord(diagnosis=diagnosis, action=rule.action)
        self.records.append(record)
        return record, rule, build_action(rule.action, **dict(rule.params))

    def _remediate(self, diagnosis: Diagnosis) -> Optional[RemediationRecord]:
        """Run a rule's attempts to quiescence until one verifies, else park."""
        opened = self._open_record(diagnosis)
        if opened is None:
            return None
        record, rule, action = opened
        tracer = self.world.sim.tracer
        for attempt in range(rule.max_retries + 1):
            if attempt:
                self._count("retries")
            span = tracer.start(
                f"control {action.name} {diagnosis.subject}",
                category="control.action",
                condition=diagnosis.condition,
            )
            outcome = action.execute(self.world, diagnosis, span)
            span.finish(ok=outcome.ok, changed=outcome.changed)
            record.attempts += 1
            self._count("actions")
            if self._settle(record, outcome):
                return record
        self._parked.add(self._key(diagnosis))
        self._count("unresolved")
        return record

    def _begin(self, key: str, record: RemediationRecord, action: Action):
        """Begin one attempt without blocking and leave it open for sweep()."""
        launch = action.begin(self.world, record.diagnosis, None)
        record.attempts += 1
        self._count("actions")
        self._open[key] = (record, action, launch)
        return launch

    def _settle(self, record: RemediationRecord, outcome: ActionOutcome) -> bool:
        """Record an attempt's outcome; resolve the record if it verifies."""
        record.outcomes.append(outcome)
        if outcome.ok and self._verify(record):
            self._resolve(record)
            return True
        return False

    def _verify(self, record: RemediationRecord) -> bool:
        """The condition must be gone and the hard invariants must hold."""
        diagnosis = record.diagnosis
        tracer = self.world.sim.tracer
        span = tracer.start(
            f"control verify {diagnosis.subject}", category="control.verify"
        )
        self._count("verifications")
        ok = True
        for current in self.diagnose():
            if self._key(current) == self._key(diagnosis):
                record.violations.append(
                    f"{diagnosis.condition} persists on {diagnosis.subject}"
                )
                ok = False
                break
        if ok and self.verify_invariants:
            report = check_invariants(self._check_context())
            for name in sorted(report.hard_violations):
                for message in report.hard_violations[name]:
                    record.violations.append(f"{name}: {message}")
                    ok = False
        span.finish(ok=ok)
        return ok

    def _resolve(self, record: RemediationRecord) -> None:
        record.verified = True
        record.resolved_at = (
            record.landed_at if record.landed_at is not None else self.world.sim.now
        )
        self._count("verified")
        mttr = record.mttr_s
        if mttr is not None:
            self.world.sim.metrics.histogram("control.mttr_s").observe(mttr)

    # ------------------------------------ non-blocking (campaign, live) mode

    def begin_owner_loss(self, state_name: str):
        """Plan and *start* an owner-loss remediation, without blocking.

        The chaos engine drives the simulator itself (so mid-recovery
        fault injectors see the recovery in flight) and the remediation is
        settled later by :meth:`sweep`. Calling again for the same state
        (the engine's restart path after a replacement death) begins
        another attempt of the same record. Returns the recovery handle;
        raises :class:`RecoveryError` when no policy rule covers the loss,
        the matched rule is not a recovery, or the recovery cannot start.
        """
        entry = self._open.get(state_name)
        if entry is None:
            registered = self.world.manager.states[state_name]
            diagnosis = Diagnosis(
                condition="owner-lost",
                severity="critical",
                detected_at=_detection_time(
                    self.world, registered.owner, self.world.sim.now
                ),
                state=state_name,
                evidence=(("owner", registered.owner.name),),
            )
            opened = self._open_record(diagnosis)
            if opened is None:
                raise RecoveryError(
                    f"no policy rule matches owner-lost for {state_name!r}"
                )
            record, rule, action = opened
            if not isinstance(action, RecoverState):
                raise RecoveryError(
                    f"policy maps owner-lost to {rule.action!r}, which cannot "
                    f"recover a state"
                )
        else:
            record, action, _ = entry
        launch = self._begin(state_name, record, action)
        if isinstance(launch, ActionOutcome):
            raise RecoveryError(
                launch.error or f"owner of {state_name!r} is alive; nothing to recover"
            )
        ((_, handle),) = launch.recoveries
        return handle

    def poll(self) -> List[RemediationRecord]:
        """One non-blocking pass for loop-owning embeddings (live mode).

        A :class:`~repro.live.driver.LoadDriver` tick loop cannot tolerate
        an action calling ``run_until_idle`` mid-stream, so this pass only
        *begins* each matched action: recoveries and transfers complete as
        the embedding drives the simulator (:attr:`on_recovery_begun` lets
        it chain revival logic onto each recovery), and :meth:`sweep`
        settles them after quiescence. MTTR for polled recoveries is dated
        at the moment the last handle lands.
        """
        begun: List[RemediationRecord] = []
        for diagnosis in self._fresh(self.observe()):
            opened = self._open_record(diagnosis)
            if opened is None:
                continue
            record, _, action = opened
            # Even an empty begin (nothing left to do) stays open so sweep()
            # still verifies the condition actually cleared.
            launch = self._begin("poll/" + "/".join(self._key(diagnosis)), record, action)
            begun.append(record)
            if isinstance(launch, Launch) and launch.recoveries:
                outstanding = {"left": len(launch.recoveries)}
                for state_name, handle in launch.recoveries:
                    handle.on_done(self._poll_landed(record, outstanding))
                    if self.on_recovery_begun is not None:
                        self.on_recovery_begun(state_name, handle)
        return begun

    def _poll_landed(self, record: RemediationRecord, outstanding: Dict[str, int]):
        def landed(result) -> None:
            outstanding["left"] -= 1
            if outstanding["left"] == 0:
                record.landed_at = self.world.sim.now
        return landed

    def sweep(self) -> List[RemediationRecord]:
        """Post-quiescence pass: settle every open remediation, then loop."""
        for key in sorted(self._open):
            record, action, launch = self._open.pop(key)
            if isinstance(launch, Launch):
                launch = action.finish(self.world, record.diagnosis, launch)
            if not self._settle(record, launch):
                self._parked.add(self._key(record.diagnosis))
                self._count("unresolved")
        return self.run()


__all__ = [
    "ControlPlane",
    "Controller",
    "RemediationRecord",
]
