"""Telemetry alerts as control-plane diagnoses.

Covers the observe → diagnose path for ``slo-burning`` / ``metric-anomaly``
alerts, the detector-gated owner-loss scan and the non-blocking
:meth:`Controller.poll` mode.
"""


from repro.bench.harness import build_scenario
from repro.recovery.deployment import saved_state
from repro.control import (
    Controller,
    ControlPlane,
    PolicyRule,
    PolicyTable,
)
from repro.control.diagnose import anomaly_diagnosis, diagnose, slo_diagnosis
from repro.obs.anomaly import Anomaly, AnomalyDetector
from repro.obs.slo import SLO, BurnWindow, SLOAlert, SLOEngine
from repro.obs.timeseries import TelemetryPipeline
from repro.util.sizes import MB


def controller_for(scenario, **kwargs):
    return Controller(ControlPlane(scenario), **kwargs)


def burning_engine(scenario, state=None):
    """An SLO engine whose backlog series is deep in violation *now*."""
    pipeline = TelemetryPipeline(scenario.sim)
    now = scenario.sim.now
    for i in range(10):
        pipeline.record("live.backlog", now - 0.9 + 0.1 * i, 500.0)
    engine = SLOEngine(pipeline)
    engine.add(
        SLO(
            name="backlog-drains",
            series="live.backlog",
            objective="le",
            threshold=200.0,
            budget=0.1,
            windows=(BurnWindow(long_s=3.0, short_s=1.0, burn_rate=4.0),),
            state=state,
        )
    )
    return pipeline, engine


class TestTelemetryDiagnosis:
    def test_slo_event_becomes_critical_diagnosis(self):
        sc = build_scenario(num_nodes=32, seed=11)
        alert = SLOAlert(
            slo="backlog-drains",
            series="live.backlog",
            at=4.5,
            severity="critical",
            burn_long=10.0,
            burn_short=10.0,
            long_s=3.0,
            short_s=1.0,
            threshold=200.0,
            state="app/state",
        )
        out = diagnose(ControlPlane(sc), [slo_diagnosis(alert)])
        burning = [d for d in out if d.condition == "slo-burning"]
        assert len(burning) == 1
        d = burning[0]
        assert d.severity == "critical"
        assert d.detected_at == 4.5
        assert d.subject == "app/state"
        assert dict(d.evidence)["slo"] == "backlog-drains"

    def test_anomaly_event_defaults_to_warning(self):
        sc = build_scenario(num_nodes=32, seed=11)
        anomaly = Anomaly(
            series="tput", at=2.0, value=5_000.0, score=40.0, kind="spike", baseline=100.0
        )
        out = diagnose(ControlPlane(sc), [anomaly_diagnosis(anomaly)])
        anomalous = [d for d in out if d.condition == "metric-anomaly"]
        assert len(anomalous) == 1
        assert anomalous[0].severity == "warning"
        assert anomalous[0].detected_at == 2.0
        assert dict(anomalous[0].evidence)["series"] == "tput"


class TestObserve:
    def test_observe_pumps_engine_and_anomalies(self):
        sc = build_scenario(num_nodes=32, seed=12)
        pipeline, engine = burning_engine(sc)
        for i in range(16):
            pipeline.record("tput", float(i), 100.0, kind="rate")
        pipeline.record("tput", 16.0, 5_000.0)
        anomalies = AnomalyDetector(pipeline, series=("tput",), window=16, min_points=8)
        ctl = controller_for(sc, slo_engine=engine, anomalies=anomalies)
        alerts = ctl.observe()
        # SLO alerts first, then anomalies: the order diagnose() keeps.
        assert [d.condition for d in alerts] == ["slo-burning", "metric-anomaly"]
        assert sc.sim.metrics.counter("control.events").total == 2
        # A re-observe is quiet and counts nothing.
        assert ctl.observe() == []
        assert sc.sim.metrics.counter("control.events").total == 2

    def test_latched_alert_does_not_reobserve(self):
        sc = build_scenario(num_nodes=32, seed=12)
        _, engine = burning_engine(sc)
        ctl = controller_for(sc, slo_engine=engine)
        assert [d.condition for d in ctl.observe()] == ["slo-burning"]
        assert ctl.observe() == []  # latched: the burn is still on, no re-page


class TestAlertTriggeredRemediation:
    def test_burning_slo_recovers_dead_owner(self):
        sc = build_scenario(num_nodes=32, seed=13)
        registered, _ = saved_state(sc, "app/state", 16 * MB)
        old_owner = registered.owner
        sc.overlay.fail_node(old_owner)
        _, engine = burning_engine(sc)
        # The only rule responds to the alert — the world scan's own
        # owner-lost diagnosis has no rule and must park, proving the
        # recovery was telemetry-triggered.
        policy = PolicyTable(
            rules=[
                PolicyRule(
                    condition="slo-burning",
                    action="recover-degraded",
                    params=(("mechanism", "star"),),
                )
            ]
        )
        ctl = controller_for(
            sc, policy=policy, slo_engine=engine,
            verify_invariants=False,
        )
        alert_at = sc.sim.now
        records = ctl.run()
        assert [r.diagnosis.condition for r in records] == ["slo-burning"]
        record = records[0]
        assert record.action == "recover-degraded"
        assert record.verified
        assert record.diagnosis.detected_at == alert_at
        assert record.mttr_s is not None and record.mttr_s > 0
        assert registered.owner.alive
        assert registered.owner is not old_owner


class TestDetectorGating:
    class FakeDetector:
        """Duck-typed heartbeat detector: declaration is programmable."""

        def __init__(self, declared=None):
            self.on_failure = None
            self.declared = declared

        def detected_by_anyone(self, node):
            return self.declared

    def dead_owner_scenario(self, declared):
        sc = build_scenario(num_nodes=32, seed=14)
        registered, _ = saved_state(sc, "app/state", 16 * MB)
        sc.overlay.fail_node(registered.owner)
        detector = self.FakeDetector(declared)
        return sc, Controller(ControlPlane(sc, detector=detector))

    def test_undeclared_death_is_invisible(self):
        sc, ctl = self.dead_owner_scenario(declared=None)
        assert not any(d.condition == "owner-lost" for d in ctl.diagnose())

    def test_declared_death_is_dated_at_declaration(self):
        sc, ctl = self.dead_owner_scenario(declared=3.25)
        lost = [d for d in ctl.diagnose() if d.condition == "owner-lost"]
        assert len(lost) == 1
        assert lost[0].detected_at == 3.25

    def test_no_detector_reads_ground_truth(self):
        sc = build_scenario(num_nodes=32, seed=14)
        registered, _ = saved_state(sc, "app/state", 16 * MB)
        sc.overlay.fail_node(registered.owner)
        ctl = controller_for(sc)
        assert any(d.condition == "owner-lost" for d in ctl.diagnose())


class TestPollMode:
    def test_poll_begins_recovery_and_dates_mttr_at_landing(self):
        sc = build_scenario(num_nodes=32, seed=15)
        registered, _ = saved_state(sc, "app/state", 16 * MB)
        sc.overlay.fail_node(registered.owner)
        ctl = controller_for(sc, verify_invariants=False)
        begun_states = []
        ctl.on_recovery_begun = lambda name, handle: begun_states.append(name)
        begun = ctl.poll()
        recoveries = [r for r in begun if r.diagnosis.condition == "owner-lost"]
        assert len(recoveries) == 1
        record = recoveries[0]
        assert record.attempts == 1 and not record.verified
        assert begun_states == ["app/state"]
        sc.sim.run_until_idle()
        assert record.landed_at is not None
        landed_at = record.landed_at
        # Let the clock move on past the landing before the sweep verifies,
        # so the test can see which instant MTTR is dated at.
        sc.sim.schedule(5.0, lambda: None)
        sc.sim.run_until_idle()
        assert sc.sim.now > landed_at
        ctl.sweep()
        assert record.verified
        assert record.resolved_at == landed_at
        assert record.mttr_s is not None and 0 < record.mttr_s < 5.0
        assert registered.owner.alive

    def test_poll_is_idempotent_while_open(self):
        sc = build_scenario(num_nodes=32, seed=16)
        registered, _ = saved_state(sc, "app/state", 16 * MB)
        sc.overlay.fail_node(registered.owner)
        ctl = controller_for(sc, verify_invariants=False)
        first = ctl.poll()
        assert any(r.diagnosis.condition == "owner-lost" for r in first)
        assert ctl.poll() == []  # everything in flight: no dupes
        sc.sim.run_until_idle()
        ctl.sweep()
        lost = [r for r in ctl.records if r.diagnosis.condition == "owner-lost"]
        assert len(lost) == 1 and lost[0].verified

    def test_poll_begins_re_replicate_and_sweep_verifies_it(self):
        sc = build_scenario(num_nodes=32, seed=17)
        registered, _ = saved_state(sc, "app/state", 16 * MB)
        holder = next(
            p.node for p in registered.plan.placements if p.node is not registered.owner
        )
        sc.overlay.fail_node(holder)
        ctl = controller_for(sc, verify_invariants=False)
        begun = ctl.poll()  # the copies start; nothing is driven to quiescence
        thin = [r for r in begun if r.diagnosis.condition == "replica-thin"]
        assert len(thin) == 1 and thin[0].attempts == 1
        assert not thin[0].verified and thin[0].outcomes == []
        # The copies are in flight: the segment is still thin until they land.
        assert any(d.condition == "replica-thin" for d in ctl.diagnose())
        sc.sim.run_until_idle()
        ctl.sweep()
        assert thin[0].verified
        assert thin[0].attempts == 1
        (outcome,) = thin[0].outcomes
        assert outcome.ok and outcome.changed
        for index in registered.plan.shard_indexes():
            assert len(registered.plan.providers_for(index)) >= registered.num_replicas

    def test_poll_parks_unmatched_diagnoses(self):
        sc = build_scenario(num_nodes=32, seed=18)
        registered, _ = saved_state(sc, "app/state", 16 * MB)
        sc.overlay.fail_node(registered.owner)
        ctl = controller_for(
            sc, policy=PolicyTable(), verify_invariants=False
        )
        assert ctl.poll() == []
        assert ctl.records == []
        assert ctl.poll() == []  # parked, not re-diagnosed forever
