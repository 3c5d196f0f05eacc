"""Live cells where the control plane must *notice* the kill itself.

End-to-end over :func:`repro.bench.experiments.run_slo_cell`: one cell
senses through the SLO burn-rate engine, one through the heartbeat
failure detector. In both, the load driver only injects the fault — a
recovery that lands proves the telemetry (or the heartbeat protocol)
carried the signal.
"""

import pytest

from repro.bench.experiments import run_slo_cell
from repro.errors import BenchmarkError


@pytest.fixture(scope="module")
def burn_cell():
    return run_slo_cell("burn", seed=0)


@pytest.fixture(scope="module")
def detector_cell():
    return run_slo_cell("detector", seed=0)


class TestBurnCell:
    def test_alert_fires_after_the_kill(self, burn_cell):
        engine = burn_cell["engine"]
        report = burn_cell["report"]
        assert engine.alerts, "no burn-rate alert ever fired"
        assert report.killed_at is not None
        assert engine.alerts[0].at > report.killed_at

    def test_recovery_is_alert_triggered(self, burn_cell):
        controller = burn_cell["controller"]
        report = burn_cell["report"]
        assert burn_cell["detector"] is None  # nothing read ground truth
        verified = [r for r in controller.records if r.verified]
        assert verified, "the alert never produced a verified remediation"
        record = verified[0]
        assert record.diagnosis.condition == "slo-burning"
        assert record.action == "recover-degraded"
        # MTTR is dated from the alert to the landing, mid-run.
        assert record.landed_at is not None
        assert record.resolved_at == record.landed_at
        assert record.mttr_s > 0
        assert report.recovered_at is not None
        assert report.recovered_at > burn_cell["engine"].alerts[0].at

    def test_driver_series_are_continuous(self, burn_cell):
        pipeline = burn_cell["pipeline"]
        for name in ("live.backlog", "live.throughput", "live.replay_rate", "live.arrival_rate"):
            assert pipeline.has_series(name), name
            assert len(pipeline.series(name)) > 50
        # The latency histogram opted into observations, so windowed
        # percentiles exist too.
        assert pipeline.has_series("live.latency_s.p50")
        assert pipeline.has_series("live.latency_s.p99")

    def test_anomalies_saw_the_disruption(self, burn_cell):
        anomalies = burn_cell["anomalies"]
        report = burn_cell["report"]
        assert anomalies.anomalies
        assert all(a.series == "live.throughput" for a in anomalies.anomalies)
        assert any(a.at >= report.killed_at for a in anomalies.anomalies)

    def test_backlog_drains_after_recovery(self, burn_cell):
        report = burn_cell["report"]
        assert report.drained_at is not None
        assert report.served == report.arrived


class TestDetectorCell:
    def test_declaration_triggers_recovery(self, detector_cell):
        detector = detector_cell["detector"]
        controller = detector_cell["controller"]
        report = detector_cell["report"]
        assert detector_cell["engine"] is None
        assert detector.detections, "the heartbeat protocol never declared"
        declared_at = min(t for _, _, t in detector.detections)
        assert declared_at > report.killed_at
        verified = [r for r in controller.records if r.verified]
        assert verified
        record = verified[0]
        assert record.diagnosis.condition == "owner-lost"
        assert record.action == "recover"
        # MTTR is charged from the declaration, not the kill or the sweep.
        assert record.diagnosis.detected_at == pytest.approx(declared_at)
        assert record.mttr_s > 0
        assert report.recovered_at is not None

    def test_detector_feeds_telemetry_series(self, detector_cell):
        pipeline = detector_cell["pipeline"]
        assert pipeline.has_series("detector.suspicion")
        suspicion = [v for _, v in pipeline.series("detector.suspicion").points]
        assert max(suspicion) >= 3.0  # the threshold was reached
        assert pipeline.has_series("detector.heartbeats.rate")

    def test_detector_is_stopped_at_finalize(self, detector_cell):
        assert not detector_cell["detector"].running
        assert not detector_cell["pipeline"].running


class TestDeterminism:
    def test_burn_cell_reports_identical_across_runs(self, burn_cell):
        again = run_slo_cell("burn", seed=0)
        assert again["report"] == burn_cell["report"]
        assert again["engine"].alerts == burn_cell["engine"].alerts
        assert again["controller"].records == burn_cell["controller"].records


class TestDriverValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(BenchmarkError):
            run_slo_cell("psychic")
