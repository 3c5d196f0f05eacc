"""Robust spike detection over telemetry series."""

import pytest

from repro.control.diagnose import anomaly_diagnosis
from repro.errors import ConfigError
from repro.obs.anomaly import AnomalyDetector
from repro.obs.timeseries import TelemetryPipeline
from repro.sim import Simulator


def pipeline_with(points, series="m"):
    pipe = TelemetryPipeline(Simulator())
    for t, v in points:
        pipe.record(series, t, v)
    return pipe


def noisy_baseline(n=16, level=10.0):
    # Deterministic +/-0.5 jitter keeps the MAD positive.
    return [(float(i), level + (0.5 if i % 2 else -0.5)) for i in range(n)]


class TestValidation:
    def test_knobs(self):
        pipe = TelemetryPipeline(Simulator())
        with pytest.raises(ConfigError):
            AnomalyDetector(pipe, window=2)
        with pytest.raises(ConfigError):
            AnomalyDetector(pipe, window=8, min_points=9)
        with pytest.raises(ConfigError):
            AnomalyDetector(pipe, z_threshold=0.0)
        with pytest.raises(ConfigError):
            AnomalyDetector(pipe, cooldown_s=-1.0)


class TestSpike:
    def test_flags_an_outlier(self):
        pipe = pipeline_with(noisy_baseline() + [(16.0, 100.0)])
        det = AnomalyDetector(pipe, window=16, min_points=8, z_threshold=4.5)
        found = det.scan(16.0)
        assert len(found) == 1
        anomaly = found[0]
        assert anomaly.kind == "spike"
        assert anomaly.series == "m"
        assert anomaly.at == 16.0
        assert anomaly.value == 100.0
        assert anomaly.score > 4.5
        assert anomaly.baseline == pytest.approx(10.0, abs=1.0)

    def test_quiet_on_jitter(self):
        pipe = pipeline_with(noisy_baseline(17))
        det = AnomalyDetector(pipe, window=16, min_points=8)
        assert det.scan(17.0) == []

    def test_needs_min_points(self):
        pipe = pipeline_with(noisy_baseline(6) + [(6.0, 100.0)])
        det = AnomalyDetector(pipe, window=16, min_points=12)
        assert det.scan(6.0) == []

    def test_zero_mad_fallback_is_bounded(self):
        # A perfectly flat zero baseline, then a surge: the score must be
        # large (it fires) but finite/sane, not millions of sigma.
        flat = [(float(i), 0.0) for i in range(12)]
        pipe = pipeline_with(flat + [(12.0, 2000.0)])
        det = AnomalyDetector(pipe, window=16, min_points=8, z_threshold=4.5)
        found = det.scan(12.0)
        assert len(found) == 1
        assert found[0].score == pytest.approx(0.6745 / 0.05, rel=1e-6)

    def test_rescan_same_point_is_silent(self):
        pipe = pipeline_with(noisy_baseline() + [(16.0, 100.0)])
        det = AnomalyDetector(pipe, window=16, min_points=8)
        assert len(det.scan(16.0)) == 1
        assert det.scan(16.0) == []  # no new point: nothing to judge

    def test_cooldown_rate_limits(self):
        pipe = pipeline_with(noisy_baseline() + [(16.0, 100.0)])
        det = AnomalyDetector(pipe, window=16, min_points=8, cooldown_s=5.0)
        assert len(det.scan(16.0)) == 1
        pipe.record("m", 17.0, 120.0)
        assert det.scan(17.0) == []  # inside the cooldown
        pipe.record("m", 22.0, 120.0)
        assert len(det.scan(22.0)) == 1  # cooled off
        assert len(det.anomalies) == 2


class TestWatchSet:
    def test_pinned_series_ignores_others(self):
        pipe = pipeline_with(noisy_baseline() + [(16.0, 100.0)], series="watched")
        for t, v in noisy_baseline() + [(16.0, 100.0)]:
            pipe.record("ignored", t, v)
        det = AnomalyDetector(
            pipe, series=("watched", "absent"), window=16, min_points=8
        )
        found = det.scan(16.0)
        assert [a.series for a in found] == ["watched"]

    def test_to_event(self):
        pipe = pipeline_with(noisy_baseline() + [(16.0, 100.0)])
        det = AnomalyDetector(pipe, window=16, min_points=8)
        diagnosis = anomaly_diagnosis(det.scan(16.0)[0])
        assert diagnosis.condition == "metric-anomaly"
        assert diagnosis.severity == "warning"
        assert diagnosis.detected_at == 16.0
        attrs = dict(diagnosis.evidence)
        assert attrs["series"] == "m"
        assert attrs["anomaly"] == "spike"
        assert attrs["value"] == 100.0
