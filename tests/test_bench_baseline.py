"""The perf-regression baseline and the bench CLI's profiling flags."""

import json

import pytest

from repro.bench.baseline import (
    BASELINE_FORMAT,
    baseline_metrics,
    compare_to_baseline,
    load_baseline,
    write_baseline,
)
from repro.bench.__main__ import main
from repro.errors import BenchmarkError
from repro.obs.profile import RecoveryProfile


def profile_stub(trace="sim-0", mechanism="star", state="s", makespan=5.0):
    return RecoveryProfile(
        trace=trace,
        mechanism=mechanism,
        state=state,
        root_span_id=1,
        started_at=0.0,
        finished_at=makespan,
        makespan=makespan,
        blame_seconds={},
        blame_fractions={},
        bytes_on_critical_path=0.0,
        state_bytes=0.0,
        span_count=1,
    )


class TestBaselineMetrics:
    def test_keying(self):
        metrics = baseline_metrics([profile_stub(makespan=5.0)])
        assert metrics == {"sim-0/star/s#0": 5.0}

    def test_repeated_recoveries_disambiguate(self):
        metrics = baseline_metrics(
            [profile_stub(makespan=5.0), profile_stub(makespan=7.0)]
        )
        assert metrics == {"sim-0/star/s#0": 5.0, "sim-0/star/s#1": 7.0}


class TestCompare:
    def test_within_tolerance_passes(self):
        comparison = compare_to_baseline({"k": 10.0}, {"k": 11.9}, tolerance=0.20)
        assert comparison.ok
        assert comparison.compared == 1

    def test_regression_flags(self):
        comparison = compare_to_baseline({"k": 10.0}, {"k": 12.1}, tolerance=0.20)
        assert not comparison.ok
        (regression,) = comparison.regressions
        assert regression.key == "k"
        assert regression.ratio == pytest.approx(1.21)
        assert "REGRESSION" in comparison.summary()

    def test_improvement_reported_not_failed(self):
        comparison = compare_to_baseline({"k": 10.0}, {"k": 5.0}, tolerance=0.20)
        assert comparison.ok
        assert len(comparison.improvements) == 1

    def test_new_and_missing_keys_never_fail(self):
        comparison = compare_to_baseline({"old": 1.0}, {"new": 1.0})
        assert comparison.ok
        assert comparison.new_keys == ["new"]
        assert comparison.missing_keys == ["old"]

    def test_negative_tolerance_rejected(self):
        with pytest.raises(BenchmarkError):
            compare_to_baseline({}, {}, tolerance=-0.1)

    def test_wall_clock_keys_are_informational(self):
        """Keys with wall-clock suffixes never gate, even on huge swings."""
        baseline = {
            "scale/512/star": 3.0,
            "scale/512/star/wall_s": 0.1,
            "scale/512/star/events_per_s": 10000.0,
        }
        measured = {
            "scale/512/star": 3.0,
            "scale/512/star/wall_s": 50.0,
            "scale/512/star/events_per_s": 1.0,
        }
        comparison = compare_to_baseline(baseline, measured, tolerance=0.20)
        assert comparison.ok
        assert comparison.compared == 1
        assert comparison.informational == 2
        assert comparison.new_keys == []
        assert comparison.missing_keys == []
        assert "informational" in comparison.summary()


class TestArtifactRoundTrip:
    def test_write_load(self, tmp_path):
        path = tmp_path / "BENCH_sr3.json"
        write_baseline(str(path), {"b": 2.0, "a": 1.0})
        payload = json.loads(path.read_text())
        assert payload["format"] == BASELINE_FORMAT
        assert list(payload["metrics"]) == ["a", "b"]
        assert load_baseline(str(path)) == {"a": 1.0, "b": 2.0}

    def test_load_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "other", "metrics": {}}')
        with pytest.raises(BenchmarkError):
            load_baseline(str(path))

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(BenchmarkError):
            load_baseline(str(tmp_path / "nope.json"))


class TestCliIntegration:
    def test_profile_artifact_written(self, tmp_path, capsys):
        path = tmp_path / "profile.json"
        assert main(["run", "fig9a", "--profile", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["format"] == "sr3-profile-1"
        assert payload["recoveries"] > 0
        for profile in payload["profiles"]:
            assert sum(profile["blame_fractions"].values()) == pytest.approx(1.0)
            assert "selection" in profile

    def test_profile_artifact_deterministic(self, tmp_path, capsys):
        paths = [tmp_path / "p1.json", tmp_path / "p2.json"]
        for path in paths:
            assert main(["run", "fig9a", "--profile", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_baseline_written_then_green(self, tmp_path, capsys):
        baseline = tmp_path / "BENCH_sr3.json"
        assert main(["run", "fig9a", "--baseline", str(baseline)]) == 0
        assert baseline.exists()
        assert main(["run", "fig9a", "--baseline", str(baseline)]) == 0
        assert "0 regressed" in capsys.readouterr().err

    def test_baseline_gate_trips(self, tmp_path, capsys):
        baseline = tmp_path / "BENCH_sr3.json"
        assert main(["run", "fig9a", "--baseline", str(baseline)]) == 0
        payload = json.loads(baseline.read_text())
        payload["metrics"] = {k: v * 0.5 for k, v in payload["metrics"].items()}
        baseline.write_text(json.dumps(payload))
        assert main(["run", "fig9a", "--baseline", str(baseline)]) == 3
        assert "REGRESSION" in capsys.readouterr().err

    def test_update_baseline_merges(self, tmp_path, capsys):
        # One baseline file carries keys from several experiments (fig8a,
        # saveamp, ...), so an update from one run must overwrite its own
        # keys while leaving the other experiments' keys untouched.
        baseline = tmp_path / "BENCH_sr3.json"
        write_baseline(
            str(baseline),
            {"other-experiment/key#0": 1.0, "sim-0/star/app/state#0": 99.0},
        )
        assert main(["run", "fig9a", "--baseline", str(baseline), "--update-baseline"]) == 0
        merged = load_baseline(str(baseline))
        assert merged["other-experiment/key#0"] == 1.0
        assert merged["sim-0/star/app/state#0"] != 99.0

    def test_metrics_out(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        assert main(["run", "fig9a", "--metrics-out", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["format"] == "sr3-metrics-1"
        assert payload["registries"]
        first = payload["registries"][0]
        assert first["name"].startswith("sim-")
        assert first["series"]["net.flows_active"]

    def test_flamegraph_and_speedscope_flags(self, tmp_path, capsys):
        flame = tmp_path / "flame.txt"
        scope = tmp_path / "scope.json"
        assert (
            main(
                [
                    "run",
                    "fig9a",
                    "--flamegraph",
                    str(flame),
                    "--speedscope",
                    str(scope),
                ]
            )
            == 0
        )
        assert flame.read_text().strip()
        doc = json.loads(scope.read_text())
        assert doc["profiles"]
