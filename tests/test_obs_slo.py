"""Multi-window burn-rate SLO alerting over telemetry series."""

import pytest

from repro.control.diagnose import slo_diagnosis
from repro.errors import ConfigError
from repro.obs.slo import DEFAULT_WINDOWS, SLO, BurnWindow, SLOEngine
from repro.obs.timeseries import TelemetryPipeline
from repro.sim import Simulator


def pipeline_with(points, series="lat", kind="gauge"):
    pipe = TelemetryPipeline(Simulator())
    for t, v in points:
        pipe.record(series, t, v, kind=kind)
    return pipe


def engine_with(points, **slo_overrides):
    pipe = pipeline_with(points)
    engine = SLOEngine(pipe)
    spec = dict(
        name="lat-ok",
        series="lat",
        objective="le",
        threshold=1.0,
        budget=0.1,
        windows=(BurnWindow(long_s=4.0, short_s=1.0, burn_rate=4.0),),
    )
    spec.update(slo_overrides)
    engine.add(SLO(**spec))
    return engine


class TestValidation:
    def test_burn_window(self):
        with pytest.raises(ConfigError):
            BurnWindow(long_s=0.0, short_s=1.0, burn_rate=2.0)
        with pytest.raises(ConfigError):
            BurnWindow(long_s=1.0, short_s=2.0, burn_rate=2.0)
        with pytest.raises(ConfigError):
            BurnWindow(long_s=2.0, short_s=1.0, burn_rate=0.0)

    def test_slo(self):
        with pytest.raises(ConfigError):
            SLO(name="x", series="s", objective="eq", threshold=1.0)
        with pytest.raises(ConfigError):
            SLO(name="x", series="s", objective="le", threshold=1.0, budget=0.0)
        with pytest.raises(ConfigError):
            SLO(name="x", series="s", objective="le", threshold=1.0, windows=())

    def test_duplicate_name_rejected(self):
        engine = engine_with([])
        with pytest.raises(ConfigError):
            engine.add(SLO(name="lat-ok", series="other", objective="le", threshold=1.0))

    def test_good_predicate_directions(self):
        le = SLO(name="a", series="s", objective="le", threshold=2.0)
        assert le.good(2.0) and not le.good(2.1)
        ge = SLO(name="b", series="s", objective="ge", threshold=2.0)
        assert ge.good(2.0) and not ge.good(1.9)


class TestBurnMath:
    def test_bad_fraction_over_window(self):
        engine = engine_with([(1.0, 0.5), (2.0, 2.0), (3.0, 0.5), (4.0, 2.0)])
        slo = engine.objectives[0]
        assert engine.bad_fraction(slo, 4.0, 4.0) == 0.5
        assert engine.bad_fraction(slo, 1.0, 4.0) == 1.0  # only the t=4 point

    def test_empty_window_is_none_and_burn_zero(self):
        engine = engine_with([(1.0, 0.5)])
        slo = engine.objectives[0]
        assert engine.bad_fraction(slo, 1.0, 10.0) is None
        assert engine.burn_rate(slo, 1.0, 10.0) == 0.0

    def test_missing_series_is_silent(self):
        engine = SLOEngine(TelemetryPipeline(Simulator()))
        engine.add(SLO(name="x", series="ghost", objective="le", threshold=1.0))
        assert engine.evaluate(10.0) == []

    def test_burn_rate_is_fraction_over_budget(self):
        engine = engine_with([(1.0, 2.0), (2.0, 0.5)])
        slo = engine.objectives[0]
        assert engine.burn_rate(slo, 4.0, 4.0) == pytest.approx(0.5 / 0.1)


class TestAlerting:
    def all_bad(self):
        return [(0.5 * i, 5.0) for i in range(1, 9)]  # t = 0.5 .. 4.0, all bad

    def test_fires_when_both_windows_burn(self):
        engine = engine_with(self.all_bad())
        fired = engine.evaluate(4.0)
        assert len(fired) == 1
        alert = fired[0]
        assert alert.slo == "lat-ok"
        assert alert.severity == "critical"
        assert alert.at == 4.0
        assert alert.burn_long == pytest.approx(10.0)
        assert alert.burn_short == pytest.approx(10.0)
        assert engine.firing() == [("lat-ok", "critical")]

    def test_short_window_gates_the_page(self):
        # Long window burns, but the last second is healthy: no page.
        points = [(0.5 * i, 5.0) for i in range(1, 7)] + [(3.5, 0.5), (4.0, 0.5)]
        engine = engine_with(points)
        assert engine.evaluate(4.0) == []

    def test_latch_and_rearm(self):
        engine = engine_with(self.all_bad())
        assert len(engine.evaluate(4.0)) == 1
        assert engine.evaluate(4.0) == []  # latched: no refire
        pipe = engine.pipeline
        # Heal: the long window fills with good samples, burn < 1.0 ...
        for i in range(1, 9):
            pipe.record("lat", 4.0 + 0.5 * i, 0.5)
        assert engine.evaluate(8.0) == []  # this pass re-arms
        assert engine.firing() == []
        # ... then a second excursion pages again.
        for i in range(1, 9):
            pipe.record("lat", 8.0 + 0.5 * i, 5.0)
        assert len(engine.evaluate(12.0)) == 1
        assert len(engine.alerts) == 2

    def test_one_alert_per_objective_per_pass(self):
        engine = engine_with(self.all_bad(), windows=DEFAULT_WINDOWS)
        fired = engine.evaluate(4.0)
        assert len(fired) == 1  # page wins; the warn window stays quiet
        assert fired[0].severity == "critical"

    def test_to_event_carries_the_alert(self):
        engine = engine_with(self.all_bad(), state="app/state")
        diagnosis = slo_diagnosis(engine.evaluate(4.0)[0])
        assert diagnosis.condition == "slo-burning"
        assert diagnosis.severity == "critical"
        assert diagnosis.detected_at == 4.0
        assert diagnosis.state == "app/state"
        attrs = dict(diagnosis.evidence)
        assert attrs["slo"] == "lat-ok"
        assert attrs["series"] == "lat"
        assert attrs["severity"] == "critical"
        assert attrs["burn_long"] == pytest.approx(10.0)


class TestStatus:
    def test_rows_are_sorted_and_complete(self):
        pipe = pipeline_with([(1.0, 5.0)])
        engine = SLOEngine(pipe)
        engine.add(SLO(name="b", series="lat", objective="le", threshold=1.0))
        engine.add(SLO(name="a", series="lat", objective="ge", threshold=2.0))
        rows = engine.status(1.0)
        assert [r["slo"] for r in rows] == ["a", "b"]
        assert rows[0]["objective"] == ">= 2"
        assert rows[1]["objective"] == "<= 1"
        assert rows[0]["last"] == 5.0
        assert rows[1]["state"] == "ok"
