"""The continuous telemetry layer: the pipeline and the series it keeps."""

import pytest

from repro.errors import ConfigError
from repro.obs import Tracer
from repro.obs.registry import TimeSeries
from repro.obs.timeseries import TelemetryPipeline
from repro.sim import Simulator


class TestSeriesBuffer:
    """What the pipeline stores a series in: a registry ``TimeSeries``."""

    def test_keeps_points_in_order(self):
        buf = TimeSeries("s")
        buf.record(1.0, 10.0)
        buf.record(2.0, 20.0)
        assert buf.points == [(1.0, 10.0), (2.0, 20.0)]
        assert buf.last() == (2.0, 20.0)
        assert len(buf) == 2

    def test_rejects_time_travel(self):
        buf = TimeSeries("s")
        buf.record(5.0, 1.0)
        with pytest.raises(ValueError):
            buf.record(4.0, 2.0)
        # Same-instant appends are allowed (distinct samples, one tick).
        buf.record(5.0, 3.0)
        assert len(buf) == 2

    def test_window_is_left_open_right_closed(self):
        buf = TimeSeries("s")
        for t in (1.0, 2.0, 3.0, 4.0):
            buf.record(t, t)
        assert buf.values_in(1.0, 3.0) == [2.0, 3.0]
        assert buf.window(3.0, 10.0) == [(4.0, 4.0)]
        assert buf.values_in(10.0, 20.0) == []

    def test_validation(self):
        with pytest.raises(ConfigError):
            TelemetryPipeline(Simulator()).record("s", 1.0, 1.0, kind="histogram")

    def test_record_keeps_kind_and_points(self):
        pipe = TelemetryPipeline(Simulator())
        pipe.record("s", 1.0, 2.0, kind="rate")
        assert pipe.series("s").kind == "rate"
        assert pipe.series("s").points == [(1.0, 2.0)]


class TestTelemetryPipeline:
    def test_counters_become_rates(self):
        sim = Simulator()
        pipe = TelemetryPipeline(sim)
        counter = sim.metrics.counter("served")
        counter.add(10)
        sim.schedule(1.0, lambda: None)
        sim.run_until_idle()
        pipe.sample(1.0)  # first sight: no interval yet
        assert not pipe.has_series("served.rate")
        counter.add(30)
        pipe.sample(3.0)
        assert pipe.series("served.rate").points == [(3.0, 15.0)]
        assert pipe.series("served.rate").kind == "rate"

    def test_gauges_are_sampled_verbatim(self):
        sim = Simulator()
        pipe = TelemetryPipeline(sim)
        sim.metrics.gauge("depth").set(7.0)
        pipe.sample(1.0)
        assert pipe.series("depth").points == [(1.0, 7.0)]

    def test_registry_series_are_cursor_copied(self):
        sim = Simulator()
        pipe = TelemetryPipeline(sim)
        series = sim.metrics.series("lag")
        series.record(0.5, 1.0)
        series.record(0.9, 2.0)
        pipe.sample(1.0)
        assert pipe.series("lag").points == [(0.5, 1.0), (0.9, 2.0)]
        series.record(1.5, 3.0)
        pipe.sample(2.0)
        # Only the new point was copied — no rescan, no duplicates.
        assert pipe.series("lag").points == [(0.5, 1.0), (0.9, 2.0), (1.5, 3.0)]

    def test_each_tick_reads_only_the_tail(self, monkeypatch):
        """160 samples of a growing series materialise each point once."""
        materialised = []
        points_from = TimeSeries.points_from

        def counting(series, index):
            tail = points_from(series, index)
            materialised.append(len(tail))
            return tail

        monkeypatch.setattr(TimeSeries, "points_from", counting)
        sim = Simulator()
        pipe = TelemetryPipeline(sim)
        series = sim.metrics.series("lag")
        for tick in range(160):
            for step in range(25):
                series.record(tick + step / 25, float(tick * step))
            pipe.sample(tick + 1.0)
        assert len(series) == 4_000
        assert sum(materialised) == 4_000
        one_shot = TelemetryPipeline(sim)
        one_shot.sample(160.0)
        assert pipe.series("lag").points == one_shot.series("lag").points
        assert pipe.series("lag").points == series.points

    def test_collector_readings_append_on_change_and_drop_to_zero(self):
        sim = Simulator()
        pipe = TelemetryPipeline(sim)
        live = {}
        sim.metrics.add_collector(lambda: dict(live))
        pipe.sample(1.0)
        assert not pipe.has_series("link")  # nothing active, nothing written
        live["link"] = 0.5
        pipe.sample(2.0)
        pipe.sample(3.0)  # unchanged: no point
        live["link"] = 0.75
        pipe.sample(4.0)
        del live["link"]  # went idle: the next tick writes the drop
        pipe.sample(5.0)
        pipe.sample(6.0)
        assert pipe.series("link").points == [(2.0, 0.5), (4.0, 0.75), (5.0, 0.0)]
        assert pipe.series("link").kind == "series"
        assert "link" not in sim.metrics.dump()["series"]

    def test_histogram_percentiles_need_opt_in(self):
        sim = Simulator()
        pipe = TelemetryPipeline(sim)
        hist = sim.metrics.histogram("lat")
        hist.observe(1.0, at=0.5)
        pipe.sample(1.0)
        assert not pipe.has_series("lat.p50")  # no keep_observations: silent
        hist.keep_observations(64)
        for i in range(10):
            hist.observe(float(i), at=1.0 + 0.1 * i)
        pipe.sample(2.0)
        assert pipe.has_series("lat.p50")
        assert pipe.has_series("lat.p99")
        assert pipe.series("lat.p50").kind == "percentile"
        (t, p50) = pipe.series("lat.p50").last()
        assert t == 2.0
        assert 3.0 <= p50 <= 6.0

    def test_open_recovery_spans_become_a_gauge(self):
        sim = Simulator(tracer=Tracer())
        pipe = TelemetryPipeline(sim)
        span = sim.tracer.start("recover", category="recovery/star")
        pipe.sample(1.0)
        assert pipe.series("telemetry.recovery_active").last() == (1.0, 1.0)
        span.finish()
        pipe.sample(2.0)
        assert pipe.series("telemetry.recovery_active").last() == (2.0, 0.0)

    def test_same_instant_resample_is_a_noop(self):
        sim = Simulator()
        pipe = TelemetryPipeline(sim)
        sim.metrics.gauge("g").set(1.0)
        pipe.sample(1.0)
        sim.metrics.gauge("g").set(2.0)
        pipe.sample(1.0)
        assert pipe.series("g").points == [(1.0, 1.0)]
        assert pipe.samples == 1

    def test_record_and_unknown_series(self):
        sim = Simulator()
        pipe = TelemetryPipeline(sim)
        pipe.record("custom", 1.0, 5.0, kind="gauge")
        assert pipe.names() == ["custom"]
        with pytest.raises(ConfigError):
            pipe.series("nope")

    def test_self_scheduled_mode_stops_cleanly(self):
        sim = Simulator()
        pipe = TelemetryPipeline(sim)
        sim.metrics.gauge("g").set(1.0)
        pipe.start()
        with pytest.raises(ConfigError):
            pipe.start()  # double-start is a config error
        sim.schedule(2.0, pipe.stop)
        sim.run_until_idle()
        assert not pipe.running
        # stop() at t=2.0 was enqueued first, so the t=2.0 tick is a no-op
        # and nothing reschedules past it.
        assert pipe.samples == 3
        assert sim.now == pytest.approx(2.0)

    def test_names_are_sorted(self):
        sim = Simulator()
        pipe = TelemetryPipeline(sim)
        sim.metrics.gauge("b").set(2.0)
        sim.metrics.gauge("a").set(1.0)
        pipe.sample(1.0)
        assert pipe.names() == ["a", "b"]
        assert pipe.samples == 1


class TestHistogramObservations:
    """The registry-side opt-in that feeds windowed percentiles."""

    def test_off_by_default(self):
        sim = Simulator()
        hist = sim.metrics.histogram("h")
        hist.observe(1.0)
        assert not hist.keeps_observations
        assert hist.observations() == []
        assert "observations" not in sim.metrics.dump()["histograms"]["h"]

    def test_bounded_ring(self):
        sim = Simulator()
        hist = sim.metrics.histogram("h")
        hist.keep_observations(3)
        for i in range(5):
            hist.observe(float(i), at=float(i))
        assert hist.observations() == [(2.0, 2.0), (3.0, 3.0), (4.0, 4.0)]
        assert hist.count == 5  # aggregates still see everything

    def test_clock_binding_stamps_sim_time(self):
        sim = Simulator()
        hist = sim.metrics.histogram("h")
        hist.keep_observations()
        sim.schedule(2.5, lambda: hist.observe(9.0))
        sim.run_until_idle()
        assert hist.observations() == [(2.5, 9.0)]

    def test_dump_includes_observations(self):
        sim = Simulator()
        hist = sim.metrics.histogram("h")
        hist.keep_observations()
        hist.observe(4.0, at=1.0)
        dumped = sim.metrics.dump()["histograms"]["h"]
        assert dumped["observations"] == [[1.0, 4.0]]

    def test_limit_must_be_positive(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.metrics.histogram("h").keep_observations(0)
