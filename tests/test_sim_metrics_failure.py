"""Unit tests for metrics primitives."""

import pytest

from repro.obs.registry import Counter, MetricsRegistry, TimeSeries


class TestCounter:
    def test_totals_and_labels(self):
        c = Counter("bytes")
        c.add(10, "ping")
        c.add(5, "pong")
        c.add(3)
        assert c.total == 18
        assert c.get("ping") == 10
        assert c.labels() == {"ping": 10, "pong": 5}

    def test_monotonic(self):
        with pytest.raises(ValueError):
            Counter("x").add(-1)


class TestTimeSeries:
    def test_ordered_append(self):
        s = TimeSeries("t")
        s.record(1.0, 10.0)
        s.record(2.0, 20.0)
        assert s.values() == [10.0, 20.0]
        assert s.times() == [1.0, 2.0]
        assert s.last() == (2.0, 20.0)
        assert len(s) == 2

    def test_out_of_order_rejected(self):
        s = TimeSeries("t")
        s.record(2.0, 1.0)
        with pytest.raises(ValueError):
            s.record(1.0, 1.0)

    def test_value_at_step_lookup(self):
        s = TimeSeries("t")
        s.record(1.0, 10.0)
        s.record(5.0, 50.0)
        assert s.value_at(3.0) == 10.0
        assert s.value_at(5.0) == 50.0

    def test_value_before_first_point(self):
        s = TimeSeries("t")
        s.record(2.0, 1.0)
        with pytest.raises(ValueError):
            s.value_at(1.0)

    def test_empty_last(self):
        assert TimeSeries("t").last() is None


class TestRegistry:
    def test_counters_are_singletons(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.series("b") is reg.series("b")
        assert set(reg.counters()) == {"a"}
        assert set(reg.all_series()) == {"b"}
