"""Unit tests for metrics primitives and the failure injector."""

import pytest

from repro.errors import SimulationError
from repro.sim.failure import FailureInjector
from repro.sim.kernel import Simulator
from repro.obs.registry import Counter, MetricsRegistry, TimeSeries
from repro.sim.network import Network


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
        with pytest.raises(ValueError):
            TimeSeries("t").last()


class TestRegistry:
    def test_counters_are_singletons(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.series("b") is reg.series("b")
        assert set(reg.counters()) == {"a"}
        assert set(reg.all_series()) == {"b"}


class TestFailureInjector:
    def _setup(self):
        sim = Simulator()
        net = Network(sim)
        hosts = [net.add_host(f"h{i}") for i in range(5)]
        return sim, net, hosts

    def test_crash_fires_at_time(self):
        sim, net, hosts = self._setup()
        injector = FailureInjector(sim, net)
        crashed = []
        injector.crash_at(3.0, hosts[0], on_crash=lambda h: crashed.append(sim.now))
        sim.run_until_idle()
        assert crashed == [3.0]
        assert not hosts[0].alive
        assert len(injector.crashes()) == 1

    def test_crash_many_simultaneous(self):
        sim, net, hosts = self._setup()
        injector = FailureInjector(sim, net)
        injector.crash_many_at(1.0, hosts[:3])
        sim.run_until_idle()
        assert sum(1 for h in hosts if not h.alive) == 3

    def test_crash_in_past_rejected(self):
        sim, net, hosts = self._setup()
        sim.schedule(5.0, lambda: None)
        sim.run_until_idle()
        injector = FailureInjector(sim, net)
        with pytest.raises(SimulationError):
            injector.crash_at(1.0, hosts[0])

    def test_double_crash_recorded_once(self):
        sim, net, hosts = self._setup()
        injector = FailureInjector(sim, net)
        injector.crash_at(1.0, hosts[0])
        injector.crash_at(2.0, hosts[0])
        sim.run_until_idle()
        assert len(injector.crashes()) == 1

    def test_pick_victims_distinct(self):
        sim, net, hosts = self._setup()
        injector = FailureInjector(sim, net, seed=1)
        victims = injector.pick_victims(hosts, 3)
        assert len({v.name for v in victims}) == 3

    def test_pick_victims_too_many(self):
        sim, net, hosts = self._setup()
        injector = FailureInjector(sim, net)
        with pytest.raises(SimulationError):
            injector.pick_victims(hosts, 10)

    def test_shard_loss_action_runs(self):
        sim, net, hosts = self._setup()
        injector = FailureInjector(sim, net)
        dropped = []
        injector.lose_shards_at(2.0, "app/state shard 3", lambda: dropped.append(1))
        sim.run_until_idle()
        assert dropped == [1]
        assert len(injector.shard_losses()) == 1
