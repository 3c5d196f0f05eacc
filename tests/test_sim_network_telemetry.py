"""Per-host network telemetry: sampled utilization timelines and queueing stats."""

import json

import pytest

from repro.obs.timeseries import TelemetryPipeline
from repro.sim.kernel import Simulator
from repro.sim.network import Network


def two_host_net(up_bw=100.0, down_bw=100.0):
    sim = Simulator()
    net = Network(sim)
    a = net.add_host("a", up_bw=up_bw, down_bw=down_bw, latency=0.0)
    b = net.add_host("b", up_bw=up_bw, down_bw=down_bw, latency=0.0)
    return sim, net, a, b


def run_sampled(sim, until, pipe=None):
    """Run to ``until`` with a pipeline sampling the links every 0.5 s."""
    pipe = pipe or TelemetryPipeline(sim)
    pipe.start()
    sim.run(until=until)
    pipe.stop()
    return pipe


def sampled_values(pipe, name):
    return [v for _, v in pipe.series(name).points]


class TestUtilizationSeries:
    def test_single_flow_saturates_and_drains(self):
        sim, net, a, b = two_host_net()
        net.transfer(a, b, 990.0)  # drains at t=9.9
        pipe = run_sampled(sim, until=12.0)
        up = sampled_values(pipe, "net.host.a.up_util")
        down = sampled_values(pipe, "net.host.b.down_util")
        assert 1.0 in up  # saturated while transferring
        assert up[-1] == 0.0  # closed out at the first tick after the drain
        assert down[-1] == 0.0
        assert pipe.series("net.host.a.flows").points == [(0.5, 1.0), (10.0, 0.0)]

    def test_fair_share_shows_up_in_utilization(self):
        sim, net, a, b = two_host_net()
        c = net.add_host("c", up_bw=100.0, down_bw=100.0, latency=0.0)
        # Two flows into b: b's downlink is the bottleneck, each sender
        # gets half of it, so each uplink sits at 50%.
        net.transfer(a, b, 1000.0)
        net.transfer(c, b, 1000.0)
        pipe = run_sampled(sim, until=25.0)
        assert 0.5 in sampled_values(pipe, "net.host.a.up_util")
        assert 1.0 in sampled_values(pipe, "net.host.b.down_util")

    def test_unconstrained_hosts_record_zero(self):
        sim = Simulator()
        net = Network(sim)
        a = net.add_host("a", latency=0.0)  # infinite bandwidth
        b = net.add_host("b", down_bw=100.0, latency=0.0)
        net.transfer(a, b, 1000.0)
        pipe = run_sampled(sim, until=12.0)
        assert set(sampled_values(pipe, "net.host.a.up_util")) == {0.0}
        assert sampled_values(pipe, "net.host.a.flows") == [1.0, 0.0]

    def test_nothing_is_recorded_without_a_pipeline(self):
        sim, net, a, b = two_host_net()
        net.transfer(a, b, 1000.0)
        sim.run_until_idle()
        assert sorted(sim.metrics.all_series()) == ["net.flows_active"]

    def test_global_active_flow_series_returns_to_zero(self):
        sim, net, a, b = two_host_net()
        net.transfer(a, b, 500.0)
        net.transfer(b, a, 500.0)
        sim.run_until_idle()
        active = sim.metrics.series("net.flows_active")
        assert max(active.values()) == 2.0
        assert active.values()[-1] == 0.0


class TestQueueingStats:
    def test_queue_wait_is_propagation_latency(self):
        sim = Simulator()
        net = Network(sim)
        a = net.add_host("a", up_bw=100.0, down_bw=100.0, latency=0.25)
        b = net.add_host("b", up_bw=100.0, down_bw=100.0, latency=0.25)
        net.transfer(a, b, 100.0)
        sim.run_until_idle()
        wait = sim.metrics.histogram("net.flow_queue_wait")
        assert wait.count == 1
        assert wait.mean == pytest.approx(0.5)

    def test_stall_measures_sharing_delay(self):
        sim, net, a, b = two_host_net()
        c = net.add_host("c", up_bw=100.0, down_bw=100.0, latency=0.0)
        net.transfer(a, b, 1000.0)  # alone: 10s; sharing b's downlink: slower
        net.transfer(c, b, 1000.0)
        sim.run_until_idle()
        stall = sim.metrics.histogram("net.flow_stall_s")
        assert stall.count == 2
        assert stall.max > 0.0

    def test_solo_flow_has_no_stall(self):
        sim, net, a, b = two_host_net()
        net.transfer(a, b, 1000.0)
        sim.run_until_idle()
        stall = sim.metrics.histogram("net.flow_stall_s")
        assert stall.count == 1
        assert stall.max == pytest.approx(0.0, abs=1e-9)


class TestAbortPaths:
    def test_failed_host_closes_out_series(self):
        sim, net, a, b = two_host_net()
        net.transfer(a, b, 10_000.0)
        pipe = run_sampled(sim, until=5.0)
        net.fail_host(b)
        run_sampled(sim, until=6.0, pipe=pipe)
        assert sampled_values(pipe, "net.host.a.up_util") == [1.0, 0.0]
        assert sim.metrics.series("net.flows_active").values()[-1] == 0.0


class TestDeterminism:
    @staticmethod
    def run_mesh(seed):
        import random

        rng = random.Random(seed)
        sim = Simulator()
        net = Network(sim)
        hosts = [
            net.add_host(f"h{i}", up_bw=100.0, down_bw=100.0, latency=0.001)
            for i in range(6)
        ]
        for _ in range(12):
            src, dst = rng.sample(hosts, 2)
            sim.schedule(
                rng.uniform(0, 2),
                lambda s=src, d=dst: net.transfer(s, d, rng.uniform(100, 2000)),
            )
        pipe = run_sampled(sim, until=300.0)
        assert not net.in_flight_flows()
        series = {
            name: [pipe.series(name).kind, pipe.series(name).points] for name in pipe.names()
        }
        return json.dumps([sim.metrics.dump(), series], sort_keys=True)

    def test_same_seed_byte_identical_series(self):
        assert self.run_mesh(3) == self.run_mesh(3)

    def test_different_seeds_differ(self):
        assert self.run_mesh(3) != self.run_mesh(4)
