"""App-flow interference model: long-running demand-capped max-min flows."""

import math

import pytest

from repro.errors import NetworkError
from repro.sim.kernel import Simulator
from repro.sim.network import Network


def make_net():
    sim = Simulator()
    return sim, Network(sim)


class TestOpenAppFlow:
    def test_app_flow_is_long_running(self):
        sim, net = make_net()
        a = net.add_host("a", up_bw=100.0, latency=0.0)
        b = net.add_host("b", down_bw=100.0, latency=0.0)
        flow = net.open_app_flow(a, b, demand=40.0)
        sim.run_until_idle()
        assert not flow.aborted
        assert flow in net.app_flows()
        assert flow.rate == pytest.approx(40.0)

    def test_elastic_app_flow_splits_fairly(self):
        sim, net = make_net()
        a = net.add_host("a", up_bw=100.0, latency=0.0)
        b = net.add_host("b", down_bw=100.0, latency=0.0)
        net.open_app_flow(a, b, demand=math.inf)
        done = []
        net.transfer(a, b, 500.0, on_complete=lambda f: done.append(sim.now))
        sim.run_until_idle()
        # The transfer gets half of the 100 B/s link: 500 B in 10 s.
        assert done == [pytest.approx(10.0)]

    def test_demand_cap_returns_surplus_to_transfers(self):
        sim, net = make_net()
        a = net.add_host("a", up_bw=100.0, latency=0.0)
        b = net.add_host("b", down_bw=100.0, latency=0.0)
        net.open_app_flow(a, b, demand=25.0)
        done = []
        net.transfer(a, b, 750.0, on_complete=lambda f: done.append(sim.now))
        sim.run_until_idle()
        # The app flow saturates at 25 B/s; the transfer runs at 75 B/s.
        assert done == [pytest.approx(10.0)]

    def test_invalid_demands_rejected(self):
        sim, net = make_net()
        a = net.add_host("a", up_bw=100.0)
        b = net.add_host("b", down_bw=100.0)
        inf_a = net.add_host("inf-a")
        inf_b = net.add_host("inf-b")
        with pytest.raises(NetworkError):
            net.open_app_flow(a, b, demand=0.0)
        with pytest.raises(NetworkError):
            net.open_app_flow(a, b, demand=-5.0)
        # An elastic flow on an uncapped path would absorb infinite rate.
        with pytest.raises(NetworkError):
            net.open_app_flow(inf_a, inf_b, demand=math.inf)

    def test_dead_endpoint_rejected(self):
        sim, net = make_net()
        a = net.add_host("a", up_bw=100.0)
        b = net.add_host("b", down_bw=100.0)
        net.fail_host(b)
        with pytest.raises(NetworkError):
            net.open_app_flow(a, b, demand=10.0)


class TestSetFlowDemand:
    def test_demand_change_reallocates(self):
        sim, net = make_net()
        a = net.add_host("a", up_bw=100.0, latency=0.0)
        b = net.add_host("b", down_bw=100.0, latency=0.0)
        flow = net.open_app_flow(a, b, demand=80.0)
        done = []
        net.transfer(a, b, 600.0, on_complete=lambda f: done.append(sim.now))

        def shrink():
            net.set_flow_demand(flow, 10.0)

        sim.schedule(5.0, shrink)
        sim.run_until_idle()
        # 5 s at the 50/50 split (250 B moved), then 350 B at 90 B/s.
        assert done == [pytest.approx(5.0 + 350.0 / 90.0)]

    def test_only_app_flows_accept_demand(self):
        sim, net = make_net()
        a = net.add_host("a", up_bw=100.0, latency=0.0)
        b = net.add_host("b", down_bw=100.0, latency=0.0)
        flow = net.transfer(a, b, 1000.0)
        with pytest.raises(NetworkError):
            net.set_flow_demand(flow, 10.0)
        sim.run_until_idle()


class TestCloseAppFlow:
    def test_close_returns_bandwidth(self):
        sim, net = make_net()
        a = net.add_host("a", up_bw=100.0, latency=0.0)
        b = net.add_host("b", down_bw=100.0, latency=0.0)
        flow = net.open_app_flow(a, b, demand=math.inf)
        done = []
        net.transfer(a, b, 750.0, on_complete=lambda f: done.append(sim.now))
        sim.schedule(5.0, lambda: net.close_app_flow(flow))
        sim.run_until_idle()
        # 5 s at 50 B/s, then the remaining 500 B at the full 100 B/s.
        assert done == [pytest.approx(10.0)]
        assert flow.aborted
        assert net.app_flows() == []
        net.close_app_flow(flow)  # idempotent: closing again is a no-op

    def test_host_failure_aborts_app_flows(self):
        sim, net = make_net()
        a = net.add_host("a", up_bw=100.0)
        b = net.add_host("b", down_bw=100.0)
        flow = net.open_app_flow(a, b, demand=10.0)
        sim.run_until_idle()
        net.fail_host(b)
        assert flow.aborted
        assert net.app_flows() == []


class TestQuiescentEquivalence:
    """With zero app flows the allocator's float-op sequence is untouched.

    An app flow in a *disconnected* component must not perturb transfers
    elsewhere: the incremental allocator only recomputes the dirtied
    component, and the demand-capped round is skipped entirely for
    all-elastic components. Admitting the app flow after the transfers
    keeps their admission sequence numbers identical, so every float
    accumulates in the same order and completion times match bit for bit.
    """

    @staticmethod
    def _run(with_remote_app_flow: bool):
        sim = Simulator()
        net = Network(sim)
        hosts = [
            net.add_host(f"h{i}", up_bw=100.0 + 7.0 * i, down_bw=90.0 + 11.0 * i, latency=0.0)
            for i in range(6)
        ]
        done = {}
        sizes = [830.0, 411.0, 557.0, 1290.0, 95.0]
        for i, size in enumerate(sizes):
            src = hosts[i % 3]
            dst = hosts[3 + (i + 1) % 3]
            net.transfer(
                src, dst, size, on_complete=lambda f, i=i: done.setdefault(i, sim.now)
            )
        if with_remote_app_flow:
            far_a = net.add_host("far-a", up_bw=50.0, latency=0.0)
            far_b = net.add_host("far-b", down_bw=50.0, latency=0.0)
            net.open_app_flow(far_a, far_b, demand=20.0)
        sim.run_until_idle()
        return done

    def test_disconnected_app_flow_is_byte_invisible(self):
        quiet = self._run(False)
        loaded = self._run(True)
        assert quiet == loaded  # exact float equality, not approx
