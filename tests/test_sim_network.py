"""Unit tests for the max-min fair flow-level network."""


import pytest

from repro.errors import NetworkError
from repro.sim.kernel import Simulator
from repro.sim.network import Network, RemoteStorage


def make_net():
    sim = Simulator()
    return sim, Network(sim)


class TestHosts:
    def test_duplicate_names_rejected(self):
        _, net = make_net()
        net.add_host("a")
        with pytest.raises(NetworkError):
            net.add_host("a")

    def test_nonpositive_bandwidth_rejected(self):
        _, net = make_net()
        with pytest.raises(NetworkError):
            net.add_host("a", up_bw=0)

    def test_negative_latency_rejected(self):
        _, net = make_net()
        with pytest.raises(NetworkError):
            net.add_host("a", latency=-1)


class TestSingleFlow:
    def test_transfer_time_is_size_over_bandwidth(self):
        sim, net = make_net()
        a = net.add_host("a", up_bw=100.0, latency=0.0)
        b = net.add_host("b", down_bw=100.0, latency=0.0)
        done = []
        net.transfer(a, b, 1000.0, on_complete=lambda f: done.append(sim.now))
        sim.run_until_idle()
        assert done == [pytest.approx(10.0)]

    def test_latency_delays_admission(self):
        sim, net = make_net()
        a = net.add_host("a", up_bw=100.0, latency=0.25)
        b = net.add_host("b", down_bw=100.0, latency=0.25)
        done = []
        net.transfer(a, b, 100.0, on_complete=lambda f: done.append(sim.now))
        sim.run_until_idle()
        assert done == [pytest.approx(1.5)]

    def test_infinite_bandwidth_completes_immediately(self):
        sim, net = make_net()
        a = net.add_host("a", latency=0.0)
        b = net.add_host("b", latency=0.0)
        done = []
        net.transfer(a, b, 10**9, on_complete=lambda f: done.append(sim.now))
        sim.run_until_idle()
        assert done == [pytest.approx(0.0)]

    def test_zero_byte_transfer(self):
        sim, net = make_net()
        a = net.add_host("a", up_bw=10.0, latency=0.0)
        b = net.add_host("b", down_bw=10.0, latency=0.0)
        done = []
        net.transfer(a, b, 0.0, on_complete=lambda f: done.append(sim.now))
        sim.run_until_idle()
        assert len(done) == 1

    def test_negative_size_rejected(self):
        _, net = make_net()
        a = net.add_host("a")
        b = net.add_host("b")
        with pytest.raises(NetworkError):
            net.transfer(a, b, -1.0)

    def test_byte_accounting(self):
        sim, net = make_net()
        a = net.add_host("a", up_bw=100.0, latency=0.0)
        b = net.add_host("b", down_bw=100.0, latency=0.0)
        net.transfer(a, b, 500.0)
        sim.run_until_idle()
        assert a.bytes_sent == pytest.approx(500.0)
        assert b.bytes_received == pytest.approx(500.0)
        assert net.total_bytes == pytest.approx(500.0)
        assert net.completed_flows == 1


class TestFairSharing:
    def test_destination_bottleneck_shared_equally(self):
        sim, net = make_net()
        a = net.add_host("a", up_bw=1000.0, latency=0.0)
        c = net.add_host("c", up_bw=1000.0, latency=0.0)
        b = net.add_host("b", down_bw=100.0, latency=0.0)
        done = {}
        net.transfer(a, b, 500.0, on_complete=lambda f: done.update(a=sim.now))
        net.transfer(c, b, 500.0, on_complete=lambda f: done.update(c=sim.now))
        sim.run_until_idle()
        # Both share 100 B/s -> 50 each -> both finish at 10 s.
        assert done["a"] == pytest.approx(10.0)
        assert done["c"] == pytest.approx(10.0)

    def test_released_capacity_speeds_up_remaining_flow(self):
        sim, net = make_net()
        a = net.add_host("a", up_bw=100.0, latency=0.0)
        b = net.add_host("b", down_bw=100.0, latency=0.0)
        c = net.add_host("c", up_bw=50.0, latency=0.0)
        done = {}
        net.transfer(a, b, 100.0, on_complete=lambda f: done.update(ab=sim.now))
        net.transfer(c, b, 50.0, on_complete=lambda f: done.update(cb=sim.now))
        sim.run_until_idle()
        # Shares: 50/50 until cb finishes at 1.0; then ab gets 100.
        assert done["cb"] == pytest.approx(1.0)
        assert done["ab"] == pytest.approx(1.5)

    def test_source_bottleneck(self):
        sim, net = make_net()
        a = net.add_host("a", up_bw=100.0, latency=0.0)
        b = net.add_host("b", down_bw=1000.0, latency=0.0)
        c = net.add_host("c", down_bw=1000.0, latency=0.0)
        done = {}
        net.transfer(a, b, 100.0, on_complete=lambda f: done.update(b=sim.now))
        net.transfer(a, c, 100.0, on_complete=lambda f: done.update(c=sim.now))
        sim.run_until_idle()
        assert done["b"] == pytest.approx(2.0)
        assert done["c"] == pytest.approx(2.0)

    def test_asymmetric_up_down(self):
        sim, net = make_net()
        a = net.add_host("a", up_bw=10.0, down_bw=1000.0, latency=0.0)
        b = net.add_host("b", up_bw=1000.0, down_bw=10.0, latency=0.0)
        done = []
        net.transfer(a, b, 100.0, on_complete=lambda f: done.append(sim.now))
        sim.run_until_idle()
        assert done == [pytest.approx(10.0)]

    def test_unrelated_flows_do_not_interfere(self):
        sim, net = make_net()
        a = net.add_host("a", up_bw=100.0, latency=0.0)
        b = net.add_host("b", down_bw=100.0, latency=0.0)
        c = net.add_host("c", up_bw=100.0, latency=0.0)
        d = net.add_host("d", down_bw=100.0, latency=0.0)
        done = {}
        net.transfer(a, b, 100.0, on_complete=lambda f: done.update(ab=sim.now))
        net.transfer(c, d, 100.0, on_complete=lambda f: done.update(cd=sim.now))
        sim.run_until_idle()
        assert done["ab"] == pytest.approx(1.0)
        assert done["cd"] == pytest.approx(1.0)


class TestFailures:
    def test_failed_host_aborts_flows(self):
        sim, net = make_net()
        a = net.add_host("a", up_bw=10.0, latency=0.0)
        b = net.add_host("b", down_bw=10.0, latency=0.0)
        aborted = []
        net.transfer(a, b, 1000.0, on_abort=lambda f: aborted.append(f))
        sim.schedule(1.0, lambda: net.fail_host(b))
        sim.run_until_idle()
        assert len(aborted) == 1
        assert aborted[0].aborted

    def test_transfer_to_dead_host_rejected(self):
        _, net = make_net()
        a = net.add_host("a")
        b = net.add_host("b")
        net.fail_host(b)
        with pytest.raises(NetworkError):
            net.transfer(a, b, 10.0)

    def test_abort_flow_api(self):
        sim, net = make_net()
        a = net.add_host("a", up_bw=10.0, latency=0.0)
        b = net.add_host("b", down_bw=10.0, latency=0.0)
        events = {"done": 0, "aborted": 0}
        flow = net.transfer(
            a, b, 1000.0,
            on_complete=lambda f: events.__setitem__("done", 1),
            on_abort=lambda f: events.__setitem__("aborted", 1),
        )
        sim.schedule(1.0, lambda: net.abort_flow(flow))
        sim.run_until_idle()
        assert events == {"done": 0, "aborted": 1}

    def test_recover_host_allows_new_transfers(self):
        sim, net = make_net()
        a = net.add_host("a", latency=0.0)
        b = net.add_host("b", latency=0.0)
        net.fail_host(b)
        net.recover_host(b)
        done = []
        net.transfer(a, b, 1.0, on_complete=lambda f: done.append(1))
        sim.run_until_idle()
        assert done == [1]


class TestControlMessages:
    def test_delivery_after_latency(self):
        sim, net = make_net()
        a = net.add_host("a", latency=0.1)
        b = net.add_host("b", latency=0.2)
        seen = []
        net.send_control(a, b, 48, on_delivery=lambda: seen.append(sim.now))
        sim.run_until_idle()
        assert seen == [pytest.approx(0.3)]

    def test_bytes_counted(self):
        _, net = make_net()
        a = net.add_host("a")
        b = net.add_host("b")
        net.send_control(a, b, 100)
        assert a.control_bytes_sent == 100
        assert b.control_bytes_received == 100
        assert net.total_control_bytes == 100

    def test_negative_size_rejected(self):
        _, net = make_net()
        a = net.add_host("a")
        b = net.add_host("b")
        with pytest.raises(NetworkError):
            net.send_control(a, b, -1)

    def test_no_delivery_to_dead_host(self):
        sim, net = make_net()
        a = net.add_host("a")
        b = net.add_host("b")
        net.fail_host(b)
        seen = []
        net.send_control(a, b, 10, on_delivery=lambda: seen.append(1))
        sim.run_until_idle()
        assert seen == []


class TestRemoteStorage:
    def test_request_overhead_accumulates(self):
        storage = RemoteStorage("s", up_bw=100.0, down_bw=100.0)
        assert storage.charge_request() == 0.05
        assert storage.charge_request() == 0.05
        assert storage.requests_served == 2
