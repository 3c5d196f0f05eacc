"""The allocator's fast paths against the slow ones they replaced.

Three oracles, each test-local: the push recorder that wrote every host's
link series on every reallocation (what the network did before the
telemetry pipeline sampled its links), the dict-based scalar water-fill
keyed on ``("up", name)`` tuples, and a completion tick that removes
finished flows one at a time.
"""

import json
import math
import random
from bisect import bisect_right

import pytest

from repro.errors import NetworkError
from repro.obs.timeseries import TelemetryPipeline
from repro.sim.kernel import Simulator
from repro.sim.network import _EPSILON_BYTES, Flow, Network
from tests.test_sim_flowvec_equivalence import (
    _run_mixed_workload,
    _scalar_mode,
    _thresholds,
    _vector_mode,
    needs_numpy,
)
from tests.test_sim_network_equivalence import (
    ReferenceLinkRecorder,
    _run_mixed_sequence,
)

_TICK = 0.05


def _run_sampled(workload, seed, network_cls=ReferenceLinkRecorder):
    """Run ``workload`` with a pipeline sampling every ``_TICK`` seconds.

    Ticks start off the grid the workloads schedule on and go on while the
    simulation has anything queued, so the last one falls after the drain.
    Returns ``(sim, pipeline, tick times)``.
    """
    made = []

    def network(sim):
        pipe = TelemetryPipeline(sim)
        ticks = []

        def tick():
            pipe.sample()
            ticks.append(sim.now)
            if sim.pending:
                sim.schedule(_TICK, tick)

        sim.schedule(0.013, tick)
        made.append((sim, pipe, ticks))
        return network_cls(sim)

    workload(seed, network)
    return made[0]


def _value_at(points, time):
    """Step lookup over ``(time, value)`` points; None before the first."""
    index = bisect_right(points, (time, math.inf))
    return points[index - 1][1] if index else None


def _assert_samples_equal_reference(sim, pipe, ticks):
    """At every tick every sampled link value is the pushed series' value."""
    pushed = {
        name.replace("ref.", "net.", 1): series.points
        for name, series in sim.metrics.all_series().items()
        if name.startswith("ref.host.")
    }
    sampled = {
        name: pipe.series(name).points
        for name in pipe.names()
        if name.startswith("net.host.")
    }
    assert sampled and set(sampled) <= set(pushed)
    assert len(ticks) > 100
    for name, reference in pushed.items():
        points = sampled.get(name, [])
        for time in ticks:
            seen = _value_at(points, time)
            if seen is None:  # never busy at a tick so far: nothing to write
                assert not _value_at(reference, time), (name, time)
            else:
                assert seen == _value_at(reference, time), (name, time)
        if points:
            assert points[-1][1] == 0.0  # the drop after the host went idle
            values = [v for _, v in points]
            assert all(a != b for a, b in zip(values, values[1:]))  # on change only


class TestChangeDrivenTelemetry:
    @pytest.mark.parametrize("seed", [0, 1, 2, 7, 23])
    def test_scalar_samples_equal_reference(self, seed):
        with _scalar_mode():
            _assert_samples_equal_reference(*_run_sampled(_run_mixed_sequence, seed))

    @needs_numpy
    @pytest.mark.parametrize("seed", [0, 1, 2, 7, 23])
    def test_forced_vector_samples_equal_reference(self, seed):
        with _vector_mode():
            _assert_samples_equal_reference(*_run_sampled(_run_mixed_sequence, seed))

    @pytest.mark.parametrize("seed", [0, 7, 41])
    def test_app_flows_and_demand_retunes(self, seed):
        """A retune re-rates flows without any flow joining or leaving."""
        with _scalar_mode():
            _assert_samples_equal_reference(*_run_sampled(_run_mixed_workload, seed))

    def test_idle_host_bandwidth_change_records_nothing(self):
        sim = Simulator()
        net = Network(sim)
        pipe = TelemetryPipeline(sim)
        a = net.add_host("a", up_bw=100.0)
        net.set_host_bandwidth(a, 50.0, 50.0)
        sim.run_until_idle()
        pipe.sample()
        assert not any(name.startswith("net.host.") for name in sim.metrics.all_series())
        assert not any(name.startswith("net.host.") for name in pipe.names())

    def test_host_series_live_in_the_pipeline_only(self):
        sim, pipe, _ticks = _run_sampled(_run_mixed_sequence, 0, Network)
        assert any(name.startswith("net.host.") for name in pipe.names())
        assert sorted(sim.metrics.all_series()) == ["net.flows_active"]


def reference_waterfill(flows):
    """The dict-based solver the link records replaced, kept as the oracle."""

    def ordered(items):
        return sorted(items, key=lambda f: f.seq)

    residual = {}
    members = {}
    for flow in flows:
        up_key = ("up", flow.src.name)
        down_key = ("down", flow.dst.name)
        if up_key not in residual:
            residual[up_key] = flow.src.up_bw
            members[up_key] = []
        members[up_key].append(flow)
        if down_key not in residual:
            residual[down_key] = flow.dst.down_bw
            members[down_key] = []
        members[down_key].append(flow)
    unfixed_count = {key: len(link) for key, link in members.items()}
    demand_capped = any(not math.isinf(f.demand) for f in flows)
    unfixed = set(flows)
    rates = {}
    while unfixed:
        bottleneck_share = math.inf
        for key, cap in residual.items():
            count = unfixed_count[key]
            if not count:
                continue
            share = cap / count
            if share < bottleneck_share:
                bottleneck_share = share
        if math.isinf(bottleneck_share):
            for flow in unfixed:
                rates[flow] = flow.demand
            break
        if demand_capped:
            saturated = [f for f in ordered(unfixed) if f.demand <= bottleneck_share]
            if saturated:
                touched = []
                for flow in saturated:
                    rates[flow] = flow.demand
                    unfixed.discard(flow)
                    for key in (("up", flow.src.name), ("down", flow.dst.name)):
                        residual[key] -= flow.demand
                        unfixed_count[key] -= 1
                        touched.append(key)
                for key in touched:
                    residual[key] = max(0.0, residual[key])
                continue
        newly_fixed = set()
        for key, cap in residual.items():
            count = unfixed_count[key]
            if count and cap / count <= bottleneck_share * (1 + 1e-12):
                newly_fixed.update(f for f in members[key] if f in unfixed)
        if not newly_fixed:
            raise NetworkError("water-filling failed to make progress")
        touched = []
        for flow in ordered(newly_fixed):
            rates[flow] = bottleneck_share
            unfixed.discard(flow)
            for key in (("up", flow.src.name), ("down", flow.dst.name)):
                residual[key] -= bottleneck_share
                unfixed_count[key] -= 1
                touched.append(key)
        for key in touched:
            residual[key] = max(0.0, residual[key])
    return rates


def _random_component(rng):
    """Hosts and flows with shared bottlenecks, open links and demand caps."""
    net = Network(Simulator())
    capacities = [50.0, 100.0, 200.0, math.inf, rng.uniform(10.0, 1000.0)]
    hosts = [
        net.add_host(f"h{i}", up_bw=rng.choice(capacities), down_bw=rng.choice(capacities))
        for i in range(rng.randint(2, 12))
    ]
    flows = []
    for seq in range(rng.randint(1, 40)):
        src, dst = rng.sample(hosts, 2)
        capped = rng.random() < 0.3
        flows.append(
            Flow(
                src, dst, math.inf if capped else 1000.0, None, None, None, 0.0,
                seq=seq, demand=rng.uniform(1.0, 150.0) if capped else math.inf,
                app=capped,
            )
        )
    return net, hosts, flows


class TestScalarWaterfill:
    @pytest.mark.parametrize("seed", range(60))
    def test_matches_reference_solver_exactly(self, seed):
        net, hosts, flows = _random_component(random.Random(seed))
        assert net._waterfill(flows) == reference_waterfill(flows)
        # The per-link working records are released after every solve.
        assert all(
            link.members is None for h in hosts for link in (h.up_link, h.down_link)
        )


    @pytest.mark.parametrize("same_host", [False, True])
    @pytest.mark.parametrize("down_bw", [50.0, 100.0, math.inf])
    @pytest.mark.parametrize("up_bw", [50.0, 100.0, math.inf])
    def test_a_flow_alone_on_both_links_takes_the_loops_value(self, up_bw, down_bw, same_host):
        """One flow is answered without the loop: the smaller capacity over
        one, or the demand of an app flow at or below it."""
        net = Network(Simulator())
        src = net.add_host("src", up_bw=up_bw, down_bw=down_bw)
        dst = src if same_host else net.add_host("dst", up_bw=7.0, down_bw=down_bw)
        share = min(up_bw, down_bw)
        demands = [math.inf, 0.0, 25.0, 1e9]
        if share != math.inf:
            demands += [share * (1 - 2**-52), share, share * (1 + 2**-52)]  # below, at, above
        for demand in demands:
            capped = demand != math.inf
            flow = Flow(
                src, dst, math.inf if capped else 1000.0, None, None, None, 0.0,
                seq=0, demand=demand, app=capped,
            )
            solved = net._waterfill([flow])
            assert solved == reference_waterfill([flow])
            assert solved[flow] == min(share, demand)
            # No working record was filled in on the way.
            assert not hasattr(src.up_link, "residual") and dst.down_link.members is None


class OneByOneNetwork(ReferenceLinkRecorder):
    """Completion oracle: each finished flow leaves through ``_remove_flow``."""

    def _on_completion_tick(self):
        self._completion_event = None
        self._settle_progress()
        if self._vec is not None:
            finished = [
                self._order_cache[p]
                for p in self._vec.finished_positions(_EPSILON_BYTES)
            ]
        else:
            finished = [f for f in self._order_cache if f.remaining <= _EPSILON_BYTES]
        for flow in finished:
            self._remove_flow(flow)
        for flow in finished:
            self._finish_flow(flow)
        self._request_recompute()


@needs_numpy
class TestBatchedCompletions:
    @staticmethod
    def _run(network_cls):
        """Six flows; three finish in one tick that takes the table from six
        rows to three, under the deactivation threshold of five."""
        sim = Simulator()
        net = network_cls(sim)
        srcs = [net.add_host(f"s{i}", up_bw=100.0, latency=0.0) for i in range(6)]
        dsts = [net.add_host(f"d{i}", down_bw=100.0, latency=0.0) for i in range(6)]
        sizes = [300.0, 900.0, 300.0, 700.0, 300.0, 500.0]
        flows = []
        log = []

        def completed(flow):
            log.append(
                (
                    flow.tag,
                    sim.now,
                    net._vec is None,
                    [f.remaining for f in flows],
                    [(h.bytes_sent, h.bytes_received) for h in srcs + dsts],
                )
            )

        for i, size in enumerate(sizes):
            flows.append(
                net.transfer(srcs[i], dsts[i], size, on_complete=completed, tag=f"f{i}")
            )
        sim.run_until_idle()
        return log, json.dumps(sim.metrics.dump(), sort_keys=True)

    def test_tick_crossing_the_deactivation_threshold_mid_batch(self):
        with _thresholds(6, 5, 10**9):
            batched = self._run(ReferenceLinkRecorder)
            one_by_one = self._run(OneByOneNetwork)
        assert batched == one_by_one
        log = batched[0]
        assert [entry[0] for entry in log[:3]] == ["f0", "f2", "f4"]
        assert {entry[1] for entry in log[:3]} == {3.0}
        # By the first callback the table is gone, the survivors carry the
        # byte counts it held, and the siblings finishing in the same tick
        # already read as drained.
        assert log[0][2] is True
        assert log[0][3] == [0.0, 600.0, 0.0, 400.0, 0.0, 200.0]

    def test_vector_mode_survives_a_batch_that_stays_above_threshold(self):
        with _thresholds(6, 2, 10**9):
            batched = self._run(ReferenceLinkRecorder)
            assert batched == self._run(OneByOneNetwork)
        assert batched[0][0][2] is False  # the table outlived the tick
