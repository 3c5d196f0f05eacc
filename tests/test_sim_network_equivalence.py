"""Allocator equivalence: incremental max-min must match the full solve.

The network re-runs water-filling only over the connected component of the
link graph touched by a mutation; :class:`FullSolveNetwork` below is the
oracle that re-solves every live flow on every reallocation. For any seed
the two must produce byte-identical flow completion times, telemetry
timelines, and trace output — that invariant is what makes the fast path
safe. The per-host timelines come from :class:`ReferenceLinkRecorder`, the
push recorder the network carried until the telemetry pipeline began
sampling its links; it also serves as the oracle for those samples.
"""

import json
import math
import random

import pytest

from repro.obs.tracer import Tracer
from repro.sim.kernel import Simulator
from repro.sim.network import Network, _utilization


class ReferenceLinkRecorder(Network):
    """Per-host link series pushed into the registry on every reallocation.

    After each reallocation every host that carries a flow, or has carried
    one, gets a point on ``ref.host.<name>.{up_util,down_util,flows}`` when
    the value moved: the series ``Network`` itself recorded (as
    ``net.host.*``) before link telemetry became a sampled reading.
    """

    def _recompute_rates(self):
        super()._recompute_rates()
        now = self.sim.now
        recorded = self.sim.metrics.all_series()
        for name in sorted(self.hosts):
            host = self.hosts[name]
            out_flows = host.up_link.flows
            in_flows = host.down_link.flows
            prefix = f"ref.host.{name}."
            if not (out_flows or in_flows or prefix + "flows" in recorded):
                continue  # never busy: an idle host has no series
            for kind, value in (
                ("up_util", _utilization(out_flows, host.up_bw)),
                ("down_util", _utilization(in_flows, host.down_bw)),
                ("flows", float(len(out_flows) + len(in_flows))),
            ):
                series = self.sim.metrics.series(prefix + kind)
                if not len(series) or series.last()[1] != value:
                    series.record(now, value)


class FullSolveNetwork(ReferenceLinkRecorder):
    """The oracle: every reallocation re-solves every live flow.

    Before the network's own settle runs, any dirty link sends the whole
    admission-ordered flow list through ``_rerate``, the general solve, and
    clears the dirty set, so neither the component walk nor the lone-flow
    answer ever decides a rate here.
    """

    def _recompute_rates(self):
        if self._flows and self._dirty_links:
            self._rerate(self._order_cache, full=True)
            self._dirty_links.clear()
        super()._recompute_rates()


def _trace_dump(tracer: Tracer) -> str:
    """Deterministic serialization of every span the run produced."""
    spans = []
    for span in tracer.spans:
        spans.append(
            {
                "name": span.name,
                "category": span.category,
                "start": span.start,
                "end": span.end,
                "attrs": {k: repr(v) for k, v in sorted(span.attrs.items())},
            }
        )
    return json.dumps(spans, sort_keys=True)


def _run_mixed_sequence(seed: int, network_cls):
    """A randomized admit/abort/partition/bandwidth-change workload.

    Returns (completions, aborts, telemetry_json, trace_json) — everything
    observable about the run, serialized deterministically.
    """
    rng = random.Random(seed)
    tracer = Tracer(f"equiv-{seed}")
    sim = Simulator(tracer=tracer)
    net = network_cls(sim)
    hosts = [
        net.add_host(
            f"h{i}",
            up_bw=rng.choice([50.0, 100.0, 200.0, math.inf]),
            down_bw=rng.choice([50.0, 100.0, 200.0, math.inf]),
            latency=rng.choice([0.0, 0.001, 0.01]),
        )
        for i in range(8)
    ]
    completions = []
    aborts = []
    flows = []

    def start_transfer():
        src, dst = rng.sample(hosts, 2)
        if not (src.alive and dst.alive):
            return
        size = rng.uniform(10.0, 5000.0)
        tag = f"t{len(flows)}"
        flow = net.transfer(
            src,
            dst,
            size,
            on_complete=lambda f: completions.append((f.tag, sim.now)),
            on_abort=lambda f: aborts.append((f.tag, sim.now)),
            tag=tag,
        )
        flows.append(flow)

    for _ in range(30):
        sim.schedule(rng.uniform(0.0, 5.0), start_transfer)
    # Same-instant bursts exercise the coalesced settle path.
    burst_at = rng.uniform(0.5, 2.0)
    for _ in range(4):
        sim.schedule(burst_at, start_transfer)
    sim.schedule(
        rng.uniform(1.0, 3.0),
        lambda: flows and net.abort_flow(rng.choice(flows)),
    )
    sim.schedule(
        rng.uniform(1.0, 3.0),
        lambda: net.set_host_bandwidth(
            rng.choice(hosts), rng.uniform(20.0, 300.0), rng.uniform(20.0, 300.0)
        ),
    )
    sim.schedule(
        rng.uniform(1.5, 3.5),
        lambda: net.partition([h.name for h in hosts[:3]]),
    )
    sim.schedule(4.0, net.heal_partition)
    sim.schedule(
        rng.uniform(2.0, 4.0), lambda: net.fail_host(hosts[rng.randrange(8)])
    )
    sim.run_until_idle()
    telemetry = json.dumps(sim.metrics.dump(), sort_keys=True)
    return completions, aborts, telemetry, _trace_dump(tracer)


def _run_serial_sequence(seed: int, network_cls):
    """Flows one at a time: each starts after the last one ended.

    Along the chain come aborts, a partition and its heal, bandwidth
    changes, a host crash, zero-byte and unconstrained transfers and an
    app flow whose demand moves, so every reallocation but the app flow's
    meets a lone flow. Returns what ``_run_mixed_sequence`` returns.
    """
    rng = random.Random(seed)
    tracer = Tracer(f"serial-{seed}")
    sim = Simulator(tracer=tracer)
    net = network_cls(sim)
    hosts = [
        net.add_host(
            f"h{i}",
            up_bw=rng.choice([50.0, 100.0, math.inf]),
            down_bw=rng.choice([50.0, 100.0, math.inf]),
            latency=rng.choice([0.0, 0.001, 0.01]),
        )
        for i in range(5)
    ]
    completions, aborts = [], []
    steps = iter(range(40))
    later = sim.schedule

    def next_step(_flow=None):
        step = next(steps, None)
        if step is None:
            return
        src, dst = rng.sample([h for h in hosts if h.alive], 2)
        kind = rng.choice(
            ["plain", "abort", "bandwidth", "partition", "crash", "empty", "app"]
        )
        if kind == "app":
            flow = net.open_app_flow(src, dst, demand=rng.uniform(10.0, 120.0), tag=f"a{step}")
            later(rng.uniform(0.5, 2.0), lambda: net.set_flow_demand(flow, 40.0))
            later(3.0, lambda: (net.close_app_flow(flow), next_step()))
            return
        flow = net.transfer(
            src,
            dst,
            0.0 if kind == "empty" else rng.uniform(10.0, 400.0),
            on_complete=lambda f: (completions.append((f.tag, sim.now)), next_step()),
            on_abort=lambda f: (aborts.append((f.tag, sim.now)), next_step()),
            tag=f"t{step}",
        )
        at = rng.uniform(0.0, 3.0)
        if kind == "abort":
            later(at, lambda: net.abort_flow(flow))
        elif kind == "bandwidth":
            later(at, lambda: net.set_host_bandwidth(
                src, rng.choice([30.0, 200.0]), rng.choice([30.0, 200.0])
            ))
        elif kind == "partition":
            later(at, lambda: net.partition([src.name]))
            later(at + 0.5, net.heal_partition)
        elif kind == "crash":
            later(at, lambda: net.fail_host(dst))
            later(at + 0.5, lambda: net.recover_host(dst))

    next_step()
    sim.run_until_idle()
    assert max(sim.metrics.all_series()["net.flows_active"].values()) == 1.0
    telemetry = json.dumps(sim.metrics.dump(), sort_keys=True)
    return completions, aborts, telemetry, _trace_dump(tracer)


class TestAllocatorEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 7, 23])
    def test_mixed_sequences_byte_identical(self, seed):
        inc = _run_mixed_sequence(seed, ReferenceLinkRecorder)
        ref = _run_mixed_sequence(seed, FullSolveNetwork)
        assert inc[0] == ref[0]  # completion (tag, time) pairs, in order
        assert inc[1] == ref[1]  # abort (tag, time) pairs, in order
        assert inc[2] == ref[2]  # serialized telemetry timelines
        assert inc[3] == ref[3]  # serialized trace spans

    @pytest.mark.parametrize("seed", [0, 1, 2, 7, 23])
    def test_flows_one_at_a_time_byte_identical(self, seed):
        inc = _run_serial_sequence(seed, ReferenceLinkRecorder)
        assert inc == _run_serial_sequence(seed, FullSolveNetwork)
        assert len(inc[0]) > 5 and inc[1]  # both completions and aborts

    def test_component_merge_matches_global(self):
        """Two independent components merged by a bridging flow."""

        def run(network_cls):
            sim = Simulator()
            net = network_cls(sim)
            a = net.add_host("a", up_bw=100.0, latency=0.0)
            b = net.add_host("b", down_bw=100.0, up_bw=80.0, latency=0.0)
            c = net.add_host("c", up_bw=60.0, latency=0.0)
            d = net.add_host("d", down_bw=60.0, latency=0.0)
            done = []
            # Two disjoint components: a->b and c->d.
            net.transfer(a, b, 400.0, on_complete=lambda f: done.append(("ab", sim.now)))
            net.transfer(c, d, 300.0, on_complete=lambda f: done.append(("cd", sim.now)))
            # At t=1 a bridge b->d couples them into one component.
            sim.schedule(
                1.0,
                lambda: net.transfer(
                    b, d, 200.0, on_complete=lambda f: done.append(("bd", sim.now))
                ),
            )
            sim.run_until_idle()
            return done, json.dumps(sim.metrics.dump(), sort_keys=True)

        assert run(ReferenceLinkRecorder) == run(FullSolveNetwork)

    def test_untouched_component_keeps_exact_rate(self):
        """A mutation in one component must not perturb another's flows."""
        sim = Simulator()
        net = Network(sim)
        a = net.add_host("a", up_bw=100.0, latency=0.0)
        b = net.add_host("b", down_bw=100.0, latency=0.0)
        c = net.add_host("c", up_bw=70.0, latency=0.0)
        d = net.add_host("d", down_bw=70.0, latency=0.0)
        done = {}
        net.transfer(a, b, 1000.0, on_complete=lambda f: done.update(ab=sim.now))
        net.transfer(c, d, 7000.0, on_complete=lambda f: done.update(cd=sim.now))
        # A second a->b flow at t=1 dirties only a/b's links.
        sim.schedule(
            1.0,
            lambda: net.transfer(
                a, b, 500.0, on_complete=lambda f: done.update(ab2=sim.now)
            ),
        )
        sim.run_until_idle()
        # c->d runs at its full 70 B/s throughout: 7000/70 = 100 s.
        assert done["cd"] == pytest.approx(100.0)
        # a->b flows share 100 B/s from t=1: ab has 900 left, ab2 is 500.
        assert done["ab2"] == pytest.approx(11.0)
        assert done["ab"] == pytest.approx(15.0)

    def test_the_two_sides_take_different_paths(self, monkeypatch):
        """The oracle never solves a component or answers a lone flow
        directly; the network under test does both."""
        solves = []
        rerate = Network._rerate

        def counting(net, flows, full):
            solves.append((type(net), full))
            return rerate(net, flows, full)

        monkeypatch.setattr(Network, "_rerate", counting)
        _run_mixed_sequence(0, Network)
        _run_mixed_sequence(0, FullSolveNetwork)
        assert (Network, False) in solves
        assert (FullSolveNetwork, False) not in solves
        del solves[:]
        _run_serial_sequence(0, Network)
        assert solves == []  # every rate was the lone-flow answer
        _run_serial_sequence(0, FullSolveNetwork)
        assert (FullSolveNetwork, True) in solves
