"""Vectorized water-filling equivalence: the numpy path vs the scalar solve.

Mirrors ``test_sim_network_equivalence.py`` one layer down: the vectorized
allocator in :mod:`repro.sim.flowvec` activates only when the live flow set
crosses a size threshold, so forcing the thresholds to 2/1/1 routes every
workload through the numpy arrays while the default thresholds keep the
same workload on the scalar reference. For any seed the two must produce
byte-identical completion times, telemetry timelines, and trace output —
that invariant is what lets the 50k-node cells regenerate the gated
``BENCH_sr3.json`` keys exactly.
"""

import builtins
import importlib
import json
import math
import random
from contextlib import contextmanager

import pytest

from repro.obs.tracer import Tracer
from repro.sim import flowvec
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from tests.test_sim_network_equivalence import ReferenceLinkRecorder

needs_numpy = pytest.mark.skipif(
    not flowvec.HAVE_NUMPY, reason="numpy not installed"
)


@contextmanager
def _thresholds(activate, deactivate, waterfill):
    """Temporarily re-pin the vector-mode thresholds."""
    saved = (
        flowvec.VECTOR_ACTIVATE,
        flowvec.VECTOR_DEACTIVATE,
        flowvec.WATERFILL_MIN,
    )
    flowvec.VECTOR_ACTIVATE = activate
    flowvec.VECTOR_DEACTIVATE = deactivate
    flowvec.WATERFILL_MIN = waterfill
    try:
        yield
    finally:
        (
            flowvec.VECTOR_ACTIVATE,
            flowvec.VECTOR_DEACTIVATE,
            flowvec.WATERFILL_MIN,
        ) = saved


def _vector_mode():
    """Every component, however small, runs through the numpy solver."""
    return _thresholds(2, 1, 1)


def _scalar_mode():
    """Vector mode can never activate: the pure-Python reference path."""
    return _thresholds(10**9, 1, 10**9)


def _trace_dump(tracer: Tracer) -> str:
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


def _run_mixed_workload(seed: int, network_cls=ReferenceLinkRecorder):
    """Randomized transfers, app flows with demand caps, degraded hosts.

    Returns everything observable about the run, serialized
    deterministically: (completions, aborts, telemetry_json, trace_json).
    The default network pushes per-host link series into the registry, so
    the telemetry holds every host's utilization at every reallocation.
    """
    rng = random.Random(seed)
    tracer = Tracer(f"flowvec-equiv-{seed}")
    sim = Simulator(tracer=tracer)
    net = network_cls(sim)
    hosts = [
        net.add_host(
            f"h{i}",
            up_bw=rng.choice([50.0, 100.0, 200.0, math.inf]),
            down_bw=rng.choice([50.0, 100.0, 200.0, math.inf]),
            latency=rng.choice([0.0, 0.001, 0.01]),
        )
        for i in range(10)
    ]
    completions = []
    aborts = []
    flows = []
    app_flows = []

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

    def open_app():
        src, dst = rng.sample(hosts, 2)
        if not (src.alive and dst.alive):
            return
        flow = net.open_app_flow(
            src,
            dst,
            demand=rng.uniform(5.0, 120.0),
            tag=f"app{len(app_flows)}",
        )
        app_flows.append(flow)

    def retune_demand():
        live = [f for f in app_flows if not (f.done or f.aborted)]
        if live:
            net.set_flow_demand(rng.choice(live), rng.uniform(5.0, 150.0))

    def degrade_host():
        net.set_host_bandwidth(
            rng.choice(hosts), rng.uniform(20.0, 300.0), rng.uniform(20.0, 300.0)
        )

    for _ in range(36):
        sim.schedule(rng.uniform(0.0, 5.0), start_transfer)
    # Same-instant bursts exercise the coalesced settle path.
    burst_at = rng.uniform(0.5, 2.0)
    for _ in range(5):
        sim.schedule(burst_at, start_transfer)
    for _ in range(4):
        sim.schedule(rng.uniform(0.0, 2.0), open_app)
    for _ in range(3):
        sim.schedule(rng.uniform(2.0, 5.0), retune_demand)
    for _ in range(3):
        sim.schedule(rng.uniform(1.0, 4.0), degrade_host)
    sim.schedule(
        rng.uniform(1.0, 3.0),
        lambda: flows and net.abort_flow(rng.choice(flows)),
    )
    sim.schedule(
        rng.uniform(1.5, 3.5),
        lambda: net.partition([h.name for h in hosts[:3]]),
    )
    sim.schedule(4.0, net.heal_partition)
    sim.schedule(
        rng.uniform(2.0, 4.0), lambda: net.fail_host(hosts[rng.randrange(10)])
    )
    # App flows never complete on their own; retire them so the run drains.
    sim.schedule(
        60.0,
        lambda: [
            net.close_app_flow(f) for f in app_flows if not (f.done or f.aborted)
        ],
    )
    sim.run_until_idle()
    telemetry = json.dumps(sim.metrics.dump(), sort_keys=True)
    return completions, aborts, telemetry, _trace_dump(tracer)


@needs_numpy
class TestVectorizedEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 7, 23, 41])
    def test_mixed_workloads_byte_identical(self, seed):
        with _vector_mode():
            vec = _run_mixed_workload(seed)
        with _scalar_mode():
            ref = _run_mixed_workload(seed)
        assert vec[0] == ref[0]  # completion (tag, time) pairs, in order
        assert vec[1] == ref[1]  # abort (tag, time) pairs, in order
        assert vec[2] == ref[2]  # serialized telemetry timelines
        assert vec[3] == ref[3]  # serialized trace spans

    def test_demand_capped_app_flow_exact_shares(self):
        """An app flow's demand cap binds exactly in the numpy solve."""
        with _vector_mode():
            sim = Simulator()
            net = Network(sim)
            a = net.add_host("a", up_bw=100.0, latency=0.0)
            b = net.add_host("b", down_bw=100.0, latency=0.0)
            done = []
            # Demand 30 B/s leaves 70 B/s for the bulk transfer.
            app = net.open_app_flow(a, b, demand=30.0)
            net.transfer(a, b, 700.0, on_complete=lambda f: done.append(sim.now))
            sim.schedule(20.0, lambda: net.close_app_flow(app))
            sim.run_until_idle()
            assert done == [pytest.approx(10.0)]

    def test_lifecycle_deactivates_below_threshold(self):
        """Vector mode engages on admission and disengages as flows drain."""
        with _thresholds(4, 2, 1):
            sim = Simulator()
            net = Network(sim)
            srcs = [net.add_host(f"s{i}", up_bw=100.0, latency=0.0) for i in range(5)]
            dsts = [net.add_host(f"d{i}", down_bw=100.0, latency=0.0) for i in range(5)]
            done = []
            for i, (src, dst) in enumerate(zip(srcs, dsts)):
                # Staggered sizes so flows finish one at a time.
                net.transfer(
                    src,
                    dst,
                    100.0 * (i + 1),
                    on_complete=lambda f: done.append(sim.now),
                )
            sim.run_until_idle()
            assert len(done) == 5
            assert done == sorted(done)
            assert net._vec is None  # drained below VECTOR_DEACTIVATE

    def test_host_byte_counters_read_through_vector_table(self):
        """External readers/writers of Host byte counters stay transparent.

        The checkpointing baseline adds to ``bytes_received`` directly;
        while vector mode owns the counters those writes must land in the
        table and survive deactivation.
        """
        with _vector_mode():
            sim = Simulator()
            net = Network(sim)
            a = net.add_host("a", up_bw=100.0, latency=0.0)
            b = net.add_host("b", down_bw=100.0, latency=0.0)
            for _ in range(3):
                net.transfer(a, b, 1000.0)
            sacrificial = net.transfer(a, b, 5000.0)
            seen = {}

            def mid_run():
                # The abort settles progress (activating vector mode for
                # the 4-flow set), then removes one flow.
                net.abort_flow(sacrificial)
                seen["vec_active"] = net._vec is not None
                seen["sent"] = a.bytes_sent
                b.bytes_received += 123.0  # external writer mid-vector-mode

            sim.schedule(1.0, mid_run)
            sim.run_until_idle()
            assert seen["vec_active"] is True
            # Four flows shared 100 B/s for 1 s before the abort.
            assert seen["sent"] == pytest.approx(100.0)
            assert net._vec is None  # drained -> detached
            # 25 B from the aborted flow + 3 x 1000 B + the external write.
            assert b.bytes_received == pytest.approx(25.0 + 3000.0 + 123.0)


class TestNoNumpyFallback:
    def test_import_path_without_numpy(self):
        """The module imports, declines vector mode, and stays correct.

        numpy is installed but its import raises: ``HAVE_NUMPY`` can only
        say "found", so the first attach asks, is refused, and clears it;
        no later settle asks again.
        """
        real_import = builtins.__import__
        attempts = []

        def no_numpy(name, *args, **kwargs):
            if name == "numpy":
                attempts.append(name)
                raise ImportError("numpy disabled for test")
            return real_import(name, *args, **kwargs)

        builtins.__import__ = no_numpy
        try:
            importlib.reload(flowvec)
            assert flowvec.HAVE_NUMPY is True and attempts == []
            # Even with thresholds forced down, activation must decline.
            with _vector_mode():
                sim = Simulator()
                net = Network(sim)
                a = net.add_host("a", up_bw=100.0, latency=0.0)
                b = net.add_host("b", down_bw=100.0, latency=0.0)
                done = []
                for _ in range(3):
                    net.transfer(
                        a, b, 1000.0, on_complete=lambda f: done.append(sim.now)
                    )
                sim.run_until_idle()
                assert net._vec is None
                assert done == [pytest.approx(30.0)] * 3
            assert flowvec.HAVE_NUMPY is False and attempts == ["numpy"]
        finally:
            builtins.__import__ = real_import
            importlib.reload(flowvec)
        assert flowvec.HAVE_NUMPY is True
