"""Unit tests for the chaos fault injectors."""

import pytest

from repro.chaos import (
    INJECTOR_KINDS,
    BandwidthFlap,
    CrashWave,
    MidRecoveryCrash,
    NetworkPartition,
    PoissonChurn,
    RackFailure,
    SCENARIOS,
    Straggler,
    run_scenario,
)
from repro.chaos.campaign import ChaosEngine
from repro.chaos.scenario import Scenario
from repro.bench.harness import build_scenario
from repro.errors import SimulationError


def make_engine(scenario=None, mechanism="star", num_nodes=16):
    scenario = scenario or Scenario(name="t", num_states=1)
    deployment = build_scenario(
        num_nodes=num_nodes,
        seed=scenario.seed,
        uplink_mbit=scenario.uplink_mbit or None,
        downlink_mbit=scenario.uplink_mbit or None,
    )
    return ChaosEngine(deployment, scenario, mechanism)


class TestRegistry:
    def test_at_least_six_injector_kinds(self):
        assert len(INJECTOR_KINDS) >= 6


class TestValidation:
    def test_crash_wave_needs_victims(self):
        with pytest.raises(SimulationError):
            CrashWave(count=0)

    def test_churn_rate_positive(self):
        with pytest.raises(SimulationError):
            PoissonChurn(rate=0.0)

    def test_bandwidth_factor_bounds(self):
        with pytest.raises(SimulationError):
            Straggler(factor=1.5)

    def test_mid_recovery_target(self):
        with pytest.raises(SimulationError):
            MidRecoveryCrash(target="bystander")


class TestCrashWave:
    def test_owner_wave_kills_owners(self):
        engine = make_engine()
        engine.setup_states()
        owners = engine.owner_nodes()
        CrashWave(at=1.0, count=1).arm(engine)
        engine.sim.run_until_idle()
        crashed = {r.target for r in engine.failures.crashes()}
        assert crashed & {n.name for n in owners}

    def test_records_are_seed_deterministic(self):
        def timeline():
            engine = make_engine()
            engine.setup_states()
            CrashWave(at=1.0, count=2).arm(engine)
            PoissonChurn(duration=5.0, rate=0.5).arm(engine)
            engine.sim.run_until_idle()
            return [(r.time, r.kind, r.target) for r in engine.failures.records]

        assert timeline() == timeline()


class TestRackFailure:
    def test_kills_owner_and_neighbours(self):
        engine = make_engine()
        engine.setup_states()
        RackFailure().arm(engine)
        engine.sim.run_until_idle()
        assert len(engine.failures.crashes()) == 3


class TestPoissonChurn:
    def test_rejoining_keeps_membership(self):
        engine = make_engine()
        engine.setup_states()
        before = len(engine.overlay.alive_nodes())
        PoissonChurn(duration=10.0, rate=0.5).arm(engine)
        engine.sim.run_until_idle()
        crashes = len(engine.failures.crashes())
        assert crashes > 0
        assert engine.joins == crashes
        assert len(engine.overlay.alive_nodes()) == before


class TestNetworkPartition:
    def test_partitions_then_heals(self):
        engine = make_engine()
        engine.setup_states()
        NetworkPartition(at=1.0, heal_after=2.0).arm(engine)
        engine.sim.run_until_idle()
        assert not engine.network.partitioned
        assert engine.sim.metrics.counter("net.partitions").total == 1
        assert engine.sim.metrics.counter("net.heals").total == 1


class TestBandwidthInjectors:
    def test_flap_restores_bandwidth(self):
        engine = make_engine(
            Scenario(name="t", num_states=1, uplink_mbit=100.0)
        )
        engine.setup_states()
        before = {n.name: n.host.up_bw for n in engine.overlay.nodes}
        BandwidthFlap(at=0.5, hosts=2, period=1.0).arm(engine)
        engine.sim.run_until_idle()
        after = {n.name: n.host.up_bw for n in engine.overlay.nodes}
        assert before == after

    def test_straggler_is_permanent(self):
        engine = make_engine(
            Scenario(name="t", num_states=1, uplink_mbit=100.0)
        )
        engine.setup_states()
        before = {n.name: n.host.up_bw for n in engine.overlay.nodes}
        Straggler(hosts=2, factor=0.25).arm(engine)
        engine.sim.run_until_idle()
        slowed = [
            n
            for n in engine.overlay.nodes
            if n.host.up_bw < before[n.name]
        ]
        assert len(slowed) == 2


class TestMidRecoveryCrash:
    def test_fires_only_budgeted_times(self):
        engine = make_engine()
        engine.setup_states()
        MidRecoveryCrash(target="replacement").arm(engine)
        # Two recoveries start; only the first takes the re-crash.
        fired = []
        engine.on_recovery_start(lambda *a: fired.append(a))
        CrashWave(at=1.0, count=1).arm(engine)
        engine.run()
        assert len(fired) >= 1

    def test_replacement_crash_is_survivable(self):
        outcome = run_scenario(SCENARIOS["mid-recovery-recrash"], "star")
        assert outcome.status in ("survived", "degraded")
        assert outcome.restarts >= 1
