"""Unit tests for speculative straggler mitigation (Sec. 6 future work)."""

import pytest

from repro.recovery.model import run_handles
from repro.recovery.speculation import SpeculationConfig, SpeculativeStarRecovery
from repro.recovery.star import StarRecovery
from repro.util.sizes import MB, mbit_per_s


def make_straggler(world, registered, shard_index=0, slow_mbit=1.0):
    """Throttle the uplink of one shard's primary provider."""
    provider = registered.plan.providers_for(shard_index)[0].node
    provider.host.up_bw = mbit_per_s(slow_mbit)
    return provider


def run_mechanism(world, mechanism, name="app/state"):
    registered = world.manager.states[name]
    replacement = world.fail_owner(name)
    handle = mechanism.start(world.ctx, registered.plan, replacement, name)
    return run_handles(world.sim, [handle])[0]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SpeculationConfig(straggler_factor=1.0)
        with pytest.raises(ValueError):
            SpeculationConfig(min_wait=-1)
        with pytest.raises(ValueError):
            SpeculationConfig(reference_bandwidth=0)

    def test_deadline_scales_with_size(self):
        config = SpeculationConfig()
        assert config.deadline(64 * MB) > config.deadline(8 * MB)

    def test_deadline_floor(self):
        config = SpeculationConfig(min_wait=1.0)
        assert config.deadline(1) == 1.0


class TestSpeculativeRecovery:
    def test_no_straggler_no_speculation(self, world_factory):
        w = world_factory(link_mbit=1000)
        w.save_synthetic(size=16 * MB, shards=4)
        result = run_mechanism(w, SpeculativeStarRecovery())
        assert result.detail["speculations"] == 0
        assert result.duration > 0

    def test_straggler_triggers_speculation(self, world_factory):
        w = world_factory(link_mbit=1000)
        registered, _ = w.save_synthetic(size=32 * MB, shards=4, replicas=2)
        make_straggler(w, registered, slow_mbit=1.0)
        result = run_mechanism(w, SpeculativeStarRecovery())
        assert result.detail["speculations"] >= 1

    def test_speculation_beats_plain_star_under_straggler(self, world_factory):
        times = {}
        for name, mechanism in (
            ("plain", StarRecovery(fanout_bits=2)),
            ("speculative", SpeculativeStarRecovery()),
        ):
            w = world_factory(link_mbit=1000)
            registered, _ = w.save_synthetic(size=32 * MB, shards=4, replicas=2)
            make_straggler(w, registered, slow_mbit=1.0)
            times[name] = run_mechanism(w, mechanism).duration
        assert times["speculative"] < times["plain"]

    def test_comparable_without_straggler(self, world_factory):
        times = {}
        for name, mechanism in (
            ("plain", StarRecovery(fanout_bits=2)),
            ("speculative", SpeculativeStarRecovery()),
        ):
            w = world_factory(link_mbit=1000)
            w.save_synthetic(size=16 * MB, shards=4)
            times[name] = run_mechanism(w, mechanism).duration
        assert times["speculative"] == pytest.approx(times["plain"], rel=0.25)

    def test_recovers_even_when_all_replicas_slow(self, world_factory):
        w = world_factory(link_mbit=1000)
        registered, _ = w.save_synthetic(size=16 * MB, shards=4, replicas=2)
        for placed in registered.plan.links[0].plan.for_shard(0):
            placed.node.host.up_bw = mbit_per_s(5.0)
        result = run_mechanism(w, SpeculativeStarRecovery())
        assert result.shards_recovered == 4

    def test_missing_shard_fails(self, world):
        registered, _ = world.save_synthetic(size=8 * MB, shards=4)
        for placed in registered.plan.links[0].plan.for_shard(0):
            placed.node.drop_shard(placed.replica.key)
        replacement = world.fail_owner()
        handle = SpeculativeStarRecovery().start(
            world.ctx, registered.plan, replacement, "app/state"
        )
        from repro.errors import InsufficientShardsError

        with pytest.raises(InsufficientShardsError):
            handle.result

    def test_invalid_fanout(self):
        with pytest.raises(ValueError):
            SpeculativeStarRecovery(fanout_bits=-1)
