"""Unit tests for the four baseline recovery approaches."""

import pytest

from repro.errors import InsufficientShardsError, RecoveryError
from repro.obs.tracer import Tracer
from repro.recovery.baselines.checkpointing import CheckpointConfig, CheckpointingBaseline
from repro.recovery.baselines.fp4s import Fp4sBaseline, Fp4sConfig
from repro.recovery.baselines.lineage import LineageBaseline, LineageConfig
from repro.recovery.baselines.replication import ReplicationBaseline
from repro.recovery.model import run_handles
from repro.util.sizes import MB


class TestCheckpointing:
    def make(self, world):
        return CheckpointingBaseline(world.ctx, world.storage)

    def test_save_duration_grows_with_size(self, world):
        cp = self.make(world)
        durations = []
        for size in (8 * MB, 64 * MB):
            handle = cp.save(world.overlay.nodes[0], size)
            world.sim.run_until_idle()
            durations.append(handle.result.duration)
        assert durations[1] > durations[0]

    def test_recover_includes_fetch_and_replay(self, world):
        cp = self.make(world)
        handle = cp.recover(world.overlay.nodes[1], world.overlay.nodes[2], 64 * MB)
        result = run_handles(world.sim, [handle])[0]
        cfg = cp.config
        minimum = (
            world.ctx.cost_model.detection_delay
            + cfg.recover_coordination
            + 64 * MB / cfg.storage_rate
        )
        assert result.duration >= minimum
        assert result.bytes_transferred == pytest.approx(
            64 * MB * (1 + cfg.replay_factor)
        )

    def test_requests_charged_per_chunk(self, world):
        cp = self.make(world)
        cp.save(world.overlay.nodes[0], 16 * MB)
        # 16 MB at 4 MB chunks -> 4 requests.
        assert world.storage.requests_served == 4

    def test_zero_replay_factor(self, world):
        cp = CheckpointingBaseline(
            world.ctx, world.storage, CheckpointConfig(replay_factor=0.0)
        )
        handle = cp.recover(world.overlay.nodes[1], world.overlay.nodes[2], 8 * MB)
        result = run_handles(world.sim, [handle])[0]
        assert result.duration > 0

    def test_negative_size_rejected(self, world):
        with pytest.raises(RecoveryError):
            self.make(world).save(world.overlay.nodes[0], -1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CheckpointConfig(storage_rate=0)
        with pytest.raises(ValueError):
            CheckpointConfig(chunk_bytes=0)
        with pytest.raises(ValueError):
            CheckpointConfig(replay_factor=-1)

    def test_recovery_slower_than_sr3_star(self, world_factory):
        from repro.recovery.star import StarRecovery

        w = world_factory()
        w.save_synthetic(size=64 * MB, shards=8)
        replacement = w.fail_owner()
        registered = w.manager.states["app/state"]
        star = StarRecovery().start(w.ctx, registered.plan, replacement, "app/state")
        star_time = run_handles(w.sim, [star])[0].duration

        w2 = world_factory()
        cp = CheckpointingBaseline(w2.ctx, w2.storage)
        handle = cp.recover(w2.overlay.nodes[1], w2.overlay.nodes[2], 64 * MB)
        cp_time = run_handles(w2.sim, [handle])[0].duration
        assert star_time < cp_time

    @pytest.mark.parametrize("victim", ["upstream", "replacement"])
    @pytest.mark.parametrize("when", ["before the replay", "mid-replay"])
    def test_lost_replay_fails_the_handle(self, world_factory, monkeypatch, victim, when):
        """A dead end of the replay used to raise ``NetworkError`` out of
        ``sim.run()`` (dead at the start) or leave the handle pending for
        ever (dying mid-flow); both are a failed handle now."""
        monkeypatch.setattr("repro.sim.kernel.new_tracer", lambda: Tracer("test"))
        w = world_factory(link_mbit=100)
        cp = CheckpointingBaseline(w.ctx, w.storage)
        upstream, replacement = w.overlay.nodes[1], w.overlay.nodes[2]
        handle = cp.recover(upstream, replacement, 8 * MB, state_name="s")
        if when == "mid-replay":
            w.sim.run(until=w.ctx.cost_model.detection_delay + cp.config.recover_coordination
                      + 8 * MB / cp.config.storage_rate + 0.5)
            assert w.network.in_flight_flows() == 1 and not handle.done
        w.overlay.fail_node(upstream if victim == "upstream" else replacement)
        w.sim.run_until_idle()
        assert handle.done and w.network.in_flight_flows() == 0
        expected = "upstream node node-1 was lost" if victim == "upstream" else (
            "replacement node node-2 died during checkpointing"
        )
        with pytest.raises(RecoveryError, match=expected):
            handle.result
        (root,) = w.sim.tracer.find("baseline/checkpoint-recover")
        assert root.end is not None and root.attrs["aborted"] is True
        assert all(span.end is not None for span in w.sim.tracer.spans)
        assert w.sim.metrics.counter("recovery.failed").get("checkpointing") == 1
        assert w.sim.metrics.counter("recovery.completed").total == 0


class TestReplication:
    def test_failover_is_fast(self, world):
        rep = ReplicationBaseline(world.ctx)
        rep.protect(world.overlay.nodes[0], world.overlay.nodes[1])
        handle = rep.recover(world.overlay.nodes[0], 64 * MB)
        result = run_handles(world.sim, [handle])[0]
        assert result.duration == pytest.approx(rep.config.failover_delay)
        assert result.bytes_transferred == 0

    def test_unprotected_primary_rejected(self, world):
        rep = ReplicationBaseline(world.ctx)
        with pytest.raises(RecoveryError):
            rep.recover(world.overlay.nodes[0], 1 * MB)

    def test_self_standby_rejected(self, world):
        rep = ReplicationBaseline(world.ctx)
        with pytest.raises(RecoveryError):
            rep.protect(world.overlay.nodes[0], world.overlay.nodes[0])

    def test_dead_standby_rejected(self, world):
        rep = ReplicationBaseline(world.ctx)
        rep.protect(world.overlay.nodes[0], world.overlay.nodes[1])
        world.overlay.fail_node(world.overlay.nodes[1])
        with pytest.raises(RecoveryError):
            rep.recover(world.overlay.nodes[0], 1 * MB)


class TestLineage:
    def test_matches_closed_form(self, world):
        lineage = LineageBaseline(world.ctx)
        handle = lineage.recover(world.overlay.nodes[0], 64 * MB)
        result = run_handles(world.sim, [handle])[0]
        cfg = lineage.config
        per_stage = 64 * MB / (cfg.recompute_rate * cfg.parallelism)
        closed_form = world.ctx.cost_model.detection_delay + cfg.lineage_depth * (
            cfg.stage_overhead + per_stage
        )
        assert result.duration == pytest.approx(closed_form, rel=1e-6)

    def test_longer_lineage_slower(self, world_factory):
        times = []
        for depth in (4, 16):
            w = world_factory()
            lineage = LineageBaseline(w.ctx, LineageConfig(lineage_depth=depth))
            handle = lineage.recover(w.overlay.nodes[0], 32 * MB)
            times.append(run_handles(w.sim, [handle])[0].duration)
        assert times[1] > times[0]

    def test_invalid_inputs(self, world):
        lineage = LineageBaseline(world.ctx)
        with pytest.raises(RecoveryError):
            lineage.recover(world.overlay.nodes[0], -1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LineageConfig(lineage_depth=0)
        with pytest.raises(ValueError):
            LineageConfig(parallelism=0)
        with pytest.raises(ValueError):
            LineageConfig(recompute_rate=0)


class TestFp4s:
    def test_save_writes_n_fragments(self, world):
        fp4s = Fp4sBaseline(world.ctx)
        targets = world.overlay.nodes[1:31]
        handle = fp4s.save(world.overlay.nodes[0], targets, 64 * MB)
        world.sim.run_until_idle()
        result = handle.result
        assert result.replicas_written == 26
        assert result.bytes_transferred == pytest.approx(64 * MB * 26 / 16)

    def test_storage_overhead_is_62_5_percent(self):
        assert Fp4sConfig().storage_overhead == pytest.approx(0.625)

    def test_recover_needs_m_providers(self, world):
        fp4s = Fp4sBaseline(world.ctx)
        with pytest.raises(InsufficientShardsError):
            fp4s.recover(world.overlay.nodes[1:10], world.overlay.nodes[0], 8 * MB)

    def test_decode_overhead_grows_with_size(self, world_factory):
        times = []
        for size in (32 * MB, 128 * MB):
            w = world_factory()
            fp4s = Fp4sBaseline(w.ctx)
            handle = fp4s.recover(w.overlay.nodes[1:31], w.overlay.nodes[0], size)
            times.append(run_handles(w.sim, [handle])[0].duration)
        assert times[1] > times[0]

    def test_slower_than_star_due_to_decode(self, world_factory):
        from repro.recovery.star import StarRecovery

        w = world_factory()
        w.save_synthetic(size=128 * MB, shards=16)
        replacement = w.fail_owner()
        registered = w.manager.states["app/state"]
        star = StarRecovery().start(w.ctx, registered.plan, replacement, "app/state")
        star_time = run_handles(w.sim, [star])[0].duration

        w2 = world_factory()
        fp4s = Fp4sBaseline(w2.ctx)
        handle = fp4s.recover(w2.overlay.nodes[1:31], w2.overlay.nodes[0], 128 * MB)
        fp4s_time = run_handles(w2.sim, [handle])[0].duration
        assert fp4s_time > star_time

    def test_save_needs_enough_targets(self, world):
        fp4s = Fp4sBaseline(world.ctx)
        with pytest.raises(RecoveryError):
            fp4s.save(world.overlay.nodes[0], world.overlay.nodes[1:5], 8 * MB)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            Fp4sConfig(num_data=16, num_coded=8)
        with pytest.raises(ValueError):
            Fp4sConfig(num_data=0, num_coded=8)
        with pytest.raises(ValueError):
            Fp4sConfig(encode_rate=0)
