"""Unit tests for the SR3 save pipeline."""

import pytest

from repro.errors import RecoveryError, StateError
from repro.recovery.save import SaveHandle, SaveResult, sr3_save
from repro.state.shard import DeltaShard
from repro.state.partitioner import partition_synthetic
from repro.state.placement import LeafSetPlacement
from repro.state.version import StateVersion
from repro.util.sizes import MB


def make_shards(size=8 * MB, count=4, name="app/state"):
    return partition_synthetic(name, int(size), count, StateVersion(0.0, 1))


class TestSave:
    def test_all_replicas_installed(self, world):
        handle = sr3_save(
            world.ctx, world.overlay.nodes[0], make_shards(), 2, LeafSetPlacement()
        )
        world.sim.run_until_idle()
        result = handle.result
        assert result.replicas_written == 8
        for placed in result.plan.placements:
            assert placed.node.get_shard(placed.replica.key) is placed.replica

    def test_duration_positive_and_bytes_counted(self, world):
        handle = sr3_save(
            world.ctx, world.overlay.nodes[0], make_shards(), 2, LeafSetPlacement()
        )
        world.sim.run_until_idle()
        result = handle.result
        assert result.duration > 0
        assert result.bytes_transferred == pytest.approx(2 * 8 * MB)

    def test_larger_state_takes_longer(self, world_factory):
        durations = []
        for size in (8 * MB, 64 * MB):
            w = world_factory(link_mbit=1000)
            handle = sr3_save(
                w.ctx, w.overlay.nodes[0], make_shards(size=size), 2, LeafSetPlacement()
            )
            w.sim.run_until_idle()
            durations.append(handle.result.duration)
        assert durations[1] > durations[0]

    def test_more_replicas_cost_more(self, world_factory):
        durations = []
        for replicas in (2, 4):
            w = world_factory(link_mbit=1000)
            handle = sr3_save(
                w.ctx, w.overlay.nodes[0], make_shards(), replicas, LeafSetPlacement()
            )
            w.sim.run_until_idle()
            durations.append(handle.result.duration)
        assert durations[1] > durations[0]

    def test_zero_shards_rejected(self, world):
        with pytest.raises(StateError):
            sr3_save(world.ctx, world.overlay.nodes[0], [], 2, LeafSetPlacement())

    def test_handle_not_done_before_run(self, world):
        handle = sr3_save(
            world.ctx, world.overlay.nodes[0], make_shards(), 2, LeafSetPlacement()
        )
        assert not handle.done
        world.sim.run_until_idle()
        assert handle.done

    def test_on_done_callback(self, world):
        handle = sr3_save(
            world.ctx, world.overlay.nodes[0], make_shards(), 2, LeafSetPlacement()
        )
        seen = []
        handle.on_done(lambda r: seen.append(r.state_name))
        world.sim.run_until_idle()
        assert seen == ["app/state"]


class TestSaveHandle:
    """SaveHandle mirrors RecoveryHandle's resolution semantics."""

    def resolved(self):
        handle = SaveHandle("app/state")
        result = SaveResult(
            state_name="app/state",
            state_bytes=8.0 * MB,
            started_at=0.0,
            finished_at=1.0,
            replicas_written=8,
            bytes_transferred=16.0 * MB,
            plan=None,
        )
        handle._resolve(result)
        return handle, result

    def test_late_on_done_fires_immediately(self):
        handle, result = self.resolved()
        seen = []
        handle.on_done(seen.append)
        assert seen == [result]

    def test_result_before_done_raises(self):
        handle = SaveHandle("app/state")
        with pytest.raises(RecoveryError, match="not finished"):
            _ = handle.result

    def test_double_resolve_rejected(self):
        handle, result = self.resolved()
        with pytest.raises(RecoveryError, match="resolved twice"):
            handle._resolve(result)

    def test_failed_handle_surfaces_its_error(self):
        handle = SaveHandle("app/state")
        boom = StateError("disk gone")
        handle._fail(boom)
        assert handle.done
        with pytest.raises(StateError, match="disk gone"):
            _ = handle.result

    def test_resolve_after_fail_rejected(self):
        handle, result = self.resolved()
        with pytest.raises(RecoveryError, match="resolved twice"):
            handle._fail(StateError("late failure"))


class TestDeltaRounds:
    def delta_shards(self, base, count=4, name="app/state"):
        version = StateVersion(1.0, 2)
        return [
            DeltaShard.synthetic_delta(
                name, i, count, version, base[0].version, 1, 64 * 1024
            )
            for i in range(count)
        ]

    def test_delta_mode_carried_to_result(self, world):
        base = make_shards()
        sr3_save(world.ctx, world.overlay.nodes[0], base, 2, LeafSetPlacement())
        world.sim.run_until_idle()
        handle = sr3_save(
            world.ctx,
            world.overlay.nodes[0],
            self.delta_shards(base),
            2,
            LeafSetPlacement(),
            mode="delta",
            chain_len=2,
        )
        world.sim.run_until_idle()
        result = handle.result
        assert result.mode == "delta"
        assert result.chain_len == 2
        assert result.delta_bytes == pytest.approx(4 * 64 * 1024)
        assert result.bytes_transferred == pytest.approx(2 * 4 * 64 * 1024)

    def test_full_save_reports_no_delta_payload(self, world):
        handle = sr3_save(
            world.ctx, world.overlay.nodes[0], make_shards(), 2, LeafSetPlacement()
        )
        world.sim.run_until_idle()
        assert handle.result.mode == "full"
        assert handle.result.delta_bytes == 0.0
        assert handle.result.chain_len == 1

    def test_unknown_mode_rejected(self, world):
        with pytest.raises(StateError, match="unknown save mode"):
            sr3_save(
                world.ctx,
                world.overlay.nodes[0],
                make_shards(),
                2,
                LeafSetPlacement(),
                mode="bogus",
            )
