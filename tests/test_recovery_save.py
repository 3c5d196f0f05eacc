"""Unit tests for the SR3 save pipeline."""

import re

import pytest

from repro.errors import RecoveryError, SaveAbortedError, StateError
from repro.obs.tracer import Tracer
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


def node_on(world, host):
    return next(node for node in world.overlay.nodes if node.host is host)


def in_flight(world):
    (flow,) = world.network._flows
    return flow


def kill_target(world):
    world.overlay.fail_node(node_on(world, in_flight(world).dst))


def kill_owner(world):
    world.overlay.fail_node(node_on(world, in_flight(world).src))


def cut_owner_off(world):
    world.network.partition([in_flight(world).src])


class TestSaveUnderFaults:
    """A write that loses an endpoint fails the round; no handle hangs.

    32 MB in four shards, two replicas each, written serially over 100 Mb/s
    links: at t=2.0 s the second write is on the wire.
    """

    def failed_save(self, world_factory, fault):
        world = world_factory(num_nodes=32, link_mbit=100)
        handle = sr3_save(
            world.ctx, world.overlay.nodes[0], make_shards(32 * MB), 2, LeafSetPlacement()
        )
        seen = {}

        def strike():
            seen["target"] = node_on(world, in_flight(world).dst).name
            fault(world)

        world.sim.schedule(2.0, strike)
        world.sim.run_until_idle()
        assert handle.done and world.sim.pending == 0
        with pytest.raises(SaveAbortedError) as raised:
            _ = handle.result
        message = str(raised.value)
        assert "'app/state'" in message
        assert re.search(rf"replica app/state/s\d\.r\d from \S+ to {seen['target']}\b", message)
        return world

    def test_target_killed_mid_write(self, world_factory):
        self.failed_save(world_factory, kill_target)

    def test_owner_killed_mid_write(self, world_factory):
        self.failed_save(world_factory, kill_owner)

    def test_owner_killed_between_writes(self, world_factory):
        # The first write lands at ~1.31 s and its ack runs until ~1.71 s.
        world = world_factory(num_nodes=32, link_mbit=100)
        owner = world.overlay.nodes[0]
        handle = sr3_save(world.ctx, owner, make_shards(32 * MB), 2, LeafSetPlacement())
        world.sim.schedule(1.5, world.overlay.fail_node, owner)
        world.sim.run_until_idle()
        assert world.sim.pending == 0
        with pytest.raises(SaveAbortedError, match=f"from {owner.name} to "):
            _ = handle.result

    def test_partition_cuts_the_write(self, world_factory):
        world = self.failed_save(world_factory, cut_owner_off)
        assert world.network.in_flight_flows() == 0

    def test_a_failed_round_closes_its_spans_and_counts_no_save(self, world_factory):
        world = world_factory(num_nodes=32, link_mbit=100)
        world.sim.attach_tracer(Tracer("save"))
        handle = sr3_save(
            world.ctx, world.overlay.nodes[0], make_shards(32 * MB), 2, LeafSetPlacement()
        )
        world.sim.schedule(2.0, kill_target, world)
        world.sim.run_until_idle()
        assert handle.done
        spans = world.sim.tracer.spans
        assert all(span.done for span in spans)
        (root,) = [s for s in spans if s.name == "recovery/save"]
        assert "error" in root.attrs
        assert "save.completed" not in world.sim.metrics.counters()


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
