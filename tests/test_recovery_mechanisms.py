"""Unit tests for the star-, line-, and tree-structured mechanisms."""

import pytest

from repro.errors import InsufficientShardsError, RecoveryError
from repro.recovery.line import LineRecovery
from repro.recovery.model import run_handles
from repro.recovery.star import StarRecovery
from repro.recovery.tree import TreeRecovery
from repro.util.sizes import MB


def recover(world, mechanism, name="app/state"):
    registered = world.manager.states[name]
    replacement = world.fail_owner(name)
    handle = mechanism.start(world.ctx, registered.plan, replacement, name)
    return run_handles(world.sim, [handle])[0]


class TestStar:
    def test_completes_and_reports(self, world):
        world.save_synthetic(size=8 * MB, shards=4)
        result = recover(world, StarRecovery(fanout_bits=2))
        assert result.mechanism == "star"
        assert result.state_bytes == pytest.approx(8 * MB)
        assert result.shards_recovered == 4
        assert result.duration > 0
        assert result.bytes_transferred == pytest.approx(8 * MB)

    def test_uses_distinct_providers(self, world):
        world.save_synthetic(size=8 * MB, shards=4, replicas=2)
        result = recover(world, StarRecovery())
        # replacement + 4 distinct providers
        assert result.nodes_involved == 5

    def test_larger_state_slower(self, world_factory):
        times = []
        for size in (8 * MB, 64 * MB):
            w = world_factory()
            w.save_synthetic(size=size, shards=8)
            times.append(recover(w, StarRecovery()).duration)
        assert times[1] > times[0]

    def test_fanout_flat_when_unconstrained(self, world_factory):
        times = []
        for bits in (1, 4):
            w = world_factory()
            w.save_synthetic(size=16 * MB, shards=8)
            times.append(recover(w, StarRecovery(fanout_bits=bits)).duration)
        assert times[0] == pytest.approx(times[1], rel=0.05)

    def test_missing_all_replicas_fails(self, world):
        registered, _ = world.save_synthetic(size=8 * MB, shards=4)
        for placed in registered.plan.links[0].plan.for_shard(0):
            placed.node.drop_shard(placed.replica.key)
        replacement = world.fail_owner()
        handle = StarRecovery().start(
            world.ctx, registered.plan, replacement, "app/state"
        )
        with pytest.raises(InsufficientShardsError):
            handle.result

    def test_invalid_fanout(self):
        with pytest.raises(ValueError):
            StarRecovery(fanout_bits=-1)

    def test_recovers_with_one_surviving_replica_per_shard(self, world):
        registered, _ = world.save_synthetic(size=8 * MB, shards=4, replicas=2)
        # Drop one replica of every shard.
        for index in registered.plan.shard_indexes():
            placed = registered.plan.links[0].plan.for_shard(index)[0]
            placed.node.drop_shard(placed.replica.key)
        result = recover(world, StarRecovery())
        assert result.shards_recovered == 4


class TestLine:
    def test_completes(self, world):
        world.save_synthetic(size=16 * MB, shards=8)
        result = recover(world, LineRecovery(path_length=4))
        assert result.mechanism == "line"
        assert result.detail["path_length"] <= 4
        assert result.duration > 0

    def test_longer_path_slower(self, world_factory):
        times = []
        for length in (4, 32):
            w = world_factory(num_nodes=128, placement="hash")
            w.save_synthetic(size=16 * MB, shards=32)
            times.append(recover(w, LineRecovery(path_length=length)).duration)
        assert times[1] > times[0]

    def test_chain_capped_by_distinct_providers(self, world):
        world.save_synthetic(size=8 * MB, shards=2)
        result = recover(world, LineRecovery(path_length=16))
        assert result.detail["path_length"] <= 2

    def test_invalid_path(self):
        with pytest.raises(ValueError):
            LineRecovery(path_length=0)

    def test_missing_shard_fails(self, world):
        registered, _ = world.save_synthetic(size=8 * MB, shards=4)
        for placed in registered.plan.links[0].plan.for_shard(1):
            placed.node.drop_shard(placed.replica.key)
        replacement = world.fail_owner()
        handle = LineRecovery().start(
            world.ctx, registered.plan, replacement, "app/state"
        )
        with pytest.raises(InsufficientShardsError):
            handle.result


class TestTree:
    def test_completes(self, world_factory):
        w = world_factory(num_nodes=128, placement="hash")
        w.save_synthetic(size=32 * MB, shards=4)
        result = recover(w, TreeRecovery(fanout_bits=1, sub_shards=8))
        assert result.mechanism == "tree"
        assert result.duration > 0
        assert result.shards_recovered == 4
        assert result.detail["tree_height"] >= 1

    def test_larger_fanout_shallower_tree(self, world_factory):
        heights = []
        for bits in (1, 3):
            w = world_factory(num_nodes=128, placement="hash")
            w.save_synthetic(size=32 * MB, shards=4)
            result = recover(w, TreeRecovery(fanout_bits=bits, sub_shards=16))
            heights.append(result.detail["tree_height"])
        assert heights[1] < heights[0]

    def test_branch_depth_forces_deep_tree(self, world_factory):
        w = world_factory(num_nodes=128, placement="hash")
        w.save_synthetic(size=32 * MB, shards=2)
        result = recover(w, TreeRecovery(branch_depth=12, sub_shards=4))
        assert result.detail["tree_height"] >= 4

    def test_deeper_is_slower(self, world_factory):
        times = []
        for depth in (2, 32):
            w = world_factory(num_nodes=160, placement="hash")
            w.save_synthetic(size=32 * MB, shards=4)
            times.append(
                recover(w, TreeRecovery(branch_depth=depth, sub_shards=8)).duration
            )
        assert times[1] > times[0]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TreeRecovery(fanout_bits=-1)
        with pytest.raises(ValueError):
            TreeRecovery(branch_depth=0)
        with pytest.raises(ValueError):
            TreeRecovery(sub_shards=0)

    def test_missing_shard_fails(self, world_factory):
        w = world_factory(num_nodes=128, placement="hash")
        registered, _ = w.save_synthetic(size=8 * MB, shards=4)
        for placed in registered.plan.links[0].plan.for_shard(2):
            placed.node.drop_shard(placed.replica.key)
        replacement = w.fail_owner()
        handle = TreeRecovery().start(w.ctx, registered.plan, replacement, "app/state")
        with pytest.raises(InsufficientShardsError):
            handle.result


class TestRegimeOrderings:
    """The headline Fig. 8 regime claims as unit-level assertions."""

    def test_star_fastest_for_small_state(self, world_factory):
        times = {}
        for name, mech in (
            ("star", StarRecovery(fanout_bits=2)),
            ("line", LineRecovery(path_length=8)),
            ("tree", TreeRecovery(fanout_bits=1, sub_shards=8)),
        ):
            w = world_factory()
            w.save_synthetic(size=8 * MB, shards=4)
            times[name] = recover(w, mech).duration
        assert times["star"] == min(times.values())

    def test_tree_fastest_for_large_state_unconstrained(self, world_factory):
        times = {}
        for name, mech in (
            ("star", StarRecovery(fanout_bits=2)),
            ("line", LineRecovery(path_length=8)),
            ("tree", TreeRecovery(fanout_bits=1, sub_shards=8)),
        ):
            w = world_factory()
            w.save_synthetic(size=128 * MB, shards=16)
            times[name] = recover(w, mech).duration
        assert times["tree"] == min(times.values())
        assert times["line"] == max(times.values())

    def test_star_slowest_for_large_state_constrained(self, world_factory):
        times = {}
        for name, mech in (
            ("star", StarRecovery(fanout_bits=2)),
            ("line", LineRecovery(path_length=8)),
            ("tree", TreeRecovery(fanout_bits=1, sub_shards=8)),
        ):
            w = world_factory(link_mbit=100)
            w.save_synthetic(size=128 * MB, shards=16)
            times[name] = recover(w, mech).duration
        assert times["star"] == max(times.values())


class TestHandles:
    def test_result_before_completion_raises(self, world):
        registered, _ = world.save_synthetic()
        replacement = world.fail_owner()
        handle = StarRecovery().start(
            world.ctx, registered.plan, replacement, "app/state"
        )
        with pytest.raises(RecoveryError):
            _ = handle.result

    def test_run_handles_multiple_concurrent(self, world_factory):
        w = world_factory(num_nodes=128, placement="hash")
        names = []
        for i in range(3):
            name = f"app{i}/state"
            from repro.state.partitioner import partition_synthetic
            from repro.state.version import StateVersion

            shards = partition_synthetic(name, 8 * MB, 4, StateVersion(0.0, 1))
            w.manager.register(w.overlay.nodes[i], shards, 2)
            w.manager.save(name)
            names.append(name)
        w.sim.run_until_idle()
        for i in range(3):
            w.overlay.fail_node(w.overlay.nodes[i])
        handles = w.manager.on_failures([w.overlay.nodes[i] for i in range(3)])
        results = run_handles(w.sim, handles)
        assert len(results) == 3
        assert all(r.duration > 0 for r in results)
