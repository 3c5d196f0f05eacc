"""Unit tests for the recovery manager."""

import pytest

from repro.recovery.deployment import saved_delta
from repro.errors import RecoveryError, StateError
from repro.recovery.line import LineRecovery
from repro.recovery.star import StarRecovery
from repro.recovery.tree import TreeRecovery
from repro.state.chain import CompactionPolicy, VersionChain
from repro.state.partitioner import partition_synthetic
from repro.state.version import StateVersion
from repro.util.sizes import MB


def shards_for(name, size=8 * MB, count=4, seq=1):
    return partition_synthetic(name, int(size), count, StateVersion(0.0, seq))


class TestRegistration:
    def test_register_and_lookup(self, world):
        registered = world.manager.register(
            world.overlay.nodes[0], shards_for("a/s"), 2
        )
        assert registered.state_bytes == pytest.approx(8 * MB)
        assert "a/s" in world.manager.states

    def test_duplicate_rejected(self, world):
        world.manager.register(world.overlay.nodes[0], shards_for("a/s"), 2)
        with pytest.raises(StateError):
            world.manager.register(world.overlay.nodes[1], shards_for("a/s"), 2)

    def test_empty_shards_rejected(self, world):
        with pytest.raises(StateError):
            world.manager.register(world.overlay.nodes[0], [], 2)

    def test_refresh_shards(self, world):
        world.manager.register(world.overlay.nodes[0], shards_for("a/s"), 2)
        world.manager.refresh_shards("a/s", shards_for("a/s", size=16 * MB, seq=2))
        assert world.manager.states["a/s"].state_bytes == pytest.approx(16 * MB)

    def test_refresh_wrong_name_rejected(self, world):
        world.manager.register(world.overlay.nodes[0], shards_for("a/s"), 2)
        with pytest.raises(StateError):
            world.manager.refresh_shards("a/s", shards_for("other"))

    def test_refresh_unknown_state(self, world):
        with pytest.raises(StateError):
            world.manager.refresh_shards("ghost", shards_for("ghost"))


class TestSaveAndRecover:
    def test_save_records_plan(self, world):
        world.manager.register(world.overlay.nodes[0], shards_for("a/s"), 2)
        handle = world.manager.save("a/s")
        world.sim.run_until_idle()
        registered = world.manager.states["a/s"]
        assert registered.plan is not None
        assert registered.last_save_duration == handle.result.duration

    def test_save_all(self, world):
        for i, name in enumerate(["a/s", "b/s"]):
            world.manager.register(world.overlay.nodes[i], shards_for(name), 2)
        handles = world.manager.save_all()
        world.sim.run_until_idle()
        assert len(handles) == 2
        assert all(h.done for h in handles)

    def test_recover_unsaved_state_rejected(self, world):
        world.manager.register(world.overlay.nodes[0], shards_for("a/s"), 2)
        with pytest.raises(RecoveryError):
            world.manager.recover("a/s")

    def test_recover_alive_owner_needs_explicit_replacement(self, world):
        world.save_synthetic("a/s")
        with pytest.raises(RecoveryError):
            world.manager.recover("a/s")

    def test_recover_with_explicit_replacement(self, world):
        world.save_synthetic("a/s")
        handle = world.manager.recover("a/s", replacement=world.overlay.nodes[5])
        results = world.manager.run([handle])
        assert results[0].replacement == world.overlay.nodes[5].name

    def test_recover_after_owner_failure_auto_replacement(self, world):
        world.save_synthetic("a/s")
        owner = world.manager.states["a/s"].owner
        world.overlay.fail_node(owner)
        handle = world.manager.recover("a/s")
        result = world.manager.run([handle])[0]
        expected = world.overlay.replacement_for(owner)
        assert result.replacement == expected.name

    def test_unknown_state(self, world):
        with pytest.raises(StateError):
            world.manager.recover("ghost")


class TestMechanismSelection:
    def test_small_state_selects_star(self, world):
        world.save_synthetic("a/s", size=8 * MB)
        assert isinstance(world.manager.mechanism_for("a/s"), StarRecovery)

    def test_large_state_unconstrained_selects_line(self, world):
        world.save_synthetic("a/s", size=128 * MB, shards=16)
        assert isinstance(world.manager.mechanism_for("a/s"), LineRecovery)

    def test_large_state_constrained_selects_tree(self, world):
        world.manager.bandwidth_constrained = True
        world.save_synthetic("a/s", size=128 * MB, shards=16)
        assert isinstance(world.manager.mechanism_for("a/s"), TreeRecovery)

    def test_explicit_mechanism_wins(self, world):
        world.save_synthetic("a/s", size=128 * MB, shards=16)
        owner = world.manager.states["a/s"].owner
        world.overlay.fail_node(owner)
        handle = world.manager.recover("a/s", mechanism=StarRecovery())
        result = world.manager.run([handle])[0]
        assert result.mechanism == "star"


class TestMultipleFailures:
    def test_on_failures_recovers_only_affected_states(self, world_factory):
        w = world_factory(num_nodes=128, placement="hash")
        owners = w.overlay.nodes[:3]
        for i, owner in enumerate(owners):
            w.manager.register(owner, shards_for(f"app{i}/s"), 2)
        for h in w.manager.save_all():
            pass
        w.sim.run_until_idle()
        w.overlay.fail_node(owners[0])
        w.overlay.fail_node(owners[2])
        handles = w.manager.on_failures([owners[0], owners[2]])
        assert len(handles) == 2
        results = w.manager.run(handles)
        names = {r.state_name for r in results}
        assert names == {"app0/s", "app2/s"}

    def test_simultaneous_recoveries_share_simulation(self, world_factory):
        w = world_factory(num_nodes=128, placement="hash")
        owners = w.overlay.nodes[:4]
        for i, owner in enumerate(owners):
            w.manager.register(owner, shards_for(f"app{i}/s", size=16 * MB), 2)
        w.manager.save_all()
        w.sim.run_until_idle()
        for owner in owners:
            w.overlay.fail_node(owner)
        results = w.manager.run(w.manager.on_failures(owners))
        assert len(results) == 4
        # Concurrent recoveries finish; each took nonzero simulated time.
        assert all(r.duration > 0 for r in results)


class TestChainSaves:
    def test_delta_round_extends_chain(self, world):
        registered, _ = world.save_synthetic()
        _, result = saved_delta(world, "app/state", 128 * 1024)
        assert result.mode == "delta"
        assert result.chain_len == 2
        assert registered.plan.length == 2
        assert isinstance(registered.plan, VersionChain)
        assert registered.plan.shard_indexes() == list(range(2 * 4))

    def test_full_save_resets_chain(self, world):
        registered, _ = world.save_synthetic()
        saved_delta(world, "app/state", 128 * 1024)
        handle = world.manager.save("app/state")
        world.sim.run_until_idle()
        assert handle.result.mode == "full"
        assert registered.plan.length == 1
        assert registered.plan.shard_indexes() == list(range(4))

    def test_compaction_length_promotes_delta_to_full(self, world):
        world.manager.compaction = CompactionPolicy(max_chain_len=2)
        registered, _ = world.save_synthetic()
        _, first = saved_delta(world, "app/state", 64 * 1024)
        assert first.mode == "delta"
        _, second = saved_delta(world, "app/state", 64 * 1024)
        assert second.mode == "full"
        assert registered.plan.length == 1

    def test_compaction_ratio_promotes_delta_to_full(self, world):
        # 5 MB of deltas against an 8 MB base overshoots the default 0.5
        # ratio, so the round is promoted before it ships.
        world.save_synthetic(size=8 * MB)
        _, result = saved_delta(world, "app/state", 5 * MB)
        assert result.mode == "full"

    def test_replica_loss_promotes_delta_to_full(self, world):
        registered, _ = world.save_synthetic()
        saved_delta(world, "app/state", 64 * 1024)
        holder = next(
            placed.node
            for link in registered.plan.links
            for placed in link.plan.placements
            if placed.node is not registered.owner
        )
        world.overlay.fail_node(holder)
        _, result = saved_delta(world, "app/state", 64 * 1024)
        assert result.mode == "full"
        assert registered.plan.length == 1

    def test_recovered_snapshot_replays_chain(self, world):
        registered, _ = world.save_synthetic(size=8 * MB)
        saved_delta(world, "app/state", 64 * 1024)
        snapshot = world.manager.recovered_snapshot("app/state")
        assert snapshot.size_bytes == 8 * MB
        assert snapshot.version == registered.plan.tip_version

    def test_chain_recovery_fetches_every_segment(self, world):
        registered, _ = world.save_synthetic()
        saved_delta(world, "app/state", 64 * 1024)
        saved_delta(world, "app/state", 64 * 1024)
        assert registered.plan.length == 3
        world.fail_owner("app/state")
        result = world.manager.run([world.manager.recover("app/state")])[0]
        assert result.shards_recovered == 3 * 4


class TestSaveRecoveryInterlock:
    def test_save_rejected_while_recovery_in_flight(self, world):
        world.save_synthetic()
        handle = world.manager.recover(
            "app/state", replacement=world.overlay.nodes[5]
        )
        assert not handle.done
        with pytest.raises(RecoveryError, match="still in flight"):
            world.manager.save("app/state")
        world.manager.run([handle])
        # Once the recovery resolves, save rounds are accepted again.
        saved = world.manager.save("app/state")
        world.sim.run_until_idle()
        assert saved.result.mode == "full"

    def test_delta_save_rejected_while_recovery_in_flight(self, world):
        world.save_synthetic()
        saved_delta(world, "app/state", 64 * 1024)
        handle = world.manager.recover(
            "app/state", replacement=world.overlay.nodes[5]
        )
        with pytest.raises(RecoveryError, match="still in flight"):
            saved_delta(world, "app/state", 64 * 1024)
        world.manager.run([handle])

    def test_reregister_after_save_rejected(self, world):
        world.save_synthetic("a/s")
        with pytest.raises(StateError, match="already registered"):
            world.manager.register(world.overlay.nodes[1], shards_for("a/s"), 2)
