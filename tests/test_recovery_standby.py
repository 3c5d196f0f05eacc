"""The hot-standby tier: provisioning, warm takeover, cold degradation."""

import pytest

from repro.errors import InsufficientShardsError
from repro.recovery.standby import StandbyRecovery, sync_standby
from repro.recovery.star import StarRecovery
from repro.recovery.tree import TreeRecovery
from repro.state.shard import DeltaShard
from repro.state.version import StateVersion
from repro.util.sizes import MB


def pick_standby(world, name="app/state"):
    """A deterministic alive non-owner node to host the warm image."""
    owner = world.manager.states[name].owner
    return next(
        n for n in world.overlay.alive_nodes() if n.node_id != owner.node_id
    )


def provision(world, name="app/state"):
    registered = world.manager.states[name]
    standby = pick_standby(world, name)
    sync = sync_standby(world.ctx, registered, standby)
    world.sim.run_until_idle()
    return registered, standby, sync.result


def add_delta(world, name="app/state", delta_bytes=1 * MB):
    registered = world.manager.states[name]
    chain = registered.plan
    parent = chain.tip_version
    version = StateVersion(world.sim.now, parent.sequence + 1)
    per_shard = int(delta_bytes // chain.num_shards)
    delta = [
        DeltaShard.synthetic_delta(
            name, i, chain.num_shards, version, parent, chain.length, per_shard
        )
        for i in range(chain.num_shards)
    ]
    handle = world.manager.save_delta(name, delta)
    world.sim.run_until_idle()
    return handle.result


class TestSync:
    def test_sync_warms_every_segment(self, world):
        world.save_synthetic(size=8 * MB, shards=4)
        registered, standby, report = provision(world)
        assert report.copied_segments == 4
        assert report.missed_segments == 0
        assert report.copied_bytes == pytest.approx(8 * MB)
        # Every segment is warm on the standby: a re-sync ships nothing.
        again = sync_standby(world.ctx, registered, standby)
        world.sim.run_until_idle()
        assert again.result.warm_segments == 4
        assert again.result.copied_segments == 0

    def test_resync_is_incremental(self, world):
        world.save_synthetic(size=8 * MB, shards=4)
        registered, standby, _ = provision(world)
        again = sync_standby(world.ctx, registered, standby)
        world.sim.run_until_idle()
        assert again.result.copied_segments == 0
        assert again.result.warm_segments == 4
        assert again.result.warm_bytes == pytest.approx(8 * MB)

    def test_sync_covers_the_delta_chain(self, world):
        world.save_synthetic(size=8 * MB, shards=4)
        provision(world)
        add_delta(world)
        registered, standby, report = provision(world)
        # Base already warm; only the fresh delta link ships.
        assert report.warm_segments == 4
        assert report.copied_segments == 4
        again = sync_standby(world.ctx, registered, standby)
        world.sim.run_until_idle()
        assert again.result.warm_segments == 8
        assert again.result.copied_segments == 0

    def test_sync_counts_unreachable_segments_as_missed(self, world):
        registered, _ = world.save_synthetic(size=8 * MB, shards=4, replicas=2)
        for placed in list(registered.plan.links[0].plan.for_shard(0)):
            placed.node.drop_shard(placed.replica.key)
        _, _, report = provision(world)
        assert report.missed_segments == 1
        assert report.copied_segments == 3

    def test_no_standby_without_provisioning(self, world):
        registered, _ = world.save_synthetic()
        # Nothing is warm anywhere: a first sync finds no segment resident.
        sync = sync_standby(world.ctx, registered, pick_standby(world))
        world.sim.run_until_idle()
        assert sync.result.warm_segments == 0
        assert sync.result.copied_segments == registered.plan.num_shards


class TestTakeover:
    def test_warm_takeover_is_a_flip(self, world):
        world.save_synthetic(size=32 * MB, shards=4)
        registered, standby, _ = provision(world)
        world.overlay.fail_node(registered.owner)
        handle = StandbyRecovery().start(
            world.ctx, registered.plan, standby, "app/state"
        )
        world.sim.run_until_idle()
        result = handle.result
        assert result.mechanism == "standby"
        assert result.detail["warm_segments"] == 4
        assert result.detail["cold_segments"] == 0
        assert result.detail["flip_s"] > 0

    def test_takeover_beats_star_on_warm_state(self, world_factory):
        times = {}
        for label, mechanism, warm in (
            ("standby", StandbyRecovery(), True),
            ("star", StarRecovery(), False),
        ):
            world = world_factory()
            world.save_synthetic(size=32 * MB, shards=4)
            registered = world.manager.states["app/state"]
            standby = pick_standby(world)
            if warm:
                sync_standby(world.ctx, registered, standby)
                world.sim.run_until_idle()
            world.overlay.fail_node(registered.owner)
            handle = mechanism.start(
                world.ctx, registered.plan, standby, "app/state"
            )
            world.sim.run_until_idle()
            times[label] = handle.result.duration
        assert times["standby"] < 0.2 * times["star"]

    def test_partial_warm_fetches_the_cold_segment(self, world):
        world.save_synthetic(size=8 * MB, shards=4)
        registered, standby, _ = provision(world)
        # One warm copy evaporates; takeover must degrade, not fail.
        warm_keys = [
            p.replica.key
            for p in registered.plan.placements
            if getattr(p.replica, "standby", False)
        ]
        standby.drop_shard(warm_keys[0])
        world.overlay.fail_node(registered.owner)
        handle = StandbyRecovery().start(
            world.ctx, registered.plan, standby, "app/state"
        )
        world.sim.run_until_idle()
        result = handle.result
        assert result.detail["warm_segments"] == 3
        assert result.detail["cold_segments"] == 1

    def test_cold_takeover_without_provisioning_still_recovers(self, world):
        registered, _ = world.save_synthetic(size=8 * MB, shards=4)
        replacement = world.fail_owner()
        handle = StandbyRecovery().start(
            world.ctx, registered.plan, replacement, "app/state"
        )
        world.sim.run_until_idle()
        result = handle.result
        assert result.detail["warm_segments"] == 0
        assert result.detail["cold_segments"] == 4

    def test_takeover_replays_the_chain_tail(self, world):
        world.save_synthetic(size=8 * MB, shards=4)
        provision(world)
        add_delta(world)
        registered, standby, _ = provision(world)
        world.overlay.fail_node(registered.owner)
        handle = StandbyRecovery().start(
            world.ctx, registered.plan, standby, "app/state"
        )
        world.sim.run_until_idle()
        assert handle.result.detail["warm_segments"] == 8

    def test_insufficient_shards_fails(self, world):
        registered, _ = world.save_synthetic(size=8 * MB, shards=4)
        for placed in list(registered.plan.links[0].plan.for_shard(2)):
            placed.node.drop_shard(placed.replica.key)
        replacement = world.fail_owner()
        handle = StandbyRecovery().start(
            world.ctx, registered.plan, replacement, "app/state"
        )
        world.sim.run_until_idle()
        with pytest.raises(InsufficientShardsError):
            handle.result

    def test_fetch_window_validation(self):
        with pytest.raises(ValueError):
            StandbyRecovery(fetch_window=0)


class TestLiveTakeover:
    def test_standby_under_live_traffic_beats_tree_by_5x(self):
        """The acceptance gate: takeover < 0.2x tree makespan, live."""
        from repro.live.driver import LoadDriver, build_live_cell
        from repro.live.rates import FlashCrowd

        times = {}
        for label, mechanism, standby in (
            ("tree", TreeRecovery(fanout_bits=1, sub_shards=8), False),
            ("standby", StandbyRecovery(), True),
        ):
            cell = build_live_cell(num_nodes=16, seed=0, link_mbit=200.0)
            driver = LoadDriver(
                cell,
                FlashCrowd(base=300.0, peak=1500.0, at=8.0, ramp=2.0, hold=10.0, decay=5.0),
                duration=30.0,
                service_rate=3_000.0,
                checkpoint_at=(5.0, 8.0),
                kill_at=10.0,
                mechanism=mechanism,
                bulk_state_mb=32.0,
                standby=standby,
            )
            report = driver.run()
            assert report.recovery_s is not None
            times[label] = report.recovery_s
            if standby:
                assert driver.standby_syncs >= 2  # one re-warm per barrier
                assert driver.standby_warm_bytes > 32 * MB
        assert times["standby"] < 0.2 * times["tree"]
