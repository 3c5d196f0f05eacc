"""Shard-granular control: diagnoses, actions, policy, and the full loop."""

import pytest

from repro.bench.harness import build_scenario
from repro.control import (
    ControlConfig,
    Controller,
    ControlPlane,
    default_policy,
    shard_granular_policy,
)
from repro.control.actions import build_action
from repro.control.diagnose import Diagnosis, diagnose
from repro.recovery.standby import standby_coverage, standby_node_of, sync_standby
from repro.state.shard import Shard
from repro.state.version import StateVersion
from repro.util.sizes import MB

SKEWED = (4 * MB, 4 * MB, int(0.1 * MB), int(0.1 * MB))


def register_skewed(world, sizes=SKEWED, name="app/state", replicas=2):
    """A saved state whose partition is lopsided (two near-empty shards)."""
    version = StateVersion(world.sim.now, 1)
    shards = [
        Shard.synthetic_shard(name, i, len(sizes), version, size)
        for i, size in enumerate(sizes)
    ]
    registered = world.manager.register(world.overlay.nodes[0], shards, replicas)
    world.manager.save(name)
    world.sim.run_until_idle()
    return registered


def provision_standby(world, name="app/state"):
    registered = world.manager.states[name]
    standby = next(
        n
        for n in world.overlay.alive_nodes()
        if n.node_id != registered.owner.node_id
    )
    sync_standby(world.ctx, registered, standby)
    world.sim.run_until_idle()
    return registered, standby


def drop_one_warm_segment(registered, standby):
    key = next(
        p.replica.key
        for p in registered.plan.placements
        if getattr(p.replica, "standby", False)
    )
    standby.drop_shard(key)


def diag(condition, state=None, node=None, severity="warning", evidence=()):
    return Diagnosis(
        condition=condition,
        severity=severity,
        detected_at=0.0,
        state=state,
        node=node,
        evidence=tuple(evidence),
    )


class TestDiagnoseShardCold:
    def test_inert_at_the_default_factor(self, world):
        register_skewed(world)
        assert [d for d in diagnose(world) if d.condition == "shard-cold"] == []

    def test_fires_when_opted_in(self, world):
        register_skewed(world)
        found = [
            d
            for d in diagnose(world, cold_shard_factor=0.5)
            if d.condition == "shard-cold"
        ]
        assert len(found) == 1
        assert found[0].severity == "warning"
        assert found[0].state == "app/state"
        assert dict(found[0].evidence)["cold_shards"] == (2, 3)

    def test_needs_two_cold_shards(self, world):
        register_skewed(world, sizes=(4 * MB, 4 * MB, int(0.1 * MB), 4 * MB))
        assert [
            d
            for d in diagnose(world, cold_shard_factor=0.5)
            if d.condition == "shard-cold"
        ] == []

    def test_two_shard_states_are_left_alone(self, world):
        register_skewed(world, sizes=(4 * MB, int(0.1 * MB)))
        assert [
            d
            for d in diagnose(world, cold_shard_factor=0.9)
            if d.condition == "shard-cold"
        ] == []


class TestDiagnoseStandbyLagging:
    def test_full_coverage_is_healthy(self, world):
        world.save_synthetic()
        provision_standby(world)
        assert [
            d for d in diagnose(world) if d.condition == "standby-lagging"
        ] == []

    def test_lagging_standby_is_flagged(self, world):
        world.save_synthetic()
        registered, standby = provision_standby(world)
        drop_one_warm_segment(registered, standby)
        found = [
            d for d in diagnose(world) if d.condition == "standby-lagging"
        ]
        assert len(found) == 1
        assert found[0].node == standby.name
        evidence = dict(found[0].evidence)
        assert evidence["covered_segments"] == 3
        assert evidence["total_segments"] == 4

    def test_dead_owner_is_owner_lost_business(self, world):
        world.save_synthetic()
        registered, standby = provision_standby(world)
        drop_one_warm_segment(registered, standby)
        world.overlay.fail_node(registered.owner)
        conditions = {d.condition for d in diagnose(world)}
        assert "standby-lagging" not in conditions
        assert "owner-lost" in conditions


class TestSplitShard:
    def test_splits_the_hottest_shard(self, world):
        world.save_synthetic(size=8 * MB, shards=4)
        registered = world.manager.states["app/state"]
        outcome = build_action("split-shard").execute(
            world, diag("hot-shard", state="app/state")
        )
        assert outcome.ok and outcome.changed
        details = dict(outcome.details)
        assert details["num_shards"] == 5
        assert len(registered.shards) == 5
        assert sum(s.size_bytes for s in registered.shards) == 8 * MB
        assert all(
            len(registered.plan.providers_for(i)) == 2 for i in range(5)
        )

    def test_policy_can_pin_the_index(self, world):
        world.save_synthetic(size=8 * MB, shards=4)
        outcome = build_action("split-shard", shard_index=2).execute(
            world, diag("hot-shard", state="app/state")
        )
        assert dict(outcome.details)["split_index"] == 2

    def test_guards(self, world):
        outcome = build_action("split-shard").execute(
            world, diag("hot-shard", state="ghost")
        )
        assert not outcome.ok and "unknown state" in outcome.error
        registered, _ = world.save_synthetic()
        world.overlay.fail_node(registered.owner)
        outcome = build_action("split-shard").execute(
            world, diag("hot-shard", state="app/state")
        )
        assert not outcome.ok and "recover it" in outcome.error


class TestMergeShards:
    def test_merges_the_diagnosed_cold_pair(self, world):
        registered = register_skewed(world)
        diagnosis = next(
            d
            for d in diagnose(world, cold_shard_factor=0.5)
            if d.condition == "shard-cold"
        )
        outcome = build_action("merge-shards").execute(world, diagnosis)
        assert outcome.ok and outcome.changed
        details = dict(outcome.details)
        assert details["merged"] == "2+3"
        assert details["num_shards"] == 3
        assert len(registered.shards) == 3
        assert sum(s.size_bytes for s in registered.shards) == sum(SKEWED)

    def test_two_shards_is_the_floor(self, world):
        world.save_synthetic(shards=2)
        outcome = build_action("merge-shards").execute(
            world, diag("shard-cold", state="app/state")
        )
        assert outcome.ok and not outcome.changed

    def test_policy_can_pin_the_pair(self, world):
        world.save_synthetic(shards=4)
        outcome = build_action("merge-shards", index_a=1, index_b=0).execute(
            world, diag("shard-cold", state="app/state")
        )
        assert dict(outcome.details)["merged"] == "0+1"


class TestMigrateShard:
    def test_moves_one_replica_off_the_node(self, world):
        registered, _ = world.save_synthetic()
        source = registered.plan.providers_for(0)[0].node
        outcome = build_action("migrate-shard").execute(
            world, diag("hot-shard", state="app/state", node=source.name)
        )
        assert outcome.ok and outcome.changed
        details = dict(outcome.details)
        assert details["source"] == source.name
        moved = details["shard"]
        providers = registered.plan.providers_for(moved)
        assert len(providers) == 2
        assert source.node_id not in {p.node.node_id for p in providers}
        assert all(s.verify() for s in registered.plan.available_shards())

    def test_noop_on_unknown_or_dead_nodes(self, world):
        registered, _ = world.save_synthetic()
        outcome = build_action("migrate-shard").execute(
            world, diag("hot-shard", state="app/state", node="ghost")
        )
        assert outcome.ok and not outcome.changed
        source = registered.plan.providers_for(0)[0].node
        world.overlay.fail_node(source)
        outcome = build_action("migrate-shard").execute(
            world, diag("hot-shard", state="app/state", node=source.name)
        )
        assert outcome.ok and not outcome.changed

    def test_standby_copies_are_pinned(self, world):
        world.save_synthetic()
        registered, standby = provision_standby(world)
        before = standby_coverage(registered, standby)
        build_action("migrate-shard").execute(
            world, diag("hot-shard", state="app/state", node=standby.name)
        )
        # Whatever moved, the warm image did not.
        assert standby_coverage(registered, standby) == before


class TestPromoteStandby:
    def test_dead_owner_flips_to_the_standby(self, world):
        world.save_synthetic(size=32 * MB)
        registered, standby = provision_standby(world)
        world.overlay.fail_node(registered.owner)
        outcome = build_action("promote-standby").execute(
            world, diag("owner-lost", state="app/state", severity="critical")
        )
        assert outcome.ok and outcome.changed
        details = dict(outcome.details)
        assert details["promoted"] == standby.name
        assert details["mechanism"] == "standby"
        assert registered.owner is standby

    def test_lagging_standby_is_rewarmed(self, world):
        world.save_synthetic()
        registered, standby = provision_standby(world)
        drop_one_warm_segment(registered, standby)
        outcome = build_action("promote-standby").execute(
            world, diag("standby-lagging", state="app/state", node=standby.name)
        )
        assert outcome.ok and outcome.changed
        assert dict(outcome.details)["copied_segments"] == 1
        assert standby_coverage(registered, standby) == (4, 4)
        assert [
            d for d in diagnose(world) if d.condition == "standby-lagging"
        ] == []

    def test_fresh_standby_is_a_noop(self, world):
        world.save_synthetic()
        registered, standby = provision_standby(world)
        outcome = build_action("promote-standby").execute(
            world, diag("standby-lagging", state="app/state", node=standby.name)
        )
        assert outcome.ok and not outcome.changed
        assert dict(outcome.details)["standby"] == standby.name

    def test_requires_a_provisioned_standby(self, world):
        registered, _ = world.save_synthetic()
        assert standby_node_of(registered) is None
        outcome = build_action("promote-standby").execute(
            world, diag("owner-lost", state="app/state", severity="critical")
        )
        assert not outcome.ok and "no provisioned standby" in outcome.error


class TestPolicy:
    def test_shard_granular_reroutes_hot_shard(self):
        diagnosis = diag("hot-shard", state="app/state", node="node-1")
        granular = shard_granular_policy().lookup(diagnosis)
        assert granular.action == "split-shard"
        assert granular.escalation == "rebalance"
        assert default_policy().lookup(diagnosis).action == "rebalance"

    def test_shard_rows_ship_in_the_default_table(self):
        for table in (default_policy(), shard_granular_policy()):
            assert table.lookup(diag("shard-cold", state="s")).action == "merge-shards"
            assert (
                table.lookup(diag("standby-lagging", state="s")).action
                == "promote-standby"
            )


class TestControllerEndToEnd:
    def test_cold_shards_get_merged_and_verified(self, world):
        register_skewed(world)
        ctl = Controller(
            ControlPlane(world),
            config=ControlConfig(cold_shard_factor=0.5),
        )
        records = ctl.run()
        merges = [r for r in records if r.action == "merge-shards"]
        assert len(merges) == 1
        assert merges[0].verified
        assert len(world.manager.states["app/state"].shards) == 3
        assert [
            d for d in ctl.diagnose() if d.condition == "shard-cold"
        ] == []

    def test_opted_out_controller_never_sees_shard_cold(self, world):
        register_skewed(world)
        ctl = Controller(
            ControlPlane(world)
        )
        assert [r for r in ctl.run() if r.action == "merge-shards"] == []

    def test_scenario_adapter_carries_the_knob(self):
        scenario = build_scenario(num_nodes=16, seed=1)
        ctl = Controller(
            ControlPlane(scenario),
            config=ControlConfig(cold_shard_factor=0.5),
        )
        assert ctl.config.cold_shard_factor == pytest.approx(0.5)
        assert ctl.run() == []
