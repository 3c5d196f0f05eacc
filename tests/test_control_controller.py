"""End-to-end tests for the auto-remediation controller (repro.control)."""

import pytest

from repro import SR3
from repro.bench.harness import build_scenario
from repro.recovery.deployment import saved_state
from repro.chaos.campaign import run_scenario
from repro.chaos.scenario import SCENARIOS
from repro.control import (
    Controller,
    ControlPlane,
    PolicyRule,
    PolicyTable,
    default_policy,
)
from repro.control.actions import ACTIONS, Action, build_action, register_action
from repro.errors import ConfigError, RecoveryError
from repro.state.placement import PlacedShard
from repro.util.sizes import MB


def controller_for(scenario, **kwargs):
    return Controller(ControlPlane(scenario), **kwargs)


class TestOwnerLost:
    def test_recovers_dead_owner(self):
        sc = build_scenario(num_nodes=32, seed=3)
        registered, _ = saved_state(sc, "app/state", 16 * MB)
        old_owner = registered.owner
        sc.overlay.fail_node(old_owner)
        ctl = controller_for(sc)
        records = ctl.run()
        recoveries = [r for r in records if r.action == "recover"]
        assert len(recoveries) == 1
        record = recoveries[0]
        assert record.verified
        assert record.mttr_s is not None and record.mttr_s > 0
        assert registered.owner.alive
        assert registered.owner is not old_owner
        assert all(r.verified for r in records)
        assert ctl.diagnose() == []

    def test_begin_owner_loss_and_sweep(self):
        sc = build_scenario(num_nodes=32, seed=4)
        registered, _ = saved_state(sc, "app/state", 16 * MB)
        sc.overlay.fail_node(registered.owner)
        ctl = controller_for(sc, policy=default_policy(mechanism="star"))
        handle = ctl.begin_owner_loss("app/state")
        assert ctl.records and not ctl.records[0].verified
        sc.sim.run_until_idle()
        assert handle.result.mechanism == "star"
        ctl.sweep()
        assert ctl.records[0].verified
        assert ctl.records[0].mttr_s > 0
        assert registered.owner.alive

    def test_begin_owner_loss_requires_recover_rule(self):
        sc = build_scenario(num_nodes=32, seed=4)
        saved_state(sc, "app/state", 16 * MB)
        empty = controller_for(sc, policy=PolicyTable())
        with pytest.raises(RecoveryError):
            empty.begin_owner_loss("app/state")
        wrong = controller_for(
            sc,
            policy=PolicyTable(
                rules=[PolicyRule(condition="owner-lost", action="rebalance")]
            ),
        )
        with pytest.raises(RecoveryError):
            wrong.begin_owner_loss("app/state")


class TestReplicaThin:
    def test_re_replicates_after_holder_death(self):
        sc = build_scenario(num_nodes=32, seed=5)
        registered, _ = saved_state(sc, "app/state", 16 * MB)
        holder = next(
            p.node for p in registered.plan.placements if p.node is not registered.owner
        )
        sc.overlay.fail_node(holder)
        ctl = controller_for(sc)
        records = ctl.run()
        thin = [r for r in records if r.diagnosis.condition == "replica-thin"]
        assert len(thin) == 1
        assert thin[0].verified
        assert thin[0].action == "re-replicate"
        for index in registered.plan.shard_indexes():
            assert (
                len(registered.plan.providers_for(index)) >= registered.num_replicas
            )
        assert ctl.diagnose() == []

    def test_re_replicate_is_idempotent(self):
        sc = build_scenario(num_nodes=32, seed=5)
        registered, _ = saved_state(sc, "app/state", 16 * MB)
        holder = next(
            p.node for p in registered.plan.placements if p.node is not registered.owner
        )
        sc.overlay.fail_node(holder)
        ctl = controller_for(sc)
        diagnosis = ctl.diagnose()[0]
        action = build_action("re-replicate")
        world = ctl.world
        first = action.execute(world, diagnosis)
        assert first.ok and first.changed
        again = action.execute(world, diagnosis)
        assert again.ok and not again.changed


class TestFlakyNode:
    def build_flaky(self, seed=7):
        sc = build_scenario(num_nodes=24, seed=seed, uplink_mbit=200, downlink_mbit=200)
        registered, _ = saved_state(sc, "app/state", 16 * MB)
        flaky = next(
            p.node for p in registered.plan.placements if p.node is not registered.owner
        )
        host = flaky.host
        sc.network.set_host_bandwidth(
            host, host.nominal_up_bw * 0.2, host.nominal_down_bw * 0.2
        )
        return sc, registered, flaky

    def test_degraded_host_is_diagnosed_and_drained(self):
        sc, registered, flaky = self.build_flaky()
        ctl = controller_for(sc)
        assert ctl.observe() == []  # no alert: the scan reads the host itself
        (found,) = [d for d in ctl.diagnose() if d.condition == "flaky-node"]
        assert found.node == flaky.name
        assert dict(found.evidence)["bw_fraction"] == 0.2
        records = ctl.run()
        drained = [r for r in records if r.diagnosis.condition == "flaky-node"]
        assert len(drained) == 1
        assert drained[0].verified
        assert drained[0].action == "rebalance"
        assert flaky.stored_shard_count() == 0
        assert ctl.diagnose() == []

    def test_retry_then_park_on_persistent_condition(self):
        sc, registered, flaky = self.build_flaky(seed=8)

        @register_action
        class NoopFix(Action):
            name = "noop-fix"

            def begin(self, world, diagnosis, span):
                return self._ok(changed=False)

        try:
            policy = PolicyTable(
                rules=[
                    PolicyRule(
                        condition="flaky-node", action="noop-fix", max_retries=2
                    )
                ]
            )
            ctl = controller_for(sc, policy=policy)
            records = ctl.run()
            assert len(records) == 1
            record = records[0]
            # The first attempt and both retries fail verification, then
            # the record parks with every attempt on file.
            assert record.attempts == 3
            assert len(record.outcomes) == 3
            assert not record.verified
            assert sum("persists" in v for v in record.violations) == 3
            assert flaky.stored_shard_count() > 0
            assert ctl.run() == []  # parked: not retried again
        finally:
            ACTIONS.pop("noop-fix")

    def test_unresolvable_condition_parks(self):
        sc, registered, flaky = self.build_flaky(seed=9)

        @register_action
        class NoopFix(Action):
            name = "noop-fix"

            def begin(self, world, diagnosis, span):
                return self._ok(changed=False)

        try:
            policy = PolicyTable(
                rules=[
                    PolicyRule(
                        condition="flaky-node", action="noop-fix", max_retries=0
                    )
                ]
            )
            ctl = controller_for(sc, policy=policy)
            records = ctl.run()
            assert len(records) == 1
            assert not records[0].verified
            assert ctl.run() == []  # parked: the loop terminates
            assert [r.verified for r in ctl.records] == [False]
        finally:
            ACTIONS.pop("noop-fix")


class TestHotShard:
    def test_rebalances_hot_node(self):
        sc = build_scenario(num_nodes=32, seed=10)
        registered, _ = saved_state(sc, "app/state", 32 * MB, num_shards=8)
        plan = registered.plan.links[0].plan  # the base round's own placements
        placed_nodes = {p.node.name for p in plan.placements}
        hot = next(
            n
            for n in sc.overlay.nodes
            if n.alive and n is not registered.owner and n.name not in placed_nodes
        )
        # Pile every second replica onto one node.
        for placed in list(plan.placements):
            if placed.replica.replica_index != 1:
                continue
            hot.store_shard(placed.replica.key, placed.replica)
            placed.node.drop_shard(placed.replica.key)
            plan.placements.remove(placed)
            plan.placements.append(PlacedShard(placed.replica, hot))
        ctl = controller_for(sc)
        diagnoses = ctl.diagnose()
        assert any(
            d.condition == "hot-shard" and d.node == hot.name for d in diagnoses
        )
        records = ctl.run()
        hot_records = [r for r in records if r.diagnosis.condition == "hot-shard"]
        assert len(hot_records) == 1
        assert hot_records[0].verified
        assert hot_records[0].action == "rebalance"
        assert ctl.diagnose() == []
        # Replication is intact after the moves.
        for index in plan.shard_indexes():
            assert len(plan.providers_for(index)) >= registered.num_replicas


class TestActionRegistry:
    def test_build_action_unknown(self):
        with pytest.raises(ConfigError):
            build_action("no-such-action")

    def test_catalog(self):
        assert sorted(ACTIONS) == [
            "re-replicate", "rebalance", "recover", "recover-degraded",
        ]

    def test_every_default_policy_action_builds(self):
        for mechanism in (None, "tree"):
            for rule in default_policy(mechanism=mechanism).rules:
                action = build_action(rule.action, **dict(rule.params))
                assert action.name == rule.action


class TestRecords:
    def test_records_carry_outcomes_and_mttr(self):
        sc = build_scenario(num_nodes=32, seed=11)
        registered, _ = saved_state(sc, "app/state", 16 * MB)
        sc.overlay.fail_node(registered.owner)
        ctl = controller_for(sc)
        assert ctl.run() == ctl.records
        assert any(r.verified for r in ctl.records)
        for record in ctl.records:
            assert record.diagnosis.condition
            assert record.outcomes
            assert record.attempts == len(record.outcomes)
        mttrs = [r.mttr_s for r in ctl.records if r.mttr_s is not None]
        assert mttrs and min(mttrs) > 0


class TestSR3Facade:
    def test_remediates_protected_state(self):
        sr3 = SR3.create(num_nodes=32, seed=7)
        owner = sr3.overlay.nodes[0]
        pieces = sr3.state_split(32 * MB, "app/state", num_shards=4)
        sr3.save(owner, pieces)
        ctl = Controller(ControlPlane(sr3.deployment))
        sr3.overlay.fail_node(owner)
        records = ctl.run()
        recoveries = [r for r in records if r.action == "recover"]
        assert len(recoveries) == 1 and recoveries[0].verified
        assert sr3.manager.states["app/state"].owner.alive


class TestControllerCampaign:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_catalog_remediates_under_star(self, name):
        outcome = run_scenario(SCENARIOS[name], "star", controller=True)
        assert not outcome.errors
        assert not outcome.hard_violations
        assert outcome.remediations >= 1
        assert outcome.remediation_mttr_s > 0

    def test_remediate_experiment_is_deterministic(self):
        from repro.bench.experiments import remediate_controller

        names = ("crash-wave", "stragglers")
        first = remediate_controller(scenario_names=names)
        second = remediate_controller(scenario_names=names)

        def gated(result):
            # wall_s keys are host wall-clock: informational, not gated.
            return {
                k: v
                for k, v in result.extra["baseline_metrics"].items()
                if not k.endswith("/wall_s")
            }

        def simulated(rows):
            return [{k: v for k, v in row.items() if k != "wall_s"} for row in rows]

        assert gated(first) == gated(second)
        assert simulated(first.rows) == simulated(second.rows)
        for name in names:
            assert f"remediate/{name}/mttr_s" in first.extra["baseline_metrics"]
