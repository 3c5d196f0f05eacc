"""Ownership moves to the replacement when a recovery lands, at every entry
point: the manager decides it, so no caller has to.

Before, only the chaos engine and two control actions moved it (each with
its own closure); after a recovery through the façade, the backend or
``on_failures`` the registry still named the dead owner, the next save
raised a bare ``NetworkError`` and the next owner-loss sweep recovered the
same state again.
"""

import pytest

from repro import SR3
from repro.chaos import SCENARIOS
from repro.chaos.campaign import ChaosEngine
from repro.control.actions import RecoverState
from repro.control.controller import ControlPlane
from repro.control.diagnose import Diagnosis
from repro.errors import RecoveryError, ReplacementDiedError
from repro.recovery.deployment import MECHANISMS, build_deployment, saved_state
from repro.recovery.standby import StandbyRecovery, sync_standby
from repro.streaming.backend import SR3StateBackend
from repro.streaming.cluster import LocalCluster
from repro.util.sizes import MB
from repro.workloads.wordcount import build_wordcount_topology

ENTRIES = {f"k{i}": i for i in range(40)}


@pytest.mark.parametrize("name", sorted(MECHANISMS))
class TestEveryMechanism:
    def test_save_fail_recover_twice_through_the_facade(self, name):
        sr3 = SR3.create(num_nodes=32, seed=5)
        first_owner = sr3.overlay.nodes[0]
        sr3.save(first_owner, sr3.state_split(ENTRIES, "app/state", num_shards=4))
        registered = sr3.manager.states["app/state"]
        owners = [first_owner]
        for round_ in (1, 2):
            sr3.overlay.fail_node(registered.owner)
            snapshot, result = sr3.recover("app/state", mechanism=MECHANISMS[name]())
            assert snapshot.as_dict() == ENTRIES
            assert registered.owner.name == result.replacement and registered.owner.alive
            assert registered.owner not in owners
            owners.append(registered.owner)
            # The next round writes from the new owner (it raised NetworkError before).
            saved = sr3.save(registered.owner, sr3.state_split(ENTRIES, "app/state", num_shards=4))
            assert saved.plan.owner is registered.owner, round_
        assert sr3.manager.on_failures(owners[:2]) == []  # both losses are settled

    def test_save_fail_recover_twice_through_the_backend(self, name):
        manager = build_deployment(num_nodes=32, seed=6).manager
        backend = SR3StateBackend(manager)
        cluster = LocalCluster(build_wordcount_topology(num_sentences=60, seed=6), backend=backend)
        cluster.protect_stateful_tasks()
        cluster.run(max_emissions=30)
        cluster.checkpoint()
        tasks = backend.protected_tasks()
        task = tasks["count[0]"]
        for _round in (1, 2):
            before = {tid: dict(t.store.items()) for tid, t in tasks.items()}
            dead = task.node
            manager.ctx.overlay.fail_node(dead)
            # The second death takes two tasks with it: the first one moved in.
            for tid in sorted(tid for tid, t in tasks.items() if t.node is dead):
                moved = tasks[tid]
                result = backend.recover_task(tid, mechanism=MECHANISMS[name]())
                store = backend.rebuild_store(tid)
                assert dict(store.items()) == before[tid]
                assert moved.node is manager.states[moved.store.name].owner is not dead
                assert moved.node.alive and result.replacement == moved.node.name
            cluster.run(max_emissions=15)
            cluster.checkpoint()  # every save writes from where its task lives now
            assert manager.states[task.store.name].plan.owner is task.node


class TestOwnerLossSweep:
    def test_on_failures_twice_starts_nothing_the_second_time(self):
        deployment = build_deployment(num_nodes=32, seed=7)
        registered, _ = saved_state(deployment, "app/state", 8 * MB)
        dead = registered.owner
        deployment.overlay.fail_node(dead)
        handles = deployment.manager.on_failures([dead])
        assert [h.state_name for h in handles] == ["app/state"]
        deployment.manager.run(handles)
        assert registered.owner is not dead and registered.owner.alive
        assert deployment.manager.on_failures([dead]) == []
        assert deployment.manager.save("app/state") is not None
        deployment.sim.run_until_idle()
        assert registered.plan.owner is registered.owner

    def test_a_failed_recovery_leaves_the_owner_where_it_was(self):
        deployment = build_deployment(num_nodes=32, seed=8, uplink_mbit=100, downlink_mbit=100)
        registered, _ = saved_state(deployment, "app/state", 32 * MB, num_replicas=3)
        dead = registered.owner
        deployment.overlay.fail_node(dead)
        replacement = deployment.overlay.replacement_for(dead)
        handle = deployment.manager.recover("app/state", mechanism=MECHANISMS["star"]())
        deployment.sim.schedule(2.0, deployment.overlay.fail_node, replacement)  # mid-transfer
        deployment.sim.run_until_idle()
        assert isinstance(handle._error, ReplacementDiedError)
        assert registered.owner is dead
        # The restart goes to the next node in line and hands over to it.
        retry = deployment.manager.recover("app/state", mechanism=MECHANISMS["star"]())
        deployment.manager.run([retry])
        assert registered.owner.alive and registered.owner not in (dead, replacement)


class TestControlActions:
    def world(self, seed):
        deployment = build_deployment(num_nodes=32, seed=seed)
        registered, _ = saved_state(deployment, "app/state", 8 * MB)
        return ControlPlane(deployment), registered

    def owner_lost(self, world):
        return Diagnosis("owner-lost", "critical", world.sim.now, state="app/state")

    def test_recover_state_hands_over(self):
        world, registered = self.world(9)
        dead = registered.owner
        world.overlay.fail_node(dead)
        outcome = RecoverState().execute(world, self.owner_lost(world))
        assert outcome.ok and registered.owner.alive and registered.owner is not dead
        world.manager.save("app/state")
        world.sim.run_until_idle()
        assert registered.plan.owner is registered.owner
        assert world.manager.on_failures([dead]) == []

    def test_promote_standby_hands_over_to_the_standby(self):
        world, registered = self.world(10)
        dead = registered.owner
        standby = world.overlay.nodes[5]
        sync_standby(world.manager.ctx, registered, standby)
        world.sim.run_until_idle()
        world.overlay.fail_node(dead)
        handle = world.manager.recover(
            "app/state", replacement=standby, mechanism=StandbyRecovery()
        )
        world.manager.run([handle])
        assert handle.result.mechanism == "standby"
        assert registered.owner is standby
        assert world.manager.on_failures([dead]) == []


class TestChaosRestart:
    def engine(self):
        scenario = SCENARIOS["mid-recovery-recrash"]
        deployment = build_deployment(
            num_nodes=scenario.num_nodes, seed=scenario.seed,
            uplink_mbit=scenario.uplink_mbit, downlink_mbit=scenario.uplink_mbit,
        )
        engine = ChaosEngine(deployment, scenario, "star")
        engine.setup_states()
        return engine

    def test_a_replacement_death_restarts_through_the_typed_error(self):
        engine = self.engine()
        seen = []
        restart_failed = engine._restart_failed

        def watching():
            seen.extend(type(h._error) for h in engine.handles.values() if h._error is not None)
            return restart_failed()

        engine._restart_failed = watching
        engine.run()
        assert ReplacementDiedError in seen
        assert sum(engine.restarts.values()) >= 1 and engine.errors == []
        for name, registered in engine.manager.states.items():
            assert registered.owner.alive and name in engine.results

    def test_a_message_that_reads_like_one_is_not_restarted(self):
        engine = self.engine()
        (name, registered), = engine.manager.states.items()
        engine.overlay.fail_node(registered.owner)
        engine._start_recovery(name, registered)
        engine.handles[name]._fail(
            RecoveryError("state x: replacement node y died during a look-alike")
        )
        assert engine._restart_failed() is False and engine.restarts == {}
