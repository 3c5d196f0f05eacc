"""Tests for the chain-checksum invariant checker."""

import types

from repro.recovery.deployment import saved_delta
from repro.chaos.campaign import RunContext
from repro.chaos.invariants import DEFAULT_CHECKERS, ChainChecksumConsistent
from repro.state.chain import chain_digest


def ground_truth(world, name="app/state"):
    """The same chain-level snapshot ChaosEngine.setup_states captures."""
    registered = world.manager.states[name]
    chain = registered.plan
    return {
        name: {
            "digest": chain_digest(registered.plan.available_shards()),
            "chain_length": chain.length,
            "size_bytes": world.manager.recovered_snapshot(name).size_bytes,
            "version": repr(chain.tip_version),
        }
    }


def make_run(world, pre_state, mechanism="star"):
    engine = types.SimpleNamespace(manager=world.manager, overlay=world.overlay)
    return RunContext(
        scenario=None,
        mechanism=mechanism,
        engine=engine,
        results={name: None for name in pre_state},
        errors=[],
        pre_checksums={},
        pre_state=pre_state,
    )


def chained_state(world, rounds=2):
    world.save_synthetic()
    for _ in range(rounds):
        saved_delta(world, "app/state", 64 * 1024)
    return ground_truth(world)


class TestChainChecksumConsistent:
    def test_registered_by_default(self):
        assert any(
            isinstance(checker, ChainChecksumConsistent)
            for checker in DEFAULT_CHECKERS
        )

    def test_clean_chain_passes(self, world):
        pre_state = chained_state(world)
        run = make_run(world, pre_state)
        assert ChainChecksumConsistent().check(run) == []

    def test_passes_after_recovery(self, world):
        pre_state = chained_state(world)
        world.fail_owner("app/state")
        world.manager.run([world.manager.recover("app/state")])
        run = make_run(world, pre_state)
        assert ChainChecksumConsistent().check(run) == []

    def test_tampered_segment_detected(self, world):
        pre_state = chained_state(world)
        registered = world.manager.states["app/state"]
        victim = registered.plan.links[1].shards[0]
        victim.checksum = "0" * 64
        violations = ChainChecksumConsistent().check(make_run(world, pre_state))
        assert violations
        assert "chain digest drifted" in violations[0]

    def test_truncated_chain_detected(self, world):
        pre_state = chained_state(world)
        registered = world.manager.states["app/state"]
        for placed in registered.plan.links[1].plan.placements:
            placed.node.drop_shard(placed.replica.key)
        violations = ChainChecksumConsistent().check(make_run(world, pre_state))
        assert violations
        assert "chain reconstruction failed" in violations[0]

    def test_checkpointing_runs_skipped(self, world):
        pre_state = chained_state(world)
        run = make_run(world, pre_state, mechanism="checkpointing")
        assert ChainChecksumConsistent().check(run) == []
