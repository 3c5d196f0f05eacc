"""Regression tests: recovery mechanisms under mid-recovery re-failures.

Two fault families, applied to every mechanism:

- **Replacement death**: the node being recovered onto dies while shards
  are still in flight. Each mechanism must fail its handle with the
  uniform, plain :class:`RecoveryError` restart hint — never a raw
  ``NetworkError``/``OverlayError`` internal — so the campaign engine can
  restart the recovery onto a fresh replacement.
- **Provider death**: a replica holder serving the recovery dies
  mid-transfer. The mechanism must retry from an alternate replica and
  complete, or fail with a descriptive shard-loss error once the replica
  set is exhausted.
"""

import pytest

from repro.errors import InsufficientShardsError, RecoveryError, ReplacementDiedError
from repro.obs.tracer import Tracer
from repro.recovery.line import LineRecovery
from repro.recovery.model import RetryPolicy
from repro.recovery.speculation import SpeculativeStarRecovery
from repro.recovery.standby import StandbyRecovery
from repro.recovery.star import StarRecovery
from repro.recovery.tree import TreeRecovery
from repro.util.sizes import MB

MECHANISMS = {
    "star": StarRecovery,
    "line": LineRecovery,
    "tree": TreeRecovery,
    "speculation": SpeculativeStarRecovery,
}

# With 100 Mbit links and 32 MB of state, star/line/speculation transfers
# run from ~1.0s (post-detection) for several seconds; tree transfers only
# start after its ~2.4s build window. These crash times land mid-flight.
CRASH_AT = {"star": 2.0, "line": 2.0, "speculation": 2.0, "tree": 4.0}


def build_world(world_factory):
    w = world_factory(num_nodes=32, link_mbit=100)
    registered, _ = w.save_synthetic(size=32 * MB, shards=4, replicas=3)
    return w, registered


@pytest.mark.parametrize("name", sorted(MECHANISMS))
class TestReplacementDeath:
    def test_surfaces_clean_recovery_error(self, world_factory, name):
        w, registered = build_world(world_factory)
        replacement = w.fail_owner()
        handle = w.manager.recover(
            "app/state", replacement=replacement, mechanism=MECHANISMS[name]()
        )
        w.sim.schedule(CRASH_AT[name], w.overlay.fail_node, replacement)
        w.sim.run_until_idle()
        assert handle.done
        with pytest.raises(
            RecoveryError, match="replacement node .* died during"
        ):
            handle.result
        # The uniform restart hint by its own type, not an overlay/network internal.
        assert type(handle._error) is ReplacementDiedError
        assert "restart the recovery onto a new replacement" in str(handle._error)


@pytest.mark.parametrize("name", sorted(MECHANISMS))
class TestProviderDeath:
    def test_retry_completes_the_recovery(self, world_factory, name):
        w, registered = build_world(world_factory)
        replacement = w.fail_owner()
        handle = w.manager.recover(
            "app/state", replacement=replacement, mechanism=MECHANISMS[name]()
        )
        provider = next(
            p.node
            for p in registered.plan.providers_for(0)
            if p.node.node_id != replacement.node_id
        )
        w.sim.schedule(CRASH_AT[name], w.overlay.fail_node, provider)
        w.sim.run_until_idle()
        result = handle.result  # raises (descriptively) if the retry failed
        assert result.state_name == "app/state"
        assert result.shards_recovered == 4


class TestReplicaExhaustion:
    def test_losing_every_replica_fails_descriptively(self, world_factory):
        w, registered = build_world(world_factory)
        replacement = w.fail_owner()
        handle = w.manager.recover(
            "app/state", replacement=replacement, mechanism=StarRecovery()
        )
        victims = {
            p.node.node_id: p.node
            for p in registered.plan.providers_for(0)
            if p.node.node_id != replacement.node_id
        }
        for node in victims.values():
            w.sim.schedule(2.0, w.overlay.fail_node, node)
        w.sim.run_until_idle()
        assert handle.done
        with pytest.raises(InsufficientShardsError, match="shard 0"):
            handle.result


RETRYING = {
    "star": StarRecovery,
    "line": LineRecovery,
    "tree": TreeRecovery,
    "standby": StandbyRecovery,
}

# Tree only heads for the replacement once it has aggregated; standby's
# dedicated heartbeat detects the failure four times sooner.
CUT_AT = {"star": 2.0, "line": 2.0, "tree": 5.0, "standby": 0.6}


def start_retrying(world_factory, name, policy):
    """A recovery whose inbound transfers are cut off mid-flight.

    Standby has no warm image here, so it fetches every segment cold.
    """
    w, registered = build_world(world_factory)
    replacement = w.fail_owner()
    handle = w.manager.recover(
        "app/state",
        replacement=replacement,
        mechanism=RETRYING[name](retry_policy=policy),
    )
    w.sim.schedule(CUT_AT[name], w.network.partition, [replacement.host])
    return w, handle


def retry_instants(w):
    return [s for s in w.sim.tracer.spans if s.category == "recovery.retry"]


@pytest.fixture
def traced(monkeypatch):
    """Give every simulator of the test a recording tracer."""
    monkeypatch.setattr("repro.sim.kernel.default_tracer", lambda: Tracer("test"))


@pytest.mark.parametrize("name", sorted(RETRYING))
class TestRetryPolicy:
    def test_exhausted_budget_fails_with_every_retry_scheduled(
        self, world_factory, traced, name
    ):
        policy = RetryPolicy(max_retries=3, backoff=0.5)
        w, handle = start_retrying(world_factory, name, policy)
        w.sim.run_until_idle()
        assert handle.done  # failed, never hung
        with pytest.raises(InsufficientShardsError, match="after 3 retries"):
            handle.result
        retries = w.sim.metrics.counter("recovery.retries")
        per_budget = {}
        for instant in retry_instants(w):
            per_budget.setdefault(instant.name, []).append(instant)
        # Every counted retry was announced, and no budget (one per shard,
        # or line's one for the stream) was charged past its limit.
        assert retries.total == sum(len(v) for v in per_budget.values())
        assert max(len(v) for v in per_budget.values()) == policy.max_retries
        assert w.sim.metrics.counter("recovery.failed").total == 1

    def test_backoff_doubles_per_attempt(self, world_factory, traced, name):
        policy = RetryPolicy(max_retries=3, backoff=0.5)
        w, handle = start_retrying(world_factory, name, policy)
        w.sim.run_until_idle()
        spans = w.sim.tracer.spans
        failed_at = [s.end for s in spans if s.category == "recovery"]
        attempts = set()
        for position, instant in enumerate(spans):
            if instant.category != "recovery.retry":
                continue
            attempt = instant.attrs["attempt"]
            attempts.add(attempt)
            # Whatever the retry leads to (a re-fetch, a rebuilt tree, the
            # next retry, or the failure) happens exactly one delay later.
            due = instant.start + policy.backoff * 2 ** (attempt - 1)
            later = [s.start for s in spans[position + 1:]] + failed_at
            assert any(t == pytest.approx(due, abs=1e-9) for t in later)
        assert attempts == {1, 2, 3}

    def test_partition_healed_inside_the_budget_completes(
        self, world_factory, name
    ):
        policy = RetryPolicy(max_retries=3, backoff=0.5)
        w, handle = start_retrying(world_factory, name, policy)
        # Delays 0.5 + 1.0 + 2.0: healing after 2.5 s leaves one retry.
        w.sim.schedule(CUT_AT[name] + 2.5, w.network.heal_partition)
        w.sim.run_until_idle()
        assert handle.result.shards_recovered == 4
        assert 1 <= w.sim.metrics.counter("recovery.retries").total

    def test_zero_retries_fails_on_the_first_abort(self, world_factory, name):
        w, handle = start_retrying(world_factory, name, RetryPolicy(max_retries=0))
        w.sim.run_until_idle()
        with pytest.raises(InsufficientShardsError, match="after 0 retries"):
            handle.result
        assert w.sim.metrics.counter("recovery.retries").total == 0


def test_line_prefetch_budget_is_shared_and_checked_before_counting(world_factory):
    """Line pre-stages off-chain shards under one budget for all of them."""
    w, registered = build_world(world_factory)
    replacement = w.fail_owner()
    plan = registered.plan
    chain = []
    for index in plan.shard_indexes():
        node = plan.providers_for(index)[0].node
        if node not in chain and len(chain) < 2:
            chain.append(node)
    handle = w.manager.recover(
        "app/state",
        replacement=replacement,
        mechanism=LineRecovery(path_length=2, retry_policy=RetryPolicy(max_retries=2)),
    )
    # Cut the two chain nodes off before detection ends: nothing can be
    # pre-staged onto them, so the pipeline never starts.
    w.sim.schedule(0.1, w.network.partition, [n.host for n in chain])
    w.sim.run_until_idle()
    with pytest.raises(InsufficientShardsError, match="pre-staged after 2 retries"):
        handle.result
    assert w.sim.metrics.counter("recovery.retries").total == 2
