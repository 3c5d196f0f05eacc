"""Unit tests for the SR3 public API façade (Table 2)."""

import pytest

from repro import SR3
from repro.errors import RecoveryError, StateError
from repro.recovery.selection import Mechanism
from repro.state.store import StateStore
from repro.util.sizes import MB


@pytest.fixture
def sr3():
    return SR3.create(num_nodes=64, seed=7)


def protect_dict(sr3, name="app/state", entries=None, shards=4, replicas=2):
    entries = entries if entries is not None else {f"k{i}": i for i in range(50)}
    owner = sr3.overlay.nodes[0]
    pieces = sr3.state_split(entries, name, num_shards=shards, num_replicas=replicas)
    result = sr3.save(owner, pieces)
    return owner, result


class TestStateSplit:
    def test_split_dict(self, sr3):
        shards = sr3.state_split({"a": 1, "b": 2}, "s", num_shards=2)
        assert len(shards) == 2
        assert all(s.state_name == "s" for s in shards)

    def test_split_store(self, sr3):
        store = StateStore("s")
        store.put("a", 1)
        shards = sr3.state_split(store, "s", num_shards=2)
        assert sum(len(s.entries) for s in shards) == 1

    def test_split_synthetic_size(self, sr3):
        shards = sr3.state_split(64 * MB, "s", num_shards=8)
        assert sum(s.size_bytes for s in shards) == 64 * MB
        assert all(s.synthetic for s in shards)

    def test_split_wrong_name_rejected(self, sr3):
        store = StateStore("other")
        with pytest.raises(StateError):
            sr3.state_split(store, "s", num_shards=2)


class TestSplitResult:
    def test_carries_replicas_and_name(self, sr3):
        result = sr3.state_split(
            {"a": 1, "b": 2}, "s", num_shards=2, num_replicas=3
        )
        assert result.num_replicas == 3
        assert result.state_name == "s"

    def test_behaves_like_shard_list(self, sr3):
        result = sr3.state_split({"a": 1, "b": 2}, "s", num_shards=2)
        assert len(result) == 2
        assert result[0].state_name == "s"
        assert list(result) == result.shards
        assert result[-1] is result.shards[-1]

    def test_save_uses_split_replicas(self, sr3):
        owner = sr3.overlay.nodes[0]
        pieces = sr3.state_split(
            {f"k{i}": i for i in range(10)}, "s", num_shards=2, num_replicas=3
        )
        result = sr3.save(owner, pieces)
        assert result.replicas_written == 6

    def test_save_explicit_replicas_override_split(self, sr3):
        owner = sr3.overlay.nodes[0]
        pieces = sr3.state_split({"a": 1}, "s", num_shards=1, num_replicas=3)
        result = sr3.save(owner, pieces, num_replicas=4)
        assert result.replicas_written == 4

    def test_save_bare_shard_list_uses_default(self, sr3):
        owner = sr3.overlay.nodes[0]
        pieces = sr3.state_split(
            {"a": 1, "b": 2}, "s", num_shards=2, num_replicas=3
        )
        result = sr3.save(owner, list(pieces))
        assert result.replicas_written == 2 * sr3.num_replicas

    def test_no_pending_replicas_side_channel(self, sr3):
        sr3.state_split({"a": 1}, "s", num_shards=1, num_replicas=5)
        assert not hasattr(sr3, "_pending_replicas")


class TestSaveRecover:
    def test_save_returns_result(self, sr3):
        _, result = protect_dict(sr3)
        assert result.replicas_written == 8
        assert result.duration > 0
        assert "app/state" in sr3.manager.states

    def test_recover_after_failure_restores_content(self, sr3):
        owner, _ = protect_dict(sr3)
        sr3.overlay.fail_node(owner)
        snapshot, result = sr3.recover("app/state")
        assert snapshot.as_dict() == {f"k{i}": i for i in range(50)}
        assert result.duration > 0

    def test_recover_onto_alive_owner(self, sr3):
        owner, _ = protect_dict(sr3)
        snapshot, result = sr3.recover("app/state")
        assert result.replacement == owner.name
        assert len(snapshot) == 50

    def test_resave_bumps_version(self, sr3):
        owner, _ = protect_dict(sr3)
        pieces = sr3.state_split({"x": 1}, "app/state", num_shards=2)
        sr3.save(owner, pieces)
        snapshot, _ = sr3.recover("app/state")
        assert snapshot.as_dict() == {"x": 1}

    def test_recover_unknown_state(self, sr3):
        with pytest.raises(RecoveryError):
            sr3.recover("ghost")

    def test_save_zero_shards_rejected(self, sr3):
        with pytest.raises(StateError):
            sr3.save(sr3.overlay.nodes[0], [])


class TestDefines:
    def test_star_define_pins_mechanism(self, sr3):
        owner, _ = protect_dict(sr3)
        sr3.define("app/state", "star", star_fanout=3)
        sr3.overlay.fail_node(owner)
        _, result = sr3.recover("app/state")
        assert result.mechanism == "star"
        assert result.detail["fanout_bits"] == 3

    def test_line_define_pins_mechanism(self, sr3):
        owner, _ = protect_dict(sr3, shards=8)
        sr3.define("app/state", "line", length_of_path=4)
        sr3.overlay.fail_node(owner)
        _, result = sr3.recover("app/state")
        assert result.mechanism == "line"

    def test_tree_define_pins_mechanism(self, sr3):
        owner, _ = protect_dict(sr3, shards=4)
        sr3.define("app/state", "tree", fanout=2)
        sr3.overlay.fail_node(owner)
        _, result = sr3.recover("app/state")
        assert result.mechanism == "tree"

    def test_explicit_argument_overrides_policy(self, sr3):
        from repro.recovery.star import StarRecovery

        owner, _ = protect_dict(sr3)
        sr3.define("app/state", "line")
        sr3.overlay.fail_node(owner)
        _, result = sr3.recover("app/state", mechanism=StarRecovery())
        assert result.mechanism == "star"


class TestDefine:
    def test_define_by_name_with_paper_knob(self, sr3):
        impl = sr3.define("app", "star", star_fanout=3)
        assert impl.fanout_bits == 3

    def test_define_by_enum(self, sr3):
        impl = sr3.define("app", Mechanism.LINE, length_of_path=4)
        assert impl.path_length == 4

    def test_define_native_knob_names(self, sr3):
        impl = sr3.define("app", "tree", fanout_bits=2, branch_depth=3)
        assert impl.fanout_bits == 2
        assert impl.branch_depth == 3

    def test_define_accepts_instance(self, sr3):
        from repro.recovery.tree import TreeRecovery

        built = TreeRecovery(fanout_bits=2)
        assert sr3.define("app", built) is built

    def test_define_instance_rejects_knobs(self, sr3):
        from repro.recovery.star import StarRecovery

        with pytest.raises(RecoveryError):
            sr3.define("app", StarRecovery(), star_fanout=1)

    def test_define_unknown_mechanism(self, sr3):
        with pytest.raises(RecoveryError):
            sr3.define("app", "ring")

    def test_define_unknown_knob(self, sr3):
        with pytest.raises(RecoveryError):
            sr3.define("app", "star", length_of_path=4)

    def test_define_pins_policy_used_by_recover(self, sr3):
        owner, _ = protect_dict(sr3)
        sr3.define("app/state", "star", star_fanout=1)
        sr3.overlay.fail_node(owner)
        _, result = sr3.recover("app/state")
        assert result.mechanism == "star"
        assert result.detail["fanout_bits"] == 1


class TestNoReplacementError:
    def test_descriptive_error_when_overlay_empty(self):
        sr3 = SR3.create(num_nodes=8, seed=3)
        owner, _ = protect_dict(sr3, shards=2)
        for node in list(sr3.overlay.nodes):
            sr3.overlay.fail_node(node, repair=False)
        with pytest.raises(RecoveryError, match="no replacement node is available"):
            sr3.recover("app/state")


class TestSelection:
    def test_small_state_selects_star(self, sr3):
        choice = sr3.selection("a", "latency-sensitive", 8 * MB)
        assert choice == Mechanism.STAR
        assert choice.mechanism is Mechanism.STAR
        assert choice.knobs == {"star_fanout": 2}
        assert choice.value == "star"

    def test_large_unconstrained_selects_line(self, sr3):
        choice = sr3.selection("a", "latency-sensitive", 128 * MB, network_bw_mbit=1000)
        assert choice == Mechanism.LINE
        assert choice.knobs["length_of_path"] >= 1

    def test_large_constrained_sensitive_selects_tree(self, sr3):
        choice = sr3.selection("a", "latency-sensitive", 128 * MB, network_bw_mbit=100)
        assert choice == Mechanism.TREE
        assert "fanout" in choice.knobs

    def test_large_constrained_insensitive_selects_line(self, sr3):
        choice = sr3.selection("a", "latency-insensitive", 128 * MB, network_bw_mbit=100)
        assert choice == Mechanism.LINE

    def test_selection_pins_policy_for_recover(self, sr3):
        owner, _ = protect_dict(sr3, name="a", shards=4)
        sr3.selection("a", "latency-sensitive", 8 * MB)
        sr3.overlay.fail_node(owner)
        _, result = sr3.recover("a", app_name="a")
        assert result.mechanism == "star"

    def test_invalid_requirement(self, sr3):
        with pytest.raises(RecoveryError):
            sr3.selection("a", "super-fast", 1 * MB)


class TestCreate:
    def test_constrained_links_applied(self):
        sr3 = SR3.create(num_nodes=16, seed=0, uplink_mbit=100, downlink_mbit=100)
        host = sr3.overlay.nodes[0].host
        assert host.up_bw == pytest.approx(12.5e6)

    def test_unconstrained_default(self):
        sr3 = SR3.create(num_nodes=16, seed=0)
        assert sr3.overlay.nodes[0].host.up_bw == float("inf")

    def test_deterministic_build(self):
        a = SR3.create(num_nodes=16, seed=42)
        b = SR3.create(num_nodes=16, seed=42)
        assert [n.node_id for n in a.overlay.nodes] == [
            n.node_id for n in b.overlay.nodes
        ]


class TestDeprecatedDefines:
    def test_define_does_not_warn(self, sr3, recwarn):
        protect_dict(sr3)
        sr3.define("app/state", "star")
        assert not [w for w in recwarn if w.category is DeprecationWarning]


class TestSelectionResultEquality:
    def test_equal_to_member_and_string(self, sr3):
        choice = sr3.selection("a", "latency-sensitive", 8 * MB)
        assert choice == Mechanism.STAR
        assert choice == "star"
        assert choice != "line"
        assert choice != Mechanism.LINE

    def test_hash_consistent_with_both_equalities(self, sr3):
        choice = sr3.selection("a", "latency-sensitive", 8 * MB)
        assert hash(choice) == hash("star")
        assert hash(choice) == hash(Mechanism.STAR)

    def test_set_and_dict_membership(self, sr3):
        choice = sr3.selection("a", "latency-sensitive", 8 * MB)
        assert choice in {"star", "line"}
        assert choice in {Mechanism.STAR}
        assert {choice: 1}[Mechanism.STAR] == 1
        assert {choice: 1}["star"] == 1
        assert {Mechanism.STAR: 2}[choice] == 2
