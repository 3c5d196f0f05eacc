"""Unit tests for the remediation policy table (repro.control.policy)."""

import pytest

from repro.control import PolicyRule, PolicyTable, default_policy
from repro.control.diagnose import CONDITIONS, Diagnosis
from repro.errors import ConfigError


def diag(condition="owner-lost", severity="critical", state=None, node=None):
    return Diagnosis(
        condition=condition,
        severity=severity,
        detected_at=1.0,
        state=state,
        node=node,
    )


class TestPolicyRule:
    def test_matches_condition(self):
        rule = PolicyRule(condition="owner-lost", action="recover")
        assert rule.matches(diag("owner-lost", state="s"))
        assert not rule.matches(diag("replica-thin", state="s"))

    def test_matches_severity_filter(self):
        rule = PolicyRule(
            condition="replica-thin", action="re-replicate", severity="critical"
        )
        assert rule.matches(diag("replica-thin", severity="critical", state="s"))
        assert not rule.matches(diag("replica-thin", severity="warning", state="s"))

    def test_severity_none_matches_any(self):
        rule = PolicyRule(condition="replica-thin", action="re-replicate")
        for severity in ("critical", "warning"):
            assert rule.matches(diag("replica-thin", severity=severity, state="s"))

    def test_match_glob_on_subject(self):
        rule = PolicyRule(condition="owner-lost", action="recover", match="app/*")
        assert rule.matches(diag(state="app/state"))
        assert not rule.matches(diag(state="other/state"))

    def test_subject_is_node_for_node_conditions(self):
        rule = PolicyRule(condition="flaky-node", action="rebalance", match="node-1*")
        assert rule.matches(diag("flaky-node", severity="warning", node="node-12"))
        assert not rule.matches(diag("flaky-node", severity="warning", node="node-2"))

    def test_unknown_condition_rejected(self):
        with pytest.raises(ConfigError):
            PolicyRule(condition="nonsense", action="recover")

    def test_unknown_action_rejected(self):
        with pytest.raises(ConfigError, match="unknown action 'rewrite'"):
            PolicyRule(condition="replica-thin", action="rewrite")

    def test_negative_retries_rejected(self):
        with pytest.raises(ConfigError):
            PolicyRule(condition="owner-lost", action="recover", max_retries=-1)

    def test_params_dict_normalized_to_sorted_tuple(self):
        rule = PolicyRule(
            condition="owner-lost",
            action="recover",
            params={"mechanism": "tree", "a": 1},
        )
        assert rule.params == (("a", 1), ("mechanism", "tree"))


class TestPolicyTable:
    def test_first_match_wins(self):
        specific = PolicyRule(condition="owner-lost", action="recover", match="app/*")
        general = PolicyRule(condition="owner-lost", action="recover-degraded")
        table = PolicyTable(rules=[specific, general])
        assert table.lookup(diag(state="app/state")) is specific
        assert table.lookup(diag(state="other")) is general

    def test_lookup_miss_returns_none(self):
        table = PolicyTable(rules=[PolicyRule(condition="owner-lost", action="recover")])
        assert table.lookup(diag("hot-shard", severity="warning", state="s")) is None


class TestDefaultPolicy:
    def test_covers_every_condition(self):
        table = default_policy()
        for condition in CONDITIONS:
            severity = "critical" if condition in ("owner-lost", "replica-thin") else "warning"
            found = table.lookup(diag(condition, severity=severity, state="s", node="n"))
            assert found is not None, condition

    def test_expected_actions(self):
        table = default_policy()
        by_condition = {rule.condition: rule for rule in table.rules}
        assert by_condition["owner-lost"].action == "recover"
        assert by_condition["replica-thin"].action == "re-replicate"
        assert by_condition["flaky-node"].action == "rebalance"
        assert by_condition["hot-shard"].action == "rebalance"
        assert by_condition["slo-burning"].action == "recover-degraded"
        assert by_condition["metric-anomaly"].action == "rebalance"

    def test_mechanism_pin(self):
        table = default_policy(mechanism="tree")
        rule = table.lookup(diag("owner-lost", state="s"))
        assert dict(rule.params) == {"mechanism": "tree"}
        # Unpinned: the recover action falls back to the Fig. 7 heuristic.
        assert default_policy().lookup(diag("owner-lost", state="s")).params == ()

    def test_recovery_always_retries(self):
        # Nothing is more important than getting the state back online.
        rule = default_policy().lookup(diag("owner-lost", state="s"))
        assert rule.max_retries == 2
