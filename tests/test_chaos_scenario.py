"""Tests for the declarative chaos scenario DSL and the shipped catalog."""

import pytest

from repro.chaos import (
    CAMPAIGNS,
    DEFAULT_CHECKERS,
    KNOWN_MECHANISMS,
    SCENARIOS,
    SR3_MECHANISMS,
    Scenario,
    campaign_scenarios,
)
from repro.errors import SimulationError


class TestScenarioValidation:
    def test_needs_a_name(self):
        with pytest.raises(SimulationError, match="needs a name"):
            Scenario(name="")

    def test_needs_nodes_and_states(self):
        with pytest.raises(SimulationError):
            Scenario(name="t", num_states=0)

    def test_rejects_unknown_mechanism(self):
        with pytest.raises(SimulationError, match="unknown mechanism"):
            Scenario(name="t", mechanisms=("raft",))

    def test_normalizes_lists_to_tuples(self):
        scenario = Scenario(name="t", mechanisms=["star", "line"])
        assert scenario.mechanisms == ("star", "line")
        assert isinstance(scenario.injections, tuple)

    def test_state_names_are_scoped(self):
        scenario = Scenario(name="t", num_states=2)
        assert scenario.state_names() == ["t/state-0", "t/state-1"]

    def test_with_seed_returns_new_spec(self):
        scenario = Scenario(name="t")
        reseeded = scenario.with_seed(7)
        assert reseeded.seed == 7
        assert scenario.seed == 0
        assert reseeded.name == scenario.name


class TestCatalog:
    def test_mechanism_names(self):
        assert set(SR3_MECHANISMS) < set(KNOWN_MECHANISMS)
        assert "checkpointing" in KNOWN_MECHANISMS

    def test_catalog_covers_required_fault_modes(self):
        kinds = {
            inj.kind
            for scenario in SCENARIOS.values()
            for inj in scenario.injections
        }
        assert {
            "crash_wave",
            "rack_failure",
            "poisson_churn",
            "network_partition",
            "bandwidth_flap",
            "straggler",
            "mid_recovery_crash",
        } <= kinds

    def test_at_least_four_invariant_checkers(self):
        assert len(DEFAULT_CHECKERS) >= 4

    def test_recrash_scenario_sweeps_all_sr3_mechanisms(self):
        recrash = SCENARIOS["mid-recovery-recrash"]
        assert set(SR3_MECHANISMS) <= set(recrash.mechanisms)

    def test_campaigns_resolve(self):
        for name in CAMPAIGNS:
            scenarios = campaign_scenarios(name)
            assert scenarios
            assert all(isinstance(s, Scenario) for s in scenarios)

    def test_unknown_campaign_rejected(self):
        with pytest.raises(SimulationError, match="unknown campaign"):
            campaign_scenarios("nope")
