"""Tests for the chaos campaign runner and resilience report."""

import hashlib
import json

import pytest

from repro.chaos import (
    SCENARIOS,
    SR3_MECHANISMS,
    CrashWave,
    ResilienceReport,
    Scenario,
    ScenarioOutcome,
    campaign_scenarios,
    make_mechanism,
    run_campaign,
    run_scenario,
    streaming_probe,
)
from repro.errors import SimulationError

SMALL_CRASH = Scenario(
    name="small-crash",
    num_nodes=16,
    num_states=1,
    state_mb=4.0,
    injections=(CrashWave(at=3.0, count=1, victims="owners"),),
    mechanisms=("star", "checkpointing"),
)


class TestMechanismFactory:
    def test_all_sr3_mechanisms_instantiate(self):
        for name in SR3_MECHANISMS:
            # Speculation self-describes as "star+speculation".
            assert name in make_mechanism(name).name

    def test_checkpointing_is_the_baseline(self):
        assert make_mechanism("checkpointing") is None

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(SimulationError, match="unknown mechanism"):
            make_mechanism("raft")


class TestRunScenario:
    def test_simple_crash_survives_under_star(self):
        outcome = run_scenario(SMALL_CRASH, "star")
        assert outcome.status == "survived"
        assert outcome.recovered == 1
        assert outcome.expected == 1
        assert outcome.crashes == 1
        assert outcome.errors == []
        assert outcome.max_recovery_s > 0

    def test_checkpointing_baseline_recovers_too(self):
        outcome = run_scenario(SMALL_CRASH, "checkpointing")
        assert outcome.status == "survived"
        assert outcome.recovered == 1

    @pytest.mark.parametrize("seed", [34, 52, 72])
    def test_crash_wave_under_checkpointing_classifies(self, seed):
        """The wave kills an end of the baseline's replay on these seeds;
        a bare ``NetworkError`` used to escape ``sim.run()`` (ROADMAP item 2)."""
        crash_wave = next(s for s in campaign_scenarios("full") if s.name == "crash-wave")
        outcome = run_scenario(crash_wave.with_seed(seed), "checkpointing")
        assert outcome.status in ("degraded", "failed")
        for error in outcome.errors:
            assert "was lost during checkpointing recovery" in error

    @pytest.mark.parametrize("mechanism", SR3_MECHANISMS)
    def test_recrash_restarts_every_mechanism(self, mechanism):
        # The acceptance scenario: the replacement dies mid-recovery, the
        # mechanism surfaces a clean RecoveryError, and the engine restarts
        # the recovery onto a fresh replacement.
        outcome = run_scenario(SCENARIOS["mid-recovery-recrash"], mechanism)
        assert outcome.status == "degraded"
        assert outcome.restarts >= 1
        assert outcome.recovered == 1
        assert outcome.errors == []


class TestRunCampaign:
    def test_sweep_produces_one_outcome_per_cell(self):
        report = run_campaign(scenarios=[SMALL_CRASH])
        assert len(report.outcomes) == 2
        assert report.matrix() == {
            "small-crash": {"star": "survived", "checkpointing": "survived"}
        }
        counts = report.counts()
        assert counts["survived"] == 2
        assert counts["failed"] == 0

    def test_mechanism_override(self):
        report = run_campaign(scenarios=[SMALL_CRASH], mechanisms=["star"])
        assert [o.mechanism for o in report.outcomes] == ["star"]

    def test_same_seed_reports_are_byte_identical(self):
        first = run_campaign(scenarios=[SMALL_CRASH]).to_json()
        second = run_campaign(scenarios=[SMALL_CRASH]).to_json()
        assert first == second

    def test_smoke_campaign_report_digest_is_pinned(self):
        """Taken on the commit before replica keys were built once per
        replica and the world state was compacted; neither may move a byte
        of what a campaign reports."""
        digest = hashlib.sha256(run_campaign("smoke").to_json().encode()).hexdigest()
        assert digest == "f9f99708d4d6e91a6c021a9727086c9b072d5d13a92eb866b5420645bff4ed27"

    def test_unknown_campaign_rejected(self):
        with pytest.raises(SimulationError, match="unknown campaign"):
            run_campaign("nope")


class TestResilienceReport:
    def make_report(self):
        return ResilienceReport(
            campaign="t",
            outcomes=[
                ScenarioOutcome("s1", "star", "survived"),
                ScenarioOutcome("s1", "tree", "degraded"),
                ScenarioOutcome("s2", "star", "failed"),
            ],
        )

    def test_json_is_deterministic_and_parseable(self):
        report = self.make_report()
        data = json.loads(report.to_json())
        assert data["campaign"] == "t"
        assert data["summary"] == {"survived": 1, "degraded": 1, "failed": 1}
        assert data["matrix"]["s1"]["tree"] == "degraded"
        assert len(data["outcomes"]) == 3

    def test_format_matrix_renders_every_cell(self):
        text = self.make_report().format_matrix()
        lines = text.splitlines()
        assert lines[0].split() == ["scenario", "star", "tree"]
        assert "survived" in text
        assert "degraded" in text
        assert "survived=1 degraded=1 failed=1" in lines[-1]
        # s2 was never swept under tree: the cell renders as "-".
        assert [cell for cell in lines[2].split()] == ["s2", "failed", "-"]


class TestStreamingProbe:
    def test_wordcount_recovers_byte_identical_state(self):
        outcome = streaming_probe(seed=0, num_nodes=16)
        assert outcome.status == "survived"
        assert outcome.recovered == outcome.expected > 0
        assert outcome.errors == []
