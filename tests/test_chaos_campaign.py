"""Tests for the chaos campaign runner and resilience report."""

import hashlib
import json
from dataclasses import replace

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
)
from repro.chaos import campaign
from repro.errors import SimulationError
from repro.obs import recorder
from repro.obs.export import dumps_trace
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.kernel import Simulator

SMALL_CRASH = Scenario(
    name="small-crash",
    num_states=1,
    injections=(CrashWave(at=3.0, count=1),),
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

    def test_smoke_campaign_report_digest_is_pinned(self, collecting):
        """The recorded report, blame included. Taken on the commit before
        replica keys were built once per replica and the world state was
        compacted; neither may move a byte of what a campaign reports."""
        assert digest(run_campaign("smoke")) == SMOKE_RECORDED

    def test_full_campaign_scenario_report_digest_is_pinned(self, collecting):
        """The recorded report. Taken on the commit before an unexported
        cell's tracer was attached at the fault timeline instead of at the
        build."""
        report = run_campaign("full", scenarios=[SCENARIOS["partition-heal"]])
        assert digest(report) == PARTITION_HEAL_RECORDED

    def test_default_campaign_report_digests_are_pinned(self):
        """The report nobody asked spans for: the recorded one without blame."""
        assert digest(run_campaign("smoke")) == SMOKE_DEFAULT
        report = run_campaign("full", scenarios=[SCENARIOS["partition-heal"]])
        assert digest(report) == PARTITION_HEAL_DEFAULT

    def test_default_report_is_the_recorded_one_without_blame(self):
        recorder.start(spans=True)
        try:
            recorded = run_campaign("smoke")
        finally:
            recorder.stop()
        for outcome in recorded.outcomes:
            outcome.blame = {}
        assert run_campaign("smoke").to_json() == recorded.to_json()

    def test_unknown_campaign_rejected(self):
        with pytest.raises(SimulationError, match="unknown campaign"):
            run_campaign("nope")


SMOKE_RECORDED = "f9f99708d4d6e91a6c021a9727086c9b072d5d13a92eb866b5420645bff4ed27"
PARTITION_HEAL_RECORDED = "2d9a1b040e1e060f85bf0b447b22783508155cb89f3713b7d499199e36d35d14"
SMOKE_DEFAULT = "38e3aa6e4a8dec54f3538dc23f8f3f1d9a50e1ca82a85028eb84c5a3818ea45b"
PARTITION_HEAL_DEFAULT = "7b7a034b5d18aaa02b920431a864414765e145215415c76658b2d048545cec49"


def digest(report: ResilienceReport) -> str:
    return hashlib.sha256(report.to_json().encode()).hexdigest()


@pytest.fixture
def collecting():
    """Recorded spans, as the CLI's ``--trace`` starts the recorder."""
    recorder.start(spans=True)
    try:
        yield lambda: recorder.as_tracers(None)
    finally:
        recorder.stop()


CELLS = [
    (scenario.name, mechanism, False)
    for scenario in campaign_scenarios("smoke")
    for mechanism in scenario.mechanisms
] + [
    (name, mechanism, True)
    for name in ("crash-wave", "mid-recovery-recrash")
    for mechanism in SR3_MECHANISMS
]


class TestPrivateTracer:
    """A cell keeps no private tracer: it records spans, and reports blame,
    only while the recorder asks for spans."""

    def test_a_default_cell_constructs_no_tracer(self, monkeypatch):
        built, classified = [], []
        monkeypatch.setattr(Tracer, "__init__", lambda *args: built.append(args))
        classify = campaign._classify

        def classifying(run, invariants):
            classified.append(run.engine.sim.tracer)
            return classify(run, invariants)

        monkeypatch.setattr(campaign, "_classify", classifying)
        attached = []
        attach = Simulator.attach_tracer

        def attaching(sim, tracer):
            attach(sim, tracer)
            attached.append(tracer)

        monkeypatch.setattr(Simulator, "attach_tracer", attaching)
        outcome = run_scenario(SCENARIOS["crash-wave"], "star")
        assert outcome.recovered > 0 and outcome.blame == {}
        assert attached == [NULL_TRACER] and classified == [NULL_TRACER]
        assert built == []

    @pytest.mark.parametrize("name,mechanism,controller", CELLS)
    def test_outcome_equals_the_collected_cell(
        self, name, mechanism, controller, collecting
    ):
        """With collection on the tracer is attached at the build; the
        outcome is the default one plus the blame of its recoveries."""
        collected = run_scenario(SCENARIOS[name], mechanism, controller=controller)
        (tracer,) = collecting()
        assert tracer.find("recovery/save") or mechanism == "checkpointing"
        assert collected.blame or collected.recovered == 0
        recorder.stop()
        assert replace(collected, blame={}) == run_scenario(
            SCENARIOS[name], mechanism, controller=controller
        )

    def test_collected_trace_keeps_its_save_spans(self, collecting):
        """Digest taken on the commit before the private tracer moved."""
        run_scenario(SCENARIOS["crash-wave"], "star")
        (tracer,) = collecting()
        saves = [s for s in tracer.roots() if s.name == "recovery/save"]
        assert len(saves) == 6 and saves[0].start == 0.0
        dump = dumps_trace([tracer], chrome=False)
        digest = hashlib.sha256(dump.encode()).hexdigest()
        assert digest == "9c5a6aad8eebd3a2a1a1201125f00f59a141beec792e4c48acfb6e729457d70a"


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
