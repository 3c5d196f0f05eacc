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
from repro.obs import recorder
from repro.obs.export import dumps_trace
from repro.sim.kernel import Simulator

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

    def test_full_campaign_scenario_report_digest_is_pinned(self):
        """Taken on the commit before an unexported cell's tracer was
        attached at the fault timeline instead of at the build."""
        report = run_campaign("full", scenarios=[SCENARIOS["partition-heal"]])
        digest = hashlib.sha256(report.to_json().encode()).hexdigest()
        assert digest == "2d9a1b040e1e060f85bf0b447b22783508155cb89f3713b7d499199e36d35d14"

    def test_unknown_campaign_rejected(self):
        with pytest.raises(SimulationError, match="unknown campaign"):
            run_campaign("nope")


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
    """A cell nobody can export records from the fault timeline on."""

    def test_no_span_starts_before_the_first_injection(self, monkeypatch):
        attached = []
        attach = Simulator.attach_tracer

        def recording(sim, tracer):
            attach(sim, tracer)
            attached.append((tracer, sim.now))

        monkeypatch.setattr(Simulator, "attach_tracer", recording)
        scenario = SCENARIOS["crash-wave"]
        outcome = run_scenario(scenario, "star")
        (built_with, built_at), (tracer, armed_at) = attached
        assert not built_with.enabled and built_at == 0.0
        assert armed_at > 0.0  # the saves took simulated time, and left no span
        first_injection = armed_at + min(i.at for i in scenario.injections)
        assert tracer.spans
        assert min(span.start for span in tracer.spans) >= first_injection
        assert not tracer.find("recovery/save")
        assert outcome.blame

    @pytest.mark.parametrize("name,mechanism,controller", CELLS)
    def test_outcome_equals_the_collected_cell(
        self, name, mechanism, controller, collecting
    ):
        """With collection on the tracer is attached at the build, as it
        always was; every field of the outcome, blame included, must agree."""
        collected = run_scenario(SCENARIOS[name], mechanism, controller=controller)
        (tracer,) = collecting()
        assert tracer.find("recovery/save") or mechanism == "checkpointing"
        recorder.stop()
        assert run_scenario(SCENARIOS[name], mechanism, controller=controller) == collected

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


class TestStreamingProbe:
    def test_wordcount_recovers_byte_identical_state(self):
        outcome = streaming_probe(seed=0, num_nodes=16)
        assert outcome.status == "survived"
        assert outcome.recovered == outcome.expected > 0
        assert outcome.errors == []
