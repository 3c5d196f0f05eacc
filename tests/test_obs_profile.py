"""Critical-path extraction, blame attribution, and recovery profiles."""

import json

import pytest

from repro.bench.harness import build_scenario
from repro.recovery.deployment import saved_state, timed_recovery
from repro.obs import (
    BLAME_CATEGORIES,
    Tracer,
    blame_breakdown,
    blame_of,
    build_report,
    critical_path,
    profile_recovery,
    profile_tracers,
    recovery_roots,
)
from repro.recovery import LineRecovery, StarRecovery
from repro.util.sizes import MB


def make_clocked_tracer(name="t"):
    tracer = Tracer(name)
    clock = {"now": 0.0}
    tracer.bind_clock(lambda: clock["now"])
    return tracer, clock


def hand_built_recovery():
    """A star-shaped recovery: detect, two parallel fetches, merge.

    Timeline: detect [0,1], fetch A [1,3], fetch B [1,4], self-gap
    [4,4.5], merge [4.5,6]. The critical path must pick fetch B (the
    later finisher) and charge the gap to queueing.
    """
    tracer, clock = make_clocked_tracer()
    root = tracer.start("recovery/star", category="recovery", state="s", state_bytes=80.0)
    tracer.record("detect", 0.0, 1.0, category="recovery.detect", parent=root)
    tracer.record(
        "fetch shard 0", 1.0, 3.0, category="recovery.transfer", parent=root, bytes=40.0
    )
    tracer.record(
        "fetch shard 1", 1.0, 4.0, category="recovery.transfer", parent=root, bytes=40.0
    )
    tracer.record("merge", 4.5, 6.0, category="recovery.merge", parent=root, bytes=80.0)
    clock["now"] = 6.0
    root.finish()
    return tracer, root


def run_recovery(mechanism, seed=7, state_bytes=64 * MB, trace="run"):
    tracer = Tracer(trace)
    scenario = build_scenario(num_nodes=32, seed=seed, tracer=tracer)
    saved_state(scenario, "app/state", state_bytes)
    result = timed_recovery(scenario, mechanism, "app/state")
    return tracer, result


class TestBlameTaxonomy:
    def test_known_categories(self):
        assert blame_of("recovery.detect") == "detection"
        assert blame_of("recovery.transfer") == "transfer"
        assert blame_of("net.flow") == "transfer"
        assert blame_of("recovery.merge") == "merge"
        assert blame_of("recovery.install") == "merge"
        assert blame_of("recovery.tree_build") == "control"

    def test_unknown_categories_fall_to_queueing(self):
        assert blame_of("") == "queueing"
        assert blame_of("sim.event") == "queueing"


class TestCriticalPath:
    def test_segments_tile_the_makespan(self):
        tracer, root = hand_built_recovery()
        segments = critical_path(tracer, root)
        assert segments[0].start == pytest.approx(root.start)
        assert segments[-1].end == pytest.approx(root.end)
        for prev, nxt in zip(segments, segments[1:]):
            assert prev.end == pytest.approx(nxt.start)
        covered = sum(s.duration for s in segments)
        assert covered == pytest.approx(root.duration)

    def test_latest_finishing_child_wins(self):
        tracer, root = hand_built_recovery()
        names = [s.name for s in critical_path(tracer, root)]
        assert "fetch shard 1" in names  # ends at 4.0
        assert "fetch shard 0" not in names  # ends at 3.0, off the path

    def test_gap_charged_to_parent_as_queueing(self):
        tracer, root = hand_built_recovery()
        segments = critical_path(tracer, root)
        gaps = [s for s in segments if s.span_id == root.span_id]
        assert len(gaps) == 1
        assert gaps[0].blame == "queueing"
        assert gaps[0].duration == pytest.approx(0.5)

    def test_blame_seconds_sum_to_makespan(self):
        tracer, root = hand_built_recovery()
        seconds = blame_breakdown(critical_path(tracer, root))
        assert set(seconds) == set(BLAME_CATEGORIES)
        assert sum(seconds.values()) == pytest.approx(root.duration)
        assert seconds["detection"] == pytest.approx(1.0)
        assert seconds["transfer"] == pytest.approx(3.0)
        assert seconds["merge"] == pytest.approx(1.5)

    def test_bytes_attributed_proportionally(self):
        tracer, root = hand_built_recovery()
        segments = critical_path(tracer, root)
        fetch = next(s for s in segments if s.name == "fetch shard 1")
        assert fetch.bytes_attributed == pytest.approx(40.0)

    def test_recovery_roots_excludes_saves_by_default(self):
        tracer, clock = make_clocked_tracer()
        save = tracer.start("recovery/save", category="recovery")
        rec = tracer.start("recovery/star", category="recovery")
        clock["now"] = 2.0
        save.finish()
        rec.finish()
        assert recovery_roots(tracer) == [rec]
        assert save in tracer.roots()


class TestRecoveryProfile:
    def test_profile_of_hand_built_trace(self):
        tracer, root = hand_built_recovery()
        profile = profile_recovery(tracer, root)
        assert profile.mechanism == "star"
        assert profile.makespan == pytest.approx(6.0)
        assert sum(profile.blame_fractions.values()) == pytest.approx(1.0)
        assert profile.dominant_blame == "transfer"
        assert profile.bytes_on_critical_path == pytest.approx(40.0)
        assert profile.state_bytes == pytest.approx(80.0)

    def test_star_vs_line_seeded_run(self):
        """The acceptance scenario: both mechanisms profiled end to end."""
        tracers = []
        for mechanism in (StarRecovery(), LineRecovery()):
            tracer, result = run_recovery(mechanism)
            tracers.append((tracer, result))
        report = build_report([t for t, _ in tracers])
        assert {p.mechanism for p in report.profiles} == {"star", "line"}
        for profile, (_, result) in zip(report.profiles, tracers):
            assert sum(profile.blame_fractions.values()) == pytest.approx(1.0)
            # The critical path tiles the root span, which covers the
            # mechanism's reported makespan.
            covered = sum(s.duration for s in profile.segments)
            assert covered == pytest.approx(profile.makespan)
            assert profile.makespan >= result.duration - 1e-9

    def test_explanations_attached_with_model_error(self):
        tracer, _ = run_recovery(StarRecovery())
        report = build_report(tracer)
        (profile,) = report.profiles
        assert profile.explanation is not None
        payload = profile.explanation.to_dict()
        assert set(payload["predicted_seconds"]) == {"star", "line", "tree"}
        assert "star" in payload["observed_seconds"]
        assert "star" in payload["model_error"]
        # The closed form should be in the right ballpark for a clean run.
        assert abs(payload["model_error"]["star"]) < 0.5

    def test_aggregates_and_table(self):
        tracer, _ = run_recovery(StarRecovery())
        report = build_report(tracer)
        aggregates = report.aggregates()
        assert aggregates["star"]["recoveries"] == 1
        assert aggregates["star"]["mean_makespan_s"] > 0
        table = report.format_table()
        assert "star" in table and "makespan" in table


class TestDeterminism:
    def test_same_seed_byte_identical_profiles(self):
        texts = [
            build_report(run_recovery(StarRecovery(), seed=5)[0]).to_json()
            for _ in range(2)
        ]
        assert texts[0] == texts[1]
        payload = json.loads(texts[0])
        assert payload["format"] == "sr3-profile-1"
        assert payload["recoveries"] == 1

    def test_different_seeds_differ(self):
        a, _ = run_recovery(StarRecovery(), seed=5)
        b, _ = run_recovery(StarRecovery(), seed=6)
        assert build_report(a).to_json() != build_report(b).to_json()

    def test_profile_tracers_defaults_to_collector_list(self):
        tracer, _ = run_recovery(StarRecovery())
        assert len(profile_tracers(tracer)) == 1
        assert len(profile_tracers([tracer, tracer])) == 2
