"""Flamegraph export: collapsed stacks and speedscope documents."""

import json

import pytest

from repro.bench.harness import build_scenario
from repro.recovery.deployment import saved_state, timed_recovery
from repro.obs import (
    Tracer,
    collapsed_stacks,
    flamegraph_text,
    speedscope_document,
    write_flamegraph,
    write_speedscope,
)
from repro.recovery import StarRecovery
from repro.util.sizes import MB


def make_trace():
    """Root [0,10] with overlapping children [1,4] and [2,6], grandchild [2,3]."""
    tracer = Tracer("t")
    clock = {"now": 0.0}
    tracer.bind_clock(lambda: clock["now"])
    root = tracer.start("recovery/star", category="recovery")
    a = tracer.record("fetch a", 1.0, 4.0, category="recovery.transfer", parent=root)
    tracer.record("flow", 2.0, 3.0, category="net.flow", parent=a)
    tracer.record("fetch b", 2.0, 6.0, category="recovery.transfer", parent=root)
    clock["now"] = 10.0
    root.finish()
    return tracer


def run_recovery(seed=7):
    tracer = Tracer("run")
    scenario = build_scenario(num_nodes=32, seed=seed, tracer=tracer)
    saved_state(scenario, "app/state", 64 * MB)
    timed_recovery(scenario, StarRecovery(), "app/state")
    return tracer


class TestSelfTime:
    def test_overlapping_children_subtract_once(self):
        stacks = collapsed_stacks(make_trace())
        # Children cover [1,6] (union), so the root's self time is 10-5=5.
        assert stacks["recovery/star"] == pytest.approx(5.0)
        # fetch a is covered [2,3] by its flow child: self time 2.
        assert stacks["recovery/star;fetch a"] == pytest.approx(2.0)
        assert stacks["recovery/star;fetch a;flow"] == pytest.approx(1.0)
        assert stacks["recovery/star;fetch b"] == pytest.approx(4.0)

    def test_total_self_time_counts_concurrency(self):
        # Fetches a and b overlap on [2,4], so total self-time exceeds the
        # 10s wall clock — flamegraph widths measure work, not elapsed time.
        stacks = collapsed_stacks(make_trace())
        assert sum(stacks.values()) == pytest.approx(12.0)

    def test_root_filter(self):
        tracer = make_trace()
        tracer.record("ping", 0.0, 1.0, category="overlay.maintenance")
        assert "ping" not in collapsed_stacks(tracer)
        assert "recovery/star" in collapsed_stacks(tracer)


class TestFlamegraphText:
    def test_lines_are_integer_microseconds(self):
        text = flamegraph_text(make_trace())
        lines = text.strip().splitlines()
        assert lines == sorted(lines)
        for line in lines:
            stack, value = line.rsplit(" ", 1)
            assert int(value) > 0
        assert "recovery/star;fetch b 4000000" in lines

    def test_multiple_tracers_get_name_prefix(self):
        text = flamegraph_text([make_trace(), make_trace()])
        assert all(line.startswith("t;") for line in text.strip().splitlines())

    def test_write_flamegraph(self, tmp_path):
        path = tmp_path / "flame.txt"
        write_flamegraph(str(path), make_trace())
        assert path.read_text() == flamegraph_text(make_trace())


class TestSpeedscope:
    def test_document_is_schema_consistent(self):
        doc = speedscope_document(make_trace())
        assert doc["$schema"] == "https://www.speedscope.app/file-format-schema.json"
        frames = doc["shared"]["frames"]
        (profile,) = doc["profiles"]
        assert profile["type"] == "sampled"
        assert profile["unit"] == "seconds"
        assert len(profile["samples"]) == len(profile["weights"])
        for sample in profile["samples"]:
            assert sample  # no empty stacks
            for index in sample:
                assert 0 <= index < len(frames)
        assert profile["endValue"] == pytest.approx(sum(profile["weights"]))
        assert profile["startValue"] == 0

    def test_real_recovery_loads_as_valid_json(self, tmp_path):
        path = tmp_path / "prof.speedscope.json"
        write_speedscope(str(path), run_recovery())
        doc = json.loads(path.read_text())
        assert doc["profiles"][0]["samples"]
        frame_names = {f["name"] for f in doc["shared"]["frames"]}
        assert "recovery/star" in frame_names

    def test_same_seed_byte_identical(self, tmp_path):
        paths = []
        for i in range(2):
            path = tmp_path / f"s{i}.json"
            write_speedscope(str(path), run_recovery(seed=5))
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_flamegraph_same_seed_byte_identical(self, tmp_path):
        paths = []
        for i in range(2):
            path = tmp_path / f"f{i}.txt"
            write_flamegraph(str(path), run_recovery(seed=5))
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
