"""Unit tests for the experiment harness and reporting."""

import pytest

from repro.bench.harness import ExperimentResult, build_scenario
from repro.recovery.deployment import default_shard_count, saved_state, timed_recovery
from repro.bench.reporting import format_result, render_markdown
from repro.errors import BenchmarkError
from repro.recovery.star import StarRecovery
from repro.util.sizes import MB


class TestExperimentResult:
    def make(self):
        return ExperimentResult("exp", "desc", columns=["a", "b"])

    def test_add_row_and_column(self):
        result = self.make()
        result.add_row(a=1, b=2)
        result.add_row(a=3, b=4)
        assert result.column("a") == [1, 3]

    def test_missing_column_rejected(self):
        result = self.make()
        with pytest.raises(BenchmarkError):
            result.add_row(a=1)

    def test_unknown_column_rejected(self):
        result = self.make()
        with pytest.raises(BenchmarkError):
            result.column("z")

    def test_series_filter(self):
        result = self.make()
        result.add_row(a="x", b=1)
        result.add_row(a="y", b=2)
        result.add_row(a="x", b=3)
        assert result.series("a", "x", "b") == [1, 3]


class TestReporting:
    def test_text_table_contains_data(self):
        result = ExperimentResult("e", "d", columns=["size", "time"])
        result.add_row(size=8, time=1.5)
        text = format_result(result)
        assert "size" in text and "1.50" in text and "== e:" in text

    def test_markdown_table(self):
        result = ExperimentResult("e", "d", columns=["x"], notes="scaled down")
        result.add_row(x=True)
        md = render_markdown(result)
        assert md.startswith("| x |")
        assert "| yes |" in md
        assert "scaled down" in md

    def test_large_numbers_formatted(self):
        result = ExperimentResult("e", "d", columns=["x"])
        result.add_row(x=1234567.0)
        assert "1,234,567" in format_result(result)


class TestScenario:
    def test_unconstrained_links(self):
        scenario = build_scenario(num_nodes=16)
        assert not scenario.constrained
        assert scenario.overlay.nodes[0].host.up_bw == float("inf")

    def test_constrained_links(self):
        scenario = build_scenario(num_nodes=16, uplink_mbit=100, downlink_mbit=100)
        assert scenario.constrained
        assert scenario.overlay.nodes[0].host.up_bw == pytest.approx(12.5e6)

    def test_storage_registered(self):
        scenario = build_scenario(num_nodes=16)
        assert "remote-storage" in scenario.network.hosts

    def test_default_shard_count_scaling(self):
        assert default_shard_count(8 * MB) == 4
        assert default_shard_count(128 * MB) == 16

    def test_saved_state_and_timed_recovery(self):
        scenario = build_scenario(num_nodes=32, seed=1)
        registered, save_result = saved_state(scenario, "a/s", 8 * MB)
        assert registered.plan is not None
        assert save_result.duration > 0
        result = timed_recovery(scenario, StarRecovery(), "a/s")
        assert result.duration > 0
        assert not registered.owner.alive
