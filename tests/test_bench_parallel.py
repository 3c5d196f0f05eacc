"""The multiprocess sweep runner: byte-identical output vs the in-process path.

The determinism contract of :mod:`repro.bench.parallel` says ``--jobs N``
changes wall-clock only: reports, rows, baseline keys, and observability
artifacts must come out byte-identical to the serial sweep. These tests
run real spawn workers (jobs=2), so they also prove cells re-derive their
randomness from the cell key alone.
"""

import json

from repro.bench import experiments as exp
from repro.bench.parallel import run_campaign_parallel
from repro.chaos.campaign import run_campaign
from repro.obs import recorder
from repro.obs.export import write_trace


class TestTracerExportInject:
    """``take`` and ``adopt`` of recorded tracers: what a worker ships."""

    def test_roundtrip_renumbers_and_freezes_clock(self):
        recorder.start(spans=True)
        try:
            cell_tracer = recorder.new_tracer("cell")
            cell_tracer.bind_clock(lambda: 5.0)
            cell_tracer.start("work", category="x", bytes=7.0)  # stays open
            cell_tracer.instant("tick", at=1.0)
            payload = recorder.take((0, 0))
            assert [t["name"] for t in payload["tracers"]] == ["cell"]  # suffix stripped
            assert recorder.as_tracers(None) == []  # taken, not copied
            first = recorder.new_tracer("first")
            recorder.adopt(payload)
            first_again, rebuilt = recorder.as_tracers(None)
            assert first_again is first and rebuilt.name == "cell-1"  # renumbered
            assert [s.name for s in rebuilt.spans] == ["work", "tick"]
            assert rebuilt.spans[0].attrs == {"bytes": 7.0}
            # The open span keeps clamping to the clock instant it was taken at.
            assert rebuilt.spans[0].effective_end == 5.0
            assert rebuilt.spans[1].end == 1.0
        finally:
            recorder.stop()

    def test_export_start_scopes_to_new_cells(self):
        recorder.start(spans=True, metrics=True)
        try:
            recorder.new_tracer("first")
            recorder.new_registry()
            start = recorder.mark()
            recorder.new_tracer("second")
            recorder.new_registry().counter("c").add(1.0)
            payload = recorder.take(start)
            assert [t["name"] for t in payload["tracers"]] == ["second"]
            assert [r["name"] for r in payload["registries"]] == ["sim"]
            assert [t.name for t in recorder.as_tracers(None)] == ["first-0"]
            assert [r["name"] for r in recorder.registry_dumps()] == ["sim-0"]
        finally:
            recorder.stop()


class TestRegistryExportInject:
    def test_roundtrip_renumbers(self):
        recorder.start(metrics=True)
        try:
            recorder.new_registry().counter("net.bytes").add(3.0)
            payload = recorder.take((0, 0))
            assert [r["name"] for r in payload["registries"]] == ["sim"]
            assert payload["tracers"] == []  # spans are not recorded
            assert recorder.registry_dumps() == []
            recorder.new_registry()
            recorder.adopt(payload)
            dumps = recorder.registry_dumps()
            assert [d["name"] for d in dumps] == ["sim-0", "sim-1"]
            assert dumps[1]["counters"]["net.bytes"]["total"] == 3.0
        finally:
            recorder.stop()


class TestParallelCampaign:
    def test_smoke_report_byte_identical_to_serial(self):
        serial = run_campaign("smoke").to_json()
        parallel = run_campaign_parallel("smoke", jobs=2).to_json()
        assert parallel == serial

    def test_observability_artifacts_byte_identical(self, tmp_path):
        def run(runner, tag):
            recorder.start(spans=True, metrics=True)
            try:
                report = runner()
                trace_path = tmp_path / f"trace-{tag}.json"
                write_trace(str(trace_path))
                metrics = json.dumps(
                    {"registries": recorder.registry_dumps()}, sort_keys=True
                )
                names = [t.name for t in recorder.as_tracers(None)]
            finally:
                recorder.stop()
            return report.to_json(), trace_path.read_text(), metrics, names

        serial = run(lambda: run_campaign("smoke"), "serial")
        parallel = run(lambda: run_campaign_parallel("smoke", jobs=2), "par")
        assert parallel == serial


class TestParallelScale:
    @staticmethod
    def _simulated(result):
        """Everything deterministic: rows and keys minus wall-clock noise."""
        keys = {
            k: v
            for k, v in result.extra["baseline_metrics"].items()
            if not k.endswith(("/wall_s", "/events_per_s"))
        }
        rows = [
            (row["nodes"], row["mechanism"], row["apps"], row["makespan_s"])
            for row in result.rows
        ]
        return keys, rows

    def test_scale_cells_match_in_process_sweep(self):
        serial = exp.scale_overlay(node_counts=(64, 128), state_mb=1, jobs=1)
        parallel = exp.scale_overlay(node_counts=(64, 128), state_mb=1, jobs=2)
        assert self._simulated(parallel) == self._simulated(serial)
