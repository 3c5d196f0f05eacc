"""The observability layer: span tracing, metrics, and trace export."""

import argparse
import json

import pytest

from repro import SR3
from repro.bench.__main__ import _add_observability_flags, _with_observability, main
from repro.obs import (
    MetricsRegistry,
    NullTracer,
    NULL_SPAN,
    NULL_TRACER,
    Tracer,
    build_report,
    chrome_trace,
    dumps_trace,
    flamegraph_text,
    profile_tracers,
    recorder,
    speedscope_document,
    trace_dict,
    write_flamegraph,
    write_profile,
    write_speedscope,
    write_trace,
)
from repro.sim.kernel import Simulator
from repro.util.stats import percentile


def run_pipeline(seed=11, tracer=None):
    """Protect + crash + recover one state; returns the SR3 instance."""
    sr3 = SR3.create(num_nodes=32, seed=seed, tracer=tracer)
    owner = sr3.overlay.nodes[0]
    pieces = sr3.state_split(
        {f"k{i}": i for i in range(40)}, "app/s", num_shards=4, num_replicas=2
    )
    sr3.save(owner, pieces)
    sr3.overlay.fail_node(owner)
    sr3.recover("app/s")
    return sr3


class TestSpanBasics:
    def test_spans_nest_via_explicit_parents(self):
        tracer = Tracer("t")
        clock = {"now": 0.0}
        tracer.bind_clock(lambda: clock["now"])
        root = tracer.start("recovery/star", category="recovery")
        clock["now"] = 1.0
        fetch = root.child("fetch shard 0", category="recovery.transfer", bytes=128.0)
        clock["now"] = 3.0
        fetch.finish()
        clock["now"] = 4.5
        root.finish()
        assert fetch.parent_id == root.span_id
        assert tracer.children_of(root) == [fetch]
        assert tracer.roots() == [root]
        assert fetch.duration == pytest.approx(2.0)
        assert root.duration == pytest.approx(4.5)

    def test_finish_is_idempotent_but_merges_attrs(self):
        tracer = Tracer("t")
        span = tracer.start("x")
        span.finish(at=2.0)
        span.finish(at=9.0, error="late")
        assert span.end == 2.0
        assert span.attrs["error"] == "late"

    def test_record_known_extent_and_instants(self):
        tracer = Tracer("t")
        merged = tracer.record("merge", 1.0, 3.5, category="recovery.merge")
        point = tracer.instant("route a->b", category="overlay.route")
        assert merged.duration == pytest.approx(2.5)
        assert point.kind == "instant"
        assert point.duration == 0.0
        assert tracer.duration_by_category() == {"recovery.merge": pytest.approx(2.5)}

    def test_find_by_fragment_and_category(self):
        tracer = Tracer("t")
        tracer.start("fetch shard 1", category="recovery.transfer")
        tracer.start("fetch shard 2", category="recovery.transfer")
        tracer.start("merge", category="recovery.merge")
        assert len(tracer.find("fetch")) == 2
        assert len(tracer.find("shard 2", category="recovery.transfer")) == 1
        assert tracer.find("fetch", category="recovery.merge") == []


class TestNullTracer:
    def test_all_operations_are_noops(self):
        tracer = NullTracer()
        assert tracer.enabled is False
        span = tracer.start("anything", bytes=1.0)
        assert span is NULL_SPAN
        assert span.child("x") is NULL_SPAN
        assert span.finish(error="y") is NULL_SPAN
        assert tracer.record("r", 0.0, 1.0) is NULL_SPAN
        assert tracer.instant("i") is NULL_SPAN
        assert len(tracer) == 0
        assert tracer.roots() == []

    def test_disabled_tracer_records_nothing_through_full_pipeline(self):
        sr3 = run_pipeline()  # default: NULL_TRACER
        assert sr3.tracer is NULL_TRACER
        assert len(sr3.tracer.spans) == 0


class TestPipelineTracing:
    def test_recovery_produces_span_tree(self):
        sr3 = run_pipeline(tracer=Tracer("pipeline"))
        tracer = sr3.tracer
        saves = tracer.find("recovery/save", category="recovery")
        recoveries = [
            s
            for s in tracer.roots()
            if s.category == "recovery" and s.name.startswith("recovery/")
            and "save" not in s.name
        ]
        assert len(saves) == 1
        assert len(recoveries) == 1
        root = recoveries[0]
        kids = tracer.children_of(root)
        categories = {s.category for s in kids}
        assert "recovery.transfer" in categories
        assert "recovery.merge" in categories
        assert "recovery.install" in categories
        assert "recovery.detect" in categories
        # Every fetch has a network flow span nested beneath it.
        for fetch in (s for s in kids if s.category == "recovery.transfer"):
            flows = tracer.children_of(fetch)
            assert flows and all(f.category == "net.flow" for f in flows)
        # All spans closed, all timestamps on the virtual clock.
        assert all(s.done for s in tracer.spans)
        assert all(s.end >= s.start for s in tracer.spans)

    def test_save_span_has_write_children(self):
        sr3 = run_pipeline(tracer=Tracer("t"))
        save_root = sr3.tracer.find("recovery/save")[0]
        writes = [
            s
            for s in sr3.tracer.children_of(save_root)
            if s.category == "recovery.write"
        ]
        assert len(writes) == 8  # 4 shards x 2 replicas
        assert all(w.attrs["bytes"] > 0 for w in writes)

    def test_metrics_registry_populated(self):
        sr3 = run_pipeline(tracer=Tracer("t"))
        metrics = sr3.metrics
        assert metrics.counter("recovery.completed").total == 1
        assert metrics.counter("save.completed").total == 1
        assert metrics.histogram("recovery.duration").count == 1
        dump = metrics.dump()
        assert "counters" in dump and "histograms" in dump


class TestDeterminism:
    def test_identical_seeds_identical_traces(self):
        a = run_pipeline(seed=5, tracer=Tracer("run"))
        b = run_pipeline(seed=5, tracer=Tracer("run"))
        assert dumps_trace([a.tracer]) == dumps_trace([b.tracer])
        assert dumps_trace([a.tracer], chrome=False) == dumps_trace(
            [b.tracer], chrome=False
        )

    def test_different_seeds_differ(self):
        a = run_pipeline(seed=5, tracer=Tracer("run"))
        b = run_pipeline(seed=6, tracer=Tracer("run"))
        assert dumps_trace([a.tracer]) != dumps_trace([b.tracer])

    def test_export_trace_writes_identical_files(self, tmp_path):
        paths = []
        for i in range(2):
            sr3 = run_pipeline(seed=9, tracer=Tracer("run"))
            path = tmp_path / f"trace-{i}.json"
            sr3.export_trace(str(path))
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestExportFormats:
    def test_plain_dict_format(self):
        sr3 = run_pipeline(tracer=Tracer("t"))
        payload = trace_dict([sr3.tracer])
        assert payload["format"] == "sr3-trace-1"
        (trace,) = payload["traces"]
        assert trace["name"] == "t"
        spans = trace["spans"]
        assert spans
        by_id = {row["id"]: row for row in spans}
        for row in spans:
            assert row["end"] >= row["start"]
            if row["parent"] is not None:
                assert row["parent"] in by_id

    def test_chrome_trace_format(self):
        sr3 = run_pipeline(tracer=Tracer("t"))
        payload = chrome_trace([sr3.tracer])
        events = payload["traceEvents"]
        phases = {e["ph"] for e in events}
        assert "M" in phases and "X" in phases
        for event in events:
            if event["ph"] == "X":
                assert event["dur"] >= 0
                assert event["ts"] >= 0
        # Serialization is valid JSON with pinned formatting.
        text = dumps_trace([sr3.tracer])
        assert json.loads(text) == json.loads(dumps_trace([sr3.tracer]))

    def test_open_spans_clamp_to_clock(self):
        tracer = Tracer("t")
        clock = {"now": 0.0}
        tracer.bind_clock(lambda: clock["now"])
        tracer.start("never finished")
        clock["now"] = 7.0
        (row,) = trace_dict([tracer])["traces"][0]["spans"]
        assert row["end"] == 7.0


class TestCollection:
    """The recorder: what a bench run keeps, and when it stops keeping it."""

    def test_default_tracer_respects_switch(self):
        assert recorder.recording() == (False, False)
        assert recorder.new_tracer() is NULL_TRACER
        private = recorder.new_tracer("live", private=True)
        assert isinstance(private, Tracer) and private.name == "live"
        assert recorder.new_registry().name == "sim"
        assert recorder.as_tracers(None) == [] and recorder.registry_dumps() == []
        recorder.start(spans=True)
        try:
            tracer = recorder.new_tracer("bench")
            assert recorder.new_tracer("live", private=True).name == "live-1"
            assert tracer.name == "bench-0"
            assert recorder.as_tracers(None)[0] is tracer
            recorder.new_registry()  # metrics are not recorded
            assert recorder.registry_dumps() == []
        finally:
            recorder.stop()
        assert recorder.recording() == (False, False)
        assert recorder.as_tracers(None) == []

    def test_failed_artifact_write_stops_the_recorder(self, tmp_path):
        metrics = tmp_path / "m.json"
        with pytest.raises(FileNotFoundError):
            main([
                "run", "fig12c", "--trace", str(tmp_path / "missing" / "t.json"),
                "--metrics-out", str(metrics),
            ])
        assert recorder.recording() == (False, False)
        assert recorder.as_tracers(None) == [] and recorder.registry_dumps() == []
        assert recorder.new_tracer() is NULL_TRACER

    def test_failed_runner_still_writes_artifacts(self, tmp_path):
        parser = argparse.ArgumentParser()
        _add_observability_flags(parser)
        trace, metrics = tmp_path / "t.json", tmp_path / "m.json"
        args = parser.parse_args(["--trace", str(trace), "--metrics-out", str(metrics)])

        def failing_runner():
            sim = Simulator()
            sim.tracer.start("cell", category="campaign").finish()
            sim.metrics.counter("cells.failed").add(1)
            return 1

        assert _with_observability(args, failing_runner) == 1
        assert recorder.recording() == (False, False)
        assert [e["name"] for e in json.loads(trace.read_text())["traceEvents"]
                if e.get("ph") == "X"] == ["cell"]
        (registry,) = json.loads(metrics.read_text())["registries"]
        assert registry["name"] == "sim-0" and registry["counters"]["cells.failed"]["total"] == 1

    def test_metrics_only_run_records_no_span(self, tmp_path, monkeypatch):
        kept = []
        stop = recorder.stop

        def snapshot():
            kept.append((recorder.as_tracers(None), recorder.registry_dumps()))
            stop()

        monkeypatch.setattr(recorder, "stop", snapshot)
        assert main(["run", "fig12c", "--metrics-out", str(tmp_path / "m.json")]) == 0
        ((tracers, registries),) = kept
        assert tracers == [] and registries
        assert [r["name"] for r in registries] == [f"sim-{i}" for i in range(len(registries))]


class TestNullTracerExports:
    """A lone null tracer exports as the one-element list holding it."""

    @pytest.mark.parametrize(
        "export",
        [trace_dict, chrome_trace, dumps_trace, flamegraph_text, speedscope_document,
         lambda t: [p.to_dict() for p in profile_tracers(t)],
         lambda t: build_report(t).to_json()],
    )
    def test_exporter(self, export):
        assert export(NULL_TRACER) == export([NULL_TRACER])

    @pytest.mark.parametrize(
        "write", [write_trace, write_flamegraph, write_speedscope, write_profile]
    )
    def test_writer(self, write, tmp_path):
        write(str(tmp_path / "lone"), NULL_TRACER)
        write(str(tmp_path / "list"), [NULL_TRACER])
        assert (tmp_path / "lone").read_bytes() == (tmp_path / "list").read_bytes()


class TestRegistryPrimitives:
    def test_gauge(self):
        registry = MetricsRegistry("m")
        gauge = registry.gauge("pending")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec()
        assert gauge.value == 6
        assert registry.gauge("pending") is gauge

    def test_histogram_percentiles(self):
        registry = MetricsRegistry("m")
        hist = registry.histogram("latency")
        for v in [1.0, 2.0, 3.0, 4.0, 10.0]:
            hist.observe(v)
        assert hist.count == 5
        assert hist.mean == pytest.approx(4.0)
        assert hist.percentile(50) == 3.0
        assert hist.percentile(100) == 10.0
        assert hist.min == 1.0 and hist.max == 10.0

    def test_histogram_percentile_interpolates_like_the_pipeline(self):
        """An even count: nearest rank would give 3.0, interpolation 2.5."""
        hist = MetricsRegistry("m").histogram("latency")
        for v in [4.0, 1.0, 3.0, 2.0]:
            hist.observe(v)
        assert hist.percentile(50) == 2.5 == percentile(hist.values(), 50)
        assert hist.percentile(99) == percentile(hist.values(), 99)
        with pytest.raises(ValueError):
            hist.percentile(101)
        with pytest.raises(ValueError):
            MetricsRegistry("m").histogram("empty").percentile(50)

    def test_counter_labels(self):
        registry = MetricsRegistry("m")
        counter = registry.counter("recovery.completed")
        counter.add(1, label="star")
        counter.add(2, label="tree")
        assert counter.total == 3
        assert registry.counter("recovery.completed") is counter
