"""Smoke test of the host-time benchmark (outside tier-1: ``pytest benchmarks/perf``).

Runs every workload at reduced size, once untraced and once traced, and
checks the contract between ``BENCHMARK.json``, the harness and the layer
table. No timing is asserted: the numbers here are too small to mean much.
"""

import ast
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_names_match_benchmark_json():
    names = [w["name"] for w in SPEC["workloads"]]
    assert set(names) <= set(workloads.WORKLOADS)  # the driver's list is a subset
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    assert per_layer == list(layertrace.LAYER_METRICS) + [
        "trace.cell_wall_s", "trace.overhead_ratio"
    ]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"][:-2]} == {
        name: unit for name, (unit, _source) in layertrace.LAYER_METRICS.items()
    }
    every = names + per_layer + [m["name"] for m in SPEC["end_to_end"]]
    assert all(NAME.fullmatch(name) for name in every)
    assert len(set(every)) == len(every)


def test_benchmark_imports_only_public_names():
    for path in HERE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                imported = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            else:
                continue
            for name in imported:
                assert not name.startswith("repro.bench"), (path.name, name)
                assert not any(part.startswith("_") and part != "__future__"
                               for part in name.split(".")), (path.name, name)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_at_reduced_size(name):
    workload = workloads.WORKLOADS[name](seed=0, smoke=True)
    originals = {
        (owner, attr): vars(owner)[attr]
        for owner, attrs, *_rest in layertrace.METHOD_PROBES
        for attr in attrs
    }

    plain = run.run_cell(workload)
    assert plain.outcome.failed == 0 and not plain.outcome.errors
    assert plain.outcome.ops >= 1 and plain.outcome.work >= 1
    assert sum(plain.phases) == pytest.approx(plain.wall)

    trace = layertrace.LayerTrace()
    trace.install()
    try:
        traced = run.run_cell(workload, trace)
    finally:
        trace.uninstall()

    # Same simulated result with and without the wrappers in place.
    assert traced.outcome.sim == plain.outcome.sim
    assert traced.outcome.failed == 0 and not traced.outcome.errors
    # The layer self times tile the traced cell.
    tiled = sum(traced.layers[m] for m in layertrace.self_time_metrics())
    assert tiled == pytest.approx(traced.wall, rel=0.05)
    assert traced.layers["harness.unmapped_s"] == 0.0
    assert set(traced.layers) == set(layertrace.LAYER_METRICS)
    # Every wrapper is gone again.
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original, (owner, attr)
    assert workloads.partition_synthetic is layertrace.partition_synthetic
    assert not hasattr(workloads.run_campaign, "__wrapped__")
    # Spans nest: every parent was recorded in the same cell.
    ids = {span["id"] for span in trace.span_records()}
    assert all(s["parent"] is None or s["parent"] in ids for s in trace.span_records())


def test_predicted_zeroes():
    """What the README predicts a layer contributes nothing to."""
    trace = layertrace.LayerTrace()
    trace.install()
    try:
        star = run.run_cell(workloads.WORKLOADS["scale_star"](0, smoke=True), trace)
        live = run.run_cell(workloads.WORKLOADS["live_flash"](0, smoke=True), trace)
    finally:
        trace.uninstall()
    assert star.layers["multicast.api_self_s"] == 0.0
    assert star.layers["multicast.callback_self_s"] == 0.0
    assert live.layers["sim.kernel.events"] < 1000
