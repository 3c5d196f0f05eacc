"""The export tables of ``repro`` and its subpackages (``repro._exports``).

Every package ``__init__`` is one table, defining module -> names, resolved
on first attribute access. This file pins what each package exported
before the tables replaced the import blocks (commit ``4cb7a8e``), so a
dropped or misrouted name fails here, and the one trap of the scheme: an
export named like the submodule that defines it.
"""

import ast
import importlib
import inspect
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parents[1]

#: package -> every name it exports, as listed in ``__all__`` at ``4cb7a8e``,
#: less the names whose code was deleted since.
EXPORTS = {
    package: names.split()
    for package, names in {
        "repro": (
            "ControlPlane Controller Deployment Diagnosis LiveCell LiveReport "
            "LoadDriver MECHANISMS PolicyRule PolicyTable RemediationRecord ReproError SR3 "
            "SelectionResult SplitResult __version__ build_deployment build_live_cell "
            "default_policy"
        ),
        "repro.bench": "ExperimentResult Scenario build_scenario format_result render_markdown",
        "repro.chaos": (
            "BandwidthFlap CAMPAIGNS ChainChecksumConsistent ChaosEngine CrashWave "
            "DEFAULT_CHECKERS FlowAccounting INJECTOR_KINDS Injector InvariantChecker "
            "InvariantReport KNOWN_MECHANISMS MidRecoveryCrash NetworkPartition "
            "NoOrphanedReplicas PoissonChurn RackFailure RecoveryLatency ResilienceReport "
            "RingConsistency RunContext SCENARIOS SR3_MECHANISMS Scenario ScenarioOutcome "
            "StateIntegrity Straggler campaign_scenarios check_invariants make_injector "
            "make_mechanism run_campaign run_scenario streaming_probe"
        ),
        "repro.control": (
            "ACTIONS Action ActionOutcome CONDITIONS ControlEvent ControlPlane "
            "Controller Diagnosis EVENT_KINDS EventLog PolicyRule PolicyTable "
            "RemediationRecord TELEMETRY_KINDS build_action default_policy diagnose "
            "register_action watch_detector"
        ),
        "repro.dht": (
            "DetectorConfig DhtNode FailureDetector JoinReport LeafSet MaintenanceConfig "
            "Overlay RoutingTable measure_maintenance protocol_join run_maintenance_round"
        ),
        "repro.live": (
            "ConstantRate FlashCrowd LATENCY_PERCENTILES LatencyRecorder LiveCell "
            "LiveReport LoadDriver PhaseSummary RateCurve build_live_cell"
        ),
        "repro.multicast": (
            "ScribeSystem ScribeTopic SpanningTree build_balanced_tree build_tree "
            "build_tree_with_depth fanout_for_depth"
        ),
        "repro.obs": (
            "Anomaly AnomalyDetector BLAME_BY_CATEGORY BLAME_CATEGORIES BurnWindow Counter "
            "CriticalSegment DEFAULT_WINDOWS Gauge Histogram MetricsRegistry NULL_SPAN "
            "NULL_TRACER NullTracer ProfileReport RecoveryProfile SERIES_KINDS SLO SLOAlert "
            "SLOEngine Span TelemetryPipeline TimeSeries Tracer "
            "blame_breakdown blame_of build_report chrome_trace collapsed_stacks "
            "critical_path dumps_trace flamegraph_text profile_recovery profile_tracers "
            "recovery_roots render_dashboard speedscope_document trace_dict write_dashboard "
            "write_flamegraph write_profile write_speedscope write_trace"
        ),
        "repro.recovery": (
            "CostModel Deployment HoldsDeployment LineRecovery MECHANISMS Mechanism "
            "OnlineSelector RecoveryContext RecoveryHandle RecoveryManager RecoveryResult "
            "SaveResult SelectionExplanation SelectionInputs "
            "SpeculationConfig SpeculativeStarRecovery StandbyRecovery StandbySyncReport "
            "StarRecovery TreeRecovery build_deployment explain_selection "
            "predict_recovery_seconds select_mechanism sr3_save sync_standby"
        ),
        "repro.recovery.baselines": (
            "CheckpointConfig CheckpointingBaseline Fp4sBaseline Fp4sConfig LineageBaseline "
            "LineageConfig ReplicationBaseline"
        ),
        "repro.sim": (
            "Counter Event FailureLog Flow Gauge Histogram Host MetricsRegistry Network "
            "RemoteStorage ResourceProfile Simulator TimeSeries"
        ),
        "repro.state": (
            "ChainLink CompactionPolicy DeltaShard HashPlacement LeafSetPlacement "
            "PlacedShard PlacementPlan Shard ShardReplica StateSnapshot StateStore "
            "StateVersion SubShard VersionChain VersionClock chain_digest diff_snapshots "
            "merge_shards partition_delta partition_snapshot partition_synthetic "
            "reconstruct_chain"
        ),
        "repro.streaming": (
            "Bolt DStream FieldsGrouping GlobalGrouping IncrementalJoinBolt "
            "LocalCluster MicroBatchEngine MicroBatchJob OutputCollector SR3StateBackend "
            "ShuffleGrouping SlidingWindow Spout StatefulBolt StreamTuple Topology "
            "TopologyBuilder WindowPane"
        ),
        "repro.util": "BloomFilter GB KB MB NodeId mean median percentile random_node_id",
        "repro.workloads": (
            "BargainIndexBolt BusTraceGenerator ClickGenerator FraudDetectBolt "
            "ProductBundlingBolt RouteDelayBolt SentenceGenerator SplitSentenceBolt "
            "TickGenerator TopKClicksBolt build_bargain_index_topology "
            "build_fraud_detection_topology build_micro_promotion_topology "
            "build_product_bundling_topology build_traffic_topology build_wordcount_topology"
        ),
    }.items()
}


def package_dir(package: str) -> Path:
    return SRC.joinpath(*package.split("."))


def export_table_of(package: str) -> dict:
    """``name -> defining module``, read from the package's source."""
    tree = ast.parse((package_dir(package) / "__init__.py").read_text())
    (table,) = [
        node.args[1]
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "export_table"
    ]
    return {
        name: module
        for module, names in ast.literal_eval(table).items()
        for name in names
    }


def test_every_package_has_an_expectation():
    found = {
        ".".join(init.parent.relative_to(SRC).parts)
        for init in package_dir("repro").rglob("__init__.py")
    }
    assert found == set(EXPORTS)


@pytest.mark.parametrize("package", sorted(EXPORTS))
def test_all_is_the_pinned_list_and_every_name_is_its_owners_object(package):
    module = importlib.import_module(package)
    assert sorted(module.__all__) == sorted(EXPORTS[package])  # as sets, and no duplicate
    table = export_table_of(package)
    assert set(table) == set(module.__all__) - {"__version__"}
    for name, owner in table.items():
        assert getattr(module, name) is getattr(importlib.import_module(owner), name), name
        assert vars(module)[name] is getattr(module, name)  # cached after the first read


@pytest.mark.parametrize("package", sorted(EXPORTS))
def test_an_export_named_like_a_submodule_is_defined_by_it(package):
    """The rule ``export_table`` binds early by; any other clash would leave
    the module, not the export, on the package once the submodule is imported."""
    directory = package_dir(package)
    for name, owner in export_table_of(package).items():
        if (directory / f"{name}.py").exists() or (directory / name).is_dir():
            assert owner == f"{package}.{name}"


def fresh_interpreter(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, text=True, capture_output=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("first", [
    "import repro.obs.critical_path, repro.control.diagnose",
    "from repro.obs import critical_path; from repro.control import diagnose",
    "import repro.chaos",
    "from repro.obs.critical_path import blame_of; from repro.control.diagnose import CONDITIONS",
])
def test_submodule_named_exports_are_the_functions_whatever_runs_first(first):
    out = fresh_interpreter(
        f"{first}\n"
        "import inspect, repro.obs, repro.control\n"
        "import repro.obs.critical_path, repro.control.diagnose\n"
        "print(inspect.isfunction(repro.obs.critical_path),\n"
        "      inspect.isfunction(repro.control.diagnose))\n"
    )
    assert out.split() == ["True", "True"]


def test_unknown_attribute_names_the_package():
    import repro.sim

    with pytest.raises(AttributeError, match=r"module 'repro.sim' has no attribute 'Simulatr'"):
        repro.sim.Simulatr
    assert not hasattr(repro, "Overlay")
    with pytest.raises(ImportError):
        from repro.dht import Simulator  # noqa: F401


def test_submodules_still_import_off_the_package():
    from repro.obs import registry
    from repro.sim import flowvec

    assert inspect.ismodule(flowvec) and flowvec.__name__ == "repro.sim.flowvec"
    assert inspect.ismodule(registry) and registry.__name__ == "repro.obs.registry"


def test_star_import_binds_all():
    namespace: dict = {}
    exec("from repro.recovery import *", namespace)
    assert set(EXPORTS["repro.recovery"]) <= set(namespace)
    import repro.recovery

    assert namespace["TreeRecovery"] is repro.recovery.TreeRecovery


def test_a_lazily_reached_class_pickles_by_reference():
    from repro.bench import ExperimentResult
    from repro.dht import Overlay

    assert pickle.loads(pickle.dumps(Overlay)) is Overlay
    result = ExperimentResult("fig0", "title", ["a"], [{"a": 1}])
    copy = pickle.loads(pickle.dumps(result))
    assert type(copy) is ExperimentResult and copy == result
