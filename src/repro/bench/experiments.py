"""One function per table/figure of the paper's evaluation (Sec. 5).

Every function is deterministic given its seed and returns an
:class:`~repro.bench.harness.ExperimentResult`. Default parameters follow
the paper; several accept scaled-down sizes so the pytest benchmarks run
in seconds while ``scripts``-level runs regenerate the full figures.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Sequence, Tuple

from repro.bench.harness import ExperimentResult, Scenario, build_scenario
from repro.bench.parallel import run_scale_cells
from repro.chaos.campaign import run_scenario
from repro.chaos.scenario import SCENARIOS
from repro.control import (
    Controller,
    ControlPlane,
    PolicyRule,
    PolicyTable,
)
from repro.dht.failure_detector import DetectorConfig, FailureDetector
from repro.dht.maintenance import MaintenanceConfig, measure_maintenance
from repro.errors import BenchmarkError
from repro.live.driver import LoadDriver, app_flow_demands, build_live_cell
from repro.live.rates import FlashCrowd
from repro.obs.anomaly import AnomalyDetector
from repro.obs.slo import SLO, BurnWindow, SLOEngine
from repro.obs.timeseries import TelemetryPipeline
from repro.recovery.baselines.fp4s import Fp4sBaseline, Fp4sConfig
from repro.recovery.baselines.lineage import LineageBaseline, LineageConfig
from repro.recovery.baselines.replication import ReplicationBaseline
from repro.recovery.deployment import (
    MECHANISMS,
    build_deployment,
    default_shard_count,
    saved_state,
    timed_recovery,
)
from repro.recovery.line import LineRecovery
from repro.recovery.model import CostModel, run_handles
from repro.recovery.online import OnlineSelector
from repro.recovery.selection import (
    SelectionExplanation,
    SelectionInputs,
    explain_selection,
    predict_recovery_seconds,
    select_mechanism,
)
from repro.recovery.star import StarRecovery
from repro.recovery.tree import TreeRecovery
from repro.sim.resources import sample_grid
from repro.state.partitioner import partition_synthetic, replicate
from repro.state.placement import HashPlacement
from repro.state.version import StateVersion
from repro.streaming.backend import SR3StateBackend
from repro.streaming.cluster import LocalCluster
from repro.util.sizes import MB, mbit_per_s
from repro.util.stats import mean, percentile
from repro.workloads.wordcount import build_wordcount_topology

CONSTRAINED_MBIT = 100.0
DEFAULT_SIZES_MB = (8, 16, 32, 64, 128)

#: The paper's three structures (Sec. 3.4-3.6), which the figures sweep at
#: their fixed knobs — ``MECHANISMS[name]()``.
FIGURE_MECHANISMS = ("star", "line", "tree")


def _checkpointing_recovery_time(scenario: Scenario, size_bytes: float) -> float:
    upstream = scenario.overlay.nodes[1]
    replacement = scenario.overlay.nodes[2]
    handle = scenario.checkpointing.recover(upstream, replacement, size_bytes)
    return run_handles(scenario.sim, [handle])[0].duration


# --------------------------------------------------------------------- Fig. 8


def _fig8_recovery(
    experiment_id: str,
    description: str,
    constrained: bool,
    sizes_mb: Sequence[int],
    seed: int,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id,
        description,
        columns=["state_mb", "checkpointing_s"]
        + [f"{name}_s" for name in FIGURE_MECHANISMS],
    )
    link = CONSTRAINED_MBIT if constrained else None
    for size_mb in sizes_mb:
        size = size_mb * MB
        times: Dict[str, float] = {}
        for name in FIGURE_MECHANISMS:
            scenario = build_scenario(
                num_nodes=64, seed=seed, uplink_mbit=link, downlink_mbit=link
            )
            saved_state(scenario, "app/state", size)
            times[f"{name}_s"] = timed_recovery(
                scenario, MECHANISMS[name](), "app/state"
            ).duration
        scenario = build_scenario(
            num_nodes=64, seed=seed, uplink_mbit=link, downlink_mbit=link
        )
        times["checkpointing_s"] = _checkpointing_recovery_time(scenario, size)
        result.add_row(state_mb=size_mb, **times)
    return result


def fig8a_recovery_no_constraint(
    sizes_mb: Sequence[int] = DEFAULT_SIZES_MB, seed: int = 0
) -> ExperimentResult:
    """Fig. 8a: recovery time vs state size, unconstrained GbE links."""
    return _fig8_recovery(
        "fig8a",
        "State recovery time vs state size (no bandwidth constraint)",
        constrained=False,
        sizes_mb=sizes_mb,
        seed=seed,
    )


def fig8b_recovery_bw_constraint(
    sizes_mb: Sequence[int] = DEFAULT_SIZES_MB, seed: int = 0
) -> ExperimentResult:
    """Fig. 8b: recovery time vs state size, 100 Mb/s per-server links."""
    return _fig8_recovery(
        "fig8b",
        "State recovery time vs state size (100 Mb/s upload constraint)",
        constrained=True,
        sizes_mb=sizes_mb,
        seed=seed,
    )


def fig8c_save_time(
    sizes_mb: Sequence[int] = DEFAULT_SIZES_MB, seed: int = 0
) -> ExperimentResult:
    """Fig. 8c: state save time vs state size (serial leaf-set writes)."""
    result = ExperimentResult(
        "fig8c",
        "State save time vs state size",
        columns=["state_mb", "checkpointing_s", "sr3_s"],
    )
    for size_mb in sizes_mb:
        size = size_mb * MB
        scenario = build_scenario(num_nodes=64, seed=seed)
        _, save_result = saved_state(scenario, "app/state", size)
        scenario2 = build_scenario(num_nodes=64, seed=seed)
        handle = scenario2.checkpointing.save(scenario2.overlay.nodes[0], size)
        scenario2.sim.run_until_idle()
        result.add_row(
            state_mb=size_mb,
            checkpointing_s=handle.result.duration,
            sr3_s=save_result.duration,
        )
    return result


# --------------------------------------------------------------------- Fig. 9


def fig9a_star_fanout(
    fanout_bits: Sequence[int] = (1, 2, 3, 4),
    sizes_mb: Sequence[int] = (8, 16, 32),
    seed: int = 0,
) -> ExperimentResult:
    """Fig. 9a: star recovery vs fan-out bit (expected ~flat)."""
    result = ExperimentResult(
        "fig9a",
        "Star-structured recovery time vs star fan-out bit",
        columns=["fanout_bit", "state_mb", "recovery_s"],
    )
    for size_mb in sizes_mb:
        for bits in fanout_bits:
            scenario = build_scenario(num_nodes=64, seed=seed)
            saved_state(scenario, "app/state", size_mb * MB)
            duration = timed_recovery(
                scenario, StarRecovery(fanout_bits=bits), "app/state"
            ).duration
            result.add_row(fanout_bit=bits, state_mb=size_mb, recovery_s=duration)
    return result


def fig9b_line_path_length(
    path_lengths: Sequence[int] = (4, 8, 16, 32, 64),
    sizes_mb: Sequence[int] = (8, 16, 32),
    seed: int = 0,
) -> ExperimentResult:
    """Fig. 9b: line recovery vs recovery path length (grows with length)."""
    result = ExperimentResult(
        "fig9b",
        "Line-structured recovery time vs path length",
        columns=["path_length", "state_mb", "recovery_s"],
    )
    for size_mb in sizes_mb:
        for length in path_lengths:
            scenario = build_scenario(
                num_nodes=max(128, 2 * length), seed=seed, placement="hash"
            )
            saved_state(
                scenario,
                "app/state",
                size_mb * MB,
                num_shards=max(length, default_shard_count(size_mb * MB)),
            )
            duration = timed_recovery(
                scenario, LineRecovery(path_length=length), "app/state"
            ).duration
            result.add_row(path_length=length, state_mb=size_mb, recovery_s=duration)
    return result


def fig9c_tree_branch_depth(
    depths: Sequence[int] = (4, 8, 16, 32, 64),
    sizes_mb: Sequence[int] = (16, 32),
    seed: int = 0,
) -> ExperimentResult:
    """Fig. 9c: tree recovery vs branch depth (grows with depth)."""
    result = ExperimentResult(
        "fig9c",
        "Tree-structured recovery time vs branch depth",
        columns=["branch_depth", "state_mb", "recovery_s"],
    )
    for size_mb in sizes_mb:
        for depth in depths:
            scenario = build_scenario(
                num_nodes=max(256, 3 * depth), seed=seed, placement="hash"
            )
            saved_state(scenario, "app/state", size_mb * MB, num_shards=4)
            duration = timed_recovery(
                scenario,
                TreeRecovery(fanout_bits=1, branch_depth=depth, sub_shards=8),
                "app/state",
            ).duration
            result.add_row(branch_depth=depth, state_mb=size_mb, recovery_s=duration)
    return result


def fig9d_tree_fanout(
    fanout_bits: Sequence[int] = (1, 2, 3, 4),
    sizes_mb: Sequence[int] = (64, 128),
    seed: int = 0,
) -> ExperimentResult:
    """Fig. 9d: tree recovery vs tree fan-out (falls as fan-out grows)."""
    result = ExperimentResult(
        "fig9d",
        "Tree-structured recovery time vs tree fan-out bit",
        columns=["fanout_bit", "state_mb", "recovery_s"],
    )
    for size_mb in sizes_mb:
        for bits in fanout_bits:
            scenario = build_scenario(num_nodes=256, seed=seed, placement="hash")
            saved_state(scenario, "app/state", size_mb * MB, num_shards=8)
            duration = timed_recovery(
                scenario,
                TreeRecovery(fanout_bits=bits, sub_shards=32),
                "app/state",
            ).duration
            result.add_row(fanout_bit=bits, state_mb=size_mb, recovery_s=duration)
    return result


# -------------------------------------------------------------------- Fig. 10


def fig10_simultaneous_failures(
    mechanism_name: str,
    failure_counts: Sequence[int] = (0, 10, 20, 30, 40),
    replicas: Sequence[int] = (2, 3),
    state_mb: int = 64,
    seed: int = 0,
) -> ExperimentResult:
    """Fig. 10: recovery time vs number of simultaneous shard failures.

    "To cause simultaneous failures, we deliberately remove some shards of
    application's state in some nodes" — each failure drops one stored
    shard replica (never the last copy of a shard).
    """
    if mechanism_name not in MECHANISMS:
        raise BenchmarkError(f"unknown mechanism {mechanism_name!r}")
    result = ExperimentResult(
        f"fig10_{mechanism_name}",
        f"{mechanism_name}-structured recovery time vs simultaneous shard failures",
        columns=["failures", "replicas", "recovery_s"],
    )
    # Enough shards that dropping the requested number of replicas never
    # erases a shard outright (each shard keeps >= 1 surviving copy).
    num_shards = max(32, max(failure_counts) + 8)
    for num_replicas in replicas:
        for failures in failure_counts:
            scenario = build_scenario(num_nodes=128, seed=seed, placement="hash")
            registered, _ = saved_state(
                scenario,
                "app/state",
                state_mb * MB,
                num_shards=num_shards,
                num_replicas=num_replicas,
            )
            _drop_replicas(scenario, registered, failures, seed + failures)
            duration = timed_recovery(
                scenario, MECHANISMS[mechanism_name](), "app/state"
            ).duration
            result.add_row(
                failures=failures, replicas=num_replicas, recovery_s=duration
            )
    return result


def _drop_replicas(scenario: Scenario, registered, count: int, seed: int) -> None:
    """Drop ``count`` stored replicas, never erasing a shard entirely."""
    rng = random.Random(seed)
    plan = registered.plan
    droppable = list(plan.placements)
    rng.shuffle(droppable)
    dropped = 0
    for placed in droppable:
        if dropped == count:
            break
        survivors = plan.providers_for(placed.replica.shard.index)
        if len(survivors) <= 1:
            continue
        if placed.node.drop_shard(placed.replica.key):
            dropped += 1
    if dropped < count:
        raise BenchmarkError(
            f"could only drop {dropped} of {count} replicas without losing a shard"
        )


# -------------------------------------------------------------------- Fig. 11


def fig11_load_balance(
    num_apps: int,
    num_nodes: int = 5000,
    state_mb: int = 32,
    shard_kb: int = 512,
    num_replicas: int = 2,
    seed: int = 0,
) -> ExperimentResult:
    """Fig. 11: distribution of shard replicas across the overlay.

    Paper parameters: 5,000 Pastry nodes, 32 MB state per application,
    512 KB shards, replication factor two; 500 and 1,000 applications.
    """
    overlay = build_deployment(num_nodes=num_nodes, seed=seed).overlay
    placement = HashPlacement()
    num_shards = max(1, (state_mb * MB) // (shard_kb * 1024))
    for app in range(num_apps):
        shards = partition_synthetic(
            f"app-{app}/state", state_mb * MB, num_shards, StateVersion(0.0, 1)
        )
        plan = placement.place(None, replicate(shards, num_replicas), overlay)
        plan.store_all()
    counts = [node.stored_shard_count() for node in overlay.nodes]
    result = ExperimentResult(
        f"fig11_{num_apps}apps",
        f"Shard replicas per node: {num_apps} apps on {num_nodes} nodes",
        columns=["metric", "value"],
        extra={"counts": counts},
    )
    below_50 = sum(1 for c in counts if c < 50) / len(counts)
    below_100 = sum(1 for c in counts if c < 100) / len(counts)
    for metric, value in (
        ("nodes", len(counts)),
        ("apps", num_apps),
        ("mean_shards_per_node", mean(counts)),
        ("p50", percentile(counts, 50)),
        ("p95", percentile(counts, 95)),
        ("p99", percentile(counts, 99)),
        ("max", max(counts)),
        ("fraction_below_50_shards", below_50),
        ("fraction_below_100_shards", below_100),
    ):
        result.add_row(metric=metric, value=value)
    return result


# -------------------------------------------------------------------- Fig. 12


def _overhead_scenario(approach: str, seed: int, state_mb: int = 64):
    """Run one recovery and return (scenario, involved node names)."""
    scenario = build_scenario(num_nodes=64, seed=seed)
    size = state_mb * MB
    if approach == "checkpointing":
        _checkpointing_recovery_time(scenario, size)
        return scenario, [node.name for node in scenario.overlay.nodes[1:3]]
    saved_state(scenario, "app/state", size)
    timed_recovery(scenario, MECHANISMS[approach](), "app/state")
    return scenario, list(scenario.ctx.profiles)


def _fig12_overhead(
    experiment_id: str,
    description: str,
    metric: str,
    seed: int,
    duration_s: float,
    step_s: float,
) -> ExperimentResult:
    """Mean CPU (%) or memory (MB) over each approach's involved nodes."""
    approaches = ("checkpointing",) + FIGURE_MECHANISMS
    grid = sample_grid(0.0, duration_s, step_s)
    series: Dict[str, List[float]] = {}
    for approach in approaches:
        scenario, involved = _overhead_scenario(approach, seed)
        profiles = [scenario.ctx.profile_for(scenario.overlay.nodes[0])]  # ensure >=1
        profiles = [
            scenario.ctx.profiles[name]
            for name in involved
            if name in scenario.ctx.profiles
        ] or profiles
        if metric == "cpu":
            series[approach] = [
                100.0 * mean([p.cpu_at(t) for p in profiles]) for t in grid
            ]
        else:
            series[approach] = [
                mean([p.memory_at(t) for p in profiles]) / MB for t in grid
            ]
    result = ExperimentResult(
        experiment_id, description, columns=["time_s", *approaches]
    )
    for i, t in enumerate(grid):
        result.add_row(time_s=t, **{name: series[name][i] for name in approaches})
    return result


def fig12a_cpu_overhead(seed: int = 0, duration_s: float = 50.0, step_s: float = 1.0) -> ExperimentResult:
    """Fig. 12a: mean per-node CPU (%) over the recovery window."""
    return _fig12_overhead(
        "fig12a",
        "Per-node CPU usage (%) during recovery",
        "cpu",
        seed,
        duration_s,
        step_s,
    )


def fig12b_memory_overhead(seed: int = 0, duration_s: float = 50.0, step_s: float = 1.0) -> ExperimentResult:
    """Fig. 12b: mean per-node memory (MB) over the recovery window."""
    return _fig12_overhead(
        "fig12b",
        "Per-node memory usage (MB) during recovery",
        "memory",
        seed,
        duration_s,
        step_s,
    )


def fig12c_network_overhead(
    node_counts: Sequence[int] = (20, 40, 80, 160, 320, 640, 1280),
    duration_s: float = 300.0,
    seed: int = 0,
) -> ExperimentResult:
    """Fig. 12c: overlay maintenance bytes per node per second vs size."""
    result = ExperimentResult(
        "fig12c",
        "Maintenance network overhead per node vs overlay size",
        columns=["num_nodes", "bytes_per_node_per_second"],
    )
    for count in node_counts:
        overlay = build_deployment(num_nodes=count, seed=seed).overlay
        report = measure_maintenance(overlay, MaintenanceConfig(), duration=duration_s)
        result.add_row(
            num_nodes=count,
            bytes_per_node_per_second=report["bytes_per_node_per_second"],
        )
    return result


# -------------------------------------------------------------------- Table 1


def table1_overview() -> ExperimentResult:
    """Table 1: state management / recovery feature matrix."""
    systems = [
        ("Muppet", "slates", "in-memory", "checkpointing", False, False, "static", "slow"),
        ("Trident", "hashtable", "in-memory", "checkpointing", False, False, "static", "slow"),
        ("Millwheel", "hashtable", "remote storage", "checkpointing", False, False, "static", "slow"),
        ("Dataflow", "hashtable", "remote storage", "checkpointing", False, False, "static", "slow"),
        ("Kafka", "hashtable", "in-memory+on-disk", "checkpointing", False, False, "static", "slow"),
        ("Samza", "hashtable", "in-memory+on-disk", "checkpointing", False, False, "static", "slow"),
        ("Flink", "hashtable", "in-memory+on-disk", "checkpointing", False, False, "static", "slow"),
        ("Flux", "hashtable", "in-memory+on-disk", "replication", False, True, "static", "high cost"),
        ("Borealis", "hashtable", "in-memory+on-disk", "replication", False, True, "static", "high cost"),
        ("Spark Streaming", "RDDs", "in-memory+on-disk", "lineage", False, True, "static", "slow for long lineages"),
        ("SR3", "hashtable", "in-memory", "DHT-based parallel", True, True, "dynamic", "fast, low cost"),
    ]
    result = ExperimentResult(
        "table1",
        "State management and recovery overview",
        columns=[
            "system",
            "data_structure",
            "state_management",
            "recovery_approach",
            "scales_to_large_state",
            "handles_multiple_failures",
            "policy",
            "traits",
        ],
    )
    for row in systems:
        result.add_row(
            system=row[0],
            data_structure=row[1],
            state_management=row[2],
            recovery_approach=row[3],
            scales_to_large_state=row[4],
            handles_multiple_failures=row[5],
            policy=row[6],
            traits=row[7],
        )
    return result


# ------------------------------------------------------------------ Ablations


def ablation_fp4s(
    sizes_mb: Sequence[int] = (32, 64, 128), seed: int = 0
) -> ExperimentResult:
    """Sec. 2.3 ablation: FP4S erasure coding vs SR3 star recovery.

    Checks the two quantified FP4S claims: 62.5% storage increment for a
    16+10 code, and roughly +10 s of coding latency at 128 MB.
    """
    result = ExperimentResult(
        "ablation_fp4s",
        "FP4S erasure recovery vs SR3 star recovery",
        columns=[
            "state_mb",
            "fp4s_recovery_s",
            "star_recovery_s",
            "fp4s_stored_bytes",
            "sr3_stored_bytes",
            "fp4s_storage_overhead",
        ],
    )
    config = Fp4sConfig()
    for size_mb in sizes_mb:
        size = size_mb * MB
        scenario = build_scenario(num_nodes=64, seed=seed)
        fp4s = Fp4sBaseline(scenario.ctx, config)
        owner = scenario.overlay.nodes[0]
        targets = scenario.overlay.sample_nodes(config.num_coded, exclude=[owner])
        save_handle = fp4s.save(owner, targets, size)
        scenario.sim.run_until_idle()
        handle = fp4s.recover(targets, scenario.overlay.nodes[-1], size)
        fp4s_time = run_handles(scenario.sim, [handle])[0].duration
        fp4s_stored = save_handle.result.bytes_transferred

        scenario2 = build_scenario(num_nodes=64, seed=seed)
        _, save_result = saved_state(scenario2, "app/state", size, num_replicas=2)
        star_time = timed_recovery(
            scenario2, StarRecovery(fanout_bits=2), "app/state"
        ).duration
        result.add_row(
            state_mb=size_mb,
            fp4s_recovery_s=fp4s_time,
            star_recovery_s=star_time,
            fp4s_stored_bytes=fp4s_stored,
            sr3_stored_bytes=save_result.bytes_transferred,
            fp4s_storage_overhead=fp4s_stored / size - 1.0,
        )
    return result


def ablation_replication_factor(
    factors: Sequence[int] = (2, 3, 4),
    state_mb: int = 64,
    seed: int = 0,
) -> ExperimentResult:
    """Design ablation: replication factor vs save cost and recovery time."""
    result = ExperimentResult(
        "ablation_replication",
        "Replication factor vs save and recovery cost (star recovery)",
        columns=["replicas", "save_s", "recovery_s", "stored_bytes"],
    )
    for factor in factors:
        scenario = build_scenario(num_nodes=128, seed=seed, placement="hash")
        _, save_result = saved_state(
            scenario, "app/state", state_mb * MB, num_replicas=factor
        )
        duration = timed_recovery(
            scenario, StarRecovery(fanout_bits=2), "app/state"
        ).duration
        result.add_row(
            replicas=factor,
            save_s=save_result.duration,
            recovery_s=duration,
            stored_bytes=save_result.bytes_transferred,
        )
    return result


def ablation_shard_count(
    shard_counts: Sequence[int] = (2, 4, 8, 16, 32),
    state_mb: int = 64,
    seed: int = 0,
) -> ExperimentResult:
    """Design ablation: shard granularity vs star recovery time."""
    result = ExperimentResult(
        "ablation_shards",
        "Shard count vs star recovery time",
        columns=["num_shards", "recovery_s"],
    )
    for count in shard_counts:
        scenario = build_scenario(num_nodes=128, seed=seed, placement="hash")
        saved_state(scenario, "app/state", state_mb * MB, num_shards=count)
        duration = timed_recovery(
            scenario, StarRecovery(fanout_bits=2), "app/state"
        ).duration
        result.add_row(num_shards=count, recovery_s=duration)
    return result


def ablation_selection_validation(
    seed: int = 0,
) -> ExperimentResult:
    """Does the Fig. 7 heuristic pick a (near-)winning mechanism?

    For every (state size, bandwidth) regime, run all three mechanisms,
    record the fastest, and compare with the heuristic's choice.
    """
    result = ExperimentResult(
        "ablation_selection",
        "Selection heuristic choice vs measured fastest mechanism",
        columns=["state_mb", "constrained", "chosen", "fastest", "chosen_s", "fastest_s"],
    )
    for size_mb in (8, 128):
        for constrained in (False, True):
            link = CONSTRAINED_MBIT if constrained else None
            times = {}
            for name in FIGURE_MECHANISMS:
                scenario = build_scenario(
                    num_nodes=64, seed=seed, uplink_mbit=link, downlink_mbit=link
                )
                saved_state(scenario, "app/state", size_mb * MB)
                times[name] = timed_recovery(
                    scenario, MECHANISMS[name](), "app/state"
                ).duration
            chosen = select_mechanism(
                SelectionInputs(
                    state_bytes=size_mb * MB,
                    latency_sensitive=True,
                    bandwidth_constrained=constrained,
                )
            )
            fastest = min(times, key=times.get)
            chosen_name = chosen.value
            result.add_row(
                state_mb=size_mb,
                constrained=constrained,
                chosen=chosen_name,
                fastest=fastest,
                chosen_s=times.get(chosen_name, float("nan")),
                fastest_s=times[fastest],
            )
    return result


def ablation_detection_latency(
    periods: Sequence[float] = (0.25, 0.5, 1.0, 2.0, 4.0),
    state_mb: int = 16,
    seed: int = 0,
) -> ExperimentResult:
    """End-to-end time-to-repair vs heartbeat period.

    Runs the real heartbeat failure detector: a node crashes, leaf-set
    watchers declare it after missed heartbeats, and the declaration
    triggers SR3 recovery. Shorter heartbeat periods detect sooner at the
    price of more maintenance traffic — the trade-off behind the cost
    model's fixed ``detection_delay``.
    """
    result = ExperimentResult(
        "ablation_detection",
        "Heartbeat period vs detection latency and total time-to-repair",
        columns=["period_s", "detection_s", "time_to_repair_s", "heartbeat_bytes"],
    )
    for period in periods:
        # The heartbeat protocol *is* the detection here; zero out the cost
        # model's fixed detection charge to avoid double counting.
        scenario = build_scenario(
            num_nodes=64, seed=seed, cost_model=CostModel(detection_delay=0.0)
        )
        registered, _ = saved_state(scenario, "app/state", state_mb * MB)
        owner = registered.owner
        handles: List = []

        def react(watcher, member, t, owner=owner, scenario=scenario, handles=handles):
            if member.name == owner.name and not handles:
                handles.extend(scenario.manager.on_failures([owner]))

        detector = FailureDetector(
            scenario.overlay,
            DetectorConfig(period=period, suspicion_threshold=3),
            on_failure=react,
        )
        control_before = scenario.network.total_control_bytes
        detector.start()
        crash_time = 5.0
        scenario.sim.schedule_at(
            crash_time, lambda: scenario.overlay.fail_node(owner, repair=False)
        )
        scenario.sim.run(until=crash_time + 120.0)
        detector.stop()
        if not handles or not handles[0].done:
            raise BenchmarkError(f"recovery never triggered at period {period}")
        recovery = handles[0].result
        detected_at = detector.detected_by_anyone(owner)
        result.add_row(
            period_s=period,
            detection_s=detected_at - crash_time,
            time_to_repair_s=recovery.finished_at - crash_time,
            heartbeat_bytes=scenario.network.total_control_bytes - control_before,
        )
    return result


def concurrent_apps_recovery(
    app_counts: Sequence[int] = (1, 4, 16, 64),
    state_mb: int = 16,
    num_nodes: int = 512,
    seed: int = 0,
) -> ExperimentResult:
    """Scalability sweep for Challenge 1: many apps fail at once.

    ``N`` applications' owner nodes crash simultaneously; the manager
    recovers all states in parallel on the shared overlay. A decentralized
    design should keep the *makespan* (time until the last state is back)
    close to a single recovery, because provider sets barely overlap.
    Replication factor three keeps every shard recoverable even when an
    eighth of the overlay fails at once.
    """
    result = ExperimentResult(
        "concurrent_apps",
        "Simultaneous recovery of N applications' states",
        columns=["apps", "makespan_s", "mean_recovery_s"],
    )
    for count in app_counts:
        scenario = build_scenario(num_nodes=num_nodes, seed=seed, placement="hash")
        owners = scenario.overlay.nodes[:count]
        for i, owner in enumerate(owners):
            shards = partition_synthetic(
                f"app-{i}/state", state_mb * MB, 4, StateVersion(0.0, 1)
            )
            scenario.manager.register(owner, shards, 3)
        scenario.manager.save_all()
        scenario.sim.run_until_idle()
        started = scenario.sim.now
        for owner in owners:
            scenario.overlay.fail_node(owner)
        handles = scenario.manager.on_failures(owners)
        results = run_handles(scenario.sim, handles)
        result.add_row(
            apps=count,
            makespan_s=max(r.finished_at for r in results) - started,
            mean_recovery_s=mean([r.duration for r in results]),
        )
    return result


def ablation_speculation(
    slowdowns_mbit: Sequence[float] = (1000.0, 50.0, 10.0, 1.0),
    state_mb: int = 32,
    seed: int = 0,
) -> ExperimentResult:
    """Future-work ablation (Sec. 6): straggler mitigation via speculation.

    One shard's provider is throttled to the given uplink; plain star
    recovery waits for it, while speculative star recovery launches a
    backup fetch from an alternate replica once the watchdog fires.
    """
    result = ExperimentResult(
        "ablation_speculation",
        "Straggler provider uplink vs recovery time, with/without speculation",
        columns=["straggler_mbit", "star_s", "speculative_s", "speculations"],
    )
    for slow in slowdowns_mbit:
        times = {}
        speculations = 0.0
        for name, mechanism in (
            ("star", MECHANISMS["star"]()),
            ("speculative", MECHANISMS["speculation"]()),
        ):
            scenario = build_scenario(
                num_nodes=64, seed=seed, uplink_mbit=1000, downlink_mbit=1000
            )
            registered, _ = saved_state(
                scenario, "app/state", state_mb * MB, num_replicas=2
            )
            straggler = registered.plan.providers_for(0)[0].node
            straggler.host.up_bw = mbit_per_s(slow)
            run = timed_recovery(scenario, mechanism, "app/state")
            times[name] = run.duration
            if name == "speculative":
                speculations = run.detail.get("speculations", 0.0)
        result.add_row(
            straggler_mbit=slow,
            star_s=times["star"],
            speculative_s=times["speculative"],
            speculations=speculations,
        )
    return result


def baseline_matrix(state_mb: int = 64, seed: int = 0) -> ExperimentResult:
    """All five recovery approaches on the same 64 MB failure."""
    size = state_mb * MB
    result = ExperimentResult(
        "baseline_matrix",
        "Recovery latency and cost across all approaches (64 MB state)",
        columns=["approach", "recovery_s", "hardware_or_storage_note"],
    )
    scenario = build_scenario(num_nodes=64, seed=seed)
    saved_state(scenario, "app/state", size)
    star = timed_recovery(scenario, StarRecovery(fanout_bits=2), "app/state").duration
    result.add_row(approach="sr3_star", recovery_s=star, hardware_or_storage_note="2x state stored")

    scenario = build_scenario(num_nodes=64, seed=seed)
    checkpointing = _checkpointing_recovery_time(scenario, size)
    result.add_row(
        approach="checkpointing",
        recovery_s=checkpointing,
        hardware_or_storage_note="remote storage + replay",
    )

    scenario = build_scenario(num_nodes=64, seed=seed)
    replication = ReplicationBaseline(scenario.ctx)
    replication.protect(scenario.overlay.nodes[0], scenario.overlay.nodes[1])
    handle = replication.recover(scenario.overlay.nodes[0], size)
    rep_time = run_handles(scenario.sim, [handle])[0].duration
    result.add_row(
        approach="replication",
        recovery_s=rep_time,
        hardware_or_storage_note="2x hardware (hot standby)",
    )

    scenario = build_scenario(num_nodes=64, seed=seed)
    lineage = LineageBaseline(scenario.ctx, LineageConfig())
    handle = lineage.recover(scenario.overlay.nodes[0], size)
    lin_time = run_handles(scenario.sim, [handle])[0].duration
    result.add_row(
        approach="lineage",
        recovery_s=lin_time,
        hardware_or_storage_note="serial re-execution of lineage",
    )

    scenario = build_scenario(num_nodes=64, seed=seed)
    fp4s = Fp4sBaseline(scenario.ctx)
    targets = scenario.overlay.sample_nodes(26, exclude=[scenario.overlay.nodes[0]])
    fp4s.save(scenario.overlay.nodes[0], targets, size)
    scenario.sim.run_until_idle()
    handle = fp4s.recover(targets, scenario.overlay.nodes[-1], size)
    fp4s_time = run_handles(scenario.sim, [handle])[0].duration
    result.add_row(
        approach="fp4s",
        recovery_s=fp4s_time,
        hardware_or_storage_note="62.5% storage increment",
    )
    return result


# ------------------------------------------------------------ save amplification


def _saveamp_cluster(seed: int, trace_name: str):
    """A word-count LocalCluster wired to a fresh SR3 deployment."""
    manager = build_deployment(num_nodes=32, seed=seed, trace_name=trace_name).manager
    backend = SR3StateBackend(manager, num_shards=4, num_replicas=2)
    cluster = LocalCluster(
        build_wordcount_topology(num_sentences=4_000, seed=seed), backend=backend
    )
    cluster.protect_stateful_tasks()
    return cluster, backend


def saveamp_wordcount(
    seed: int = 0,
    warmup_sentences: int = 1_000,
    rounds: int = 3,
    round_sentences: int = 25,
) -> ExperimentResult:
    """Save amplification: incremental vs full checkpoint rounds.

    Runs word count twice over the identical sentence stream: one cluster
    rewrites the full counting state every checkpoint, the other ships
    only the keys dirtied since the previous round as delta shards
    appended to each task's version chain. With the Zipf word skew a
    short round touches a small fraction of the vocabulary, so the delta
    rounds shed most of the save traffic; after the last round one task
    is killed in each cluster and recovered, comparing chain-aware
    recovery (base + delta replay) against flat-plan recovery.
    """
    result = ExperimentResult(
        "saveamp",
        "Steady-state save bytes and recovery latency: full vs incremental",
        columns=["round", "mode", "saved_bytes", "chain_len"],
    )
    mean_round_bytes: Dict[str, float] = {}
    recovery_s: Dict[str, float] = {}
    for label, incremental in (("full", False), ("incremental", True)):
        cluster, backend = _saveamp_cluster(seed, f"saveamp-{label}")
        cluster.run(max_emissions=warmup_sentences)
        cluster.checkpoint(incremental=incremental)  # base save round
        round_bytes = []
        for round_no in range(1, rounds + 1):
            cluster.run(max_emissions=round_sentences)
            handles = backend.save_all(incremental=incremental)
            backend.sim.run_until_idle()
            shipped = sum(h.result.bytes_transferred for h in handles)
            chain_len = max(h.result.chain_len for h in handles)
            round_bytes.append(shipped)
            result.add_row(
                round=round_no, mode=label, saved_bytes=shipped, chain_len=chain_len
            )
        mean_round_bytes[label] = mean(round_bytes)
        component_id, index = sorted(cluster.stateful_tasks())[0]
        cluster.kill_task(component_id, index)
        recovery_s[label] = backend.recover_task(f"{component_id}[{index}]").duration
    if mean_round_bytes["incremental"] <= 0:
        raise BenchmarkError("saveamp: incremental rounds shipped no bytes")
    ratio = mean_round_bytes["incremental"] / mean_round_bytes["full"]
    rec_ratio = recovery_s["incremental"] / recovery_s["full"]
    result.extra["baseline_metrics"] = {
        "saveamp/save_bytes_ratio": ratio,
        "saveamp/recovery_full_s": recovery_s["full"],
        "saveamp/recovery_chain_s": recovery_s["incremental"],
    }
    result.notes = (
        f"steady-state save amplification {1.0 / ratio:.1f}x "
        f"(delta rounds ship {ratio:.1%} of a full rewrite); "
        f"chain recovery at {rec_ratio:.3f}x the flat-plan latency"
    )
    return result


# ----------------------------------------------------------------- paper scale


def _scale_cell(
    num_nodes: int, mech_name: str, state_mb: int, seed: int
) -> Tuple[Dict[str, object], Dict[str, float]]:
    """One scale cell: build the overlay, fail every owner, recover.

    Top level and driven by plain scalars so the parallel sweep runner
    (:mod:`repro.bench.parallel`) can ship cells to spawn-fresh worker
    processes; the cell re-derives everything else deterministically from
    its ``(num_nodes, mechanism)`` key and the seed. Returns the result
    row and the cell's baseline-metric entries.
    """
    mechanism = MECHANISMS[mech_name]()
    apps = max(4, num_nodes // 16)
    wall_start = time.perf_counter()
    scenario = build_scenario(
        num_nodes=num_nodes,
        seed=seed,
        uplink_mbit=1000.0,
        downlink_mbit=1000.0,
        placement="hash",
        trace_name=f"scale-{num_nodes}-{mech_name}",
    )
    owners = scenario.overlay.nodes[:apps]
    # The failure wave takes out every owner (n/16 of the ring) at
    # one instant. With hash placement a shard keeps replication
    # independent copies at ring-random nodes, so the chance a
    # shard loses all of them grows with the shard count; at 20k+
    # nodes 3 copies are no longer enough for the wave to be
    # survivable, so the large cells replicate deeper (the
    # smaller, historically gated cells keep replication 3).
    replication = 3 if num_nodes < 20000 else 5
    for i, owner in enumerate(owners):
        shards = partition_synthetic(
            f"app-{i}/state", state_mb * MB, 4, StateVersion(0.0, 1)
        )
        scenario.manager.register(owner, shards, replication)
    scenario.manager.save_all()
    scenario.sim.run_until_idle()
    started = scenario.sim.now
    for owner in owners:
        scenario.overlay.fail_node(owner)
    handles = []
    for i, owner in enumerate(owners):
        registered = scenario.manager.states[f"app-{i}/state"]
        replacement = scenario.overlay.replacement_for(owner)
        handles.append(
            mechanism.start(
                scenario.ctx, registered.plan, replacement, f"app-{i}/state"
            )
        )
    results = run_handles(scenario.sim, handles)
    wall_s = time.perf_counter() - wall_start
    makespan = max(r.finished_at for r in results) - started
    events_per_s = scenario.sim.events_processed / wall_s if wall_s > 0 else 0.0
    row: Dict[str, object] = dict(
        nodes=num_nodes,
        mechanism=mech_name,
        apps=apps,
        makespan_s=makespan,
        wall_s=round(wall_s, 2),
        events_per_s=round(events_per_s),
    )
    extras = {
        f"scale/{num_nodes}/{mech_name}": makespan,
        f"scale/{num_nodes}/{mech_name}/wall_s": round(wall_s, 2),
        f"scale/{num_nodes}/{mech_name}/events_per_s": float(round(events_per_s)),
    }
    return row, extras


def scale_overlay(
    node_counts: Sequence[int] = (512, 1024, 2048, 5000, 20000, 50000),
    state_mb: int = 16,
    seed: int = 0,
    jobs: int = 1,
) -> ExperimentResult:
    """Paper-scale recovery: 512 to 50,000 emulated nodes (Sec. 5.1).

    Each cell builds a fresh overlay of ``n`` nodes on 1 Gb/s links,
    registers ``max(4, n/16)`` applications with 16 MB of state each
    (4 shards, replication 3 — 5 at 20k+ nodes), saves everything, fails
    every owner at one instant, and recovers all states with one
    mechanism. Alongside the simulated makespan — which is deterministic
    and feeds the ``scale/{n}/{mechanism}`` perf-baseline keys — the cell
    records how long the host took to simulate it (``wall_s``) and the
    event-loop throughput (``events_per_s``). The wall-clock numbers are
    what the incremental allocator and kernel fast paths exist for; they
    are kept out of the regression gate because shared runners make them
    noisy.

    With ``jobs > 1`` the independent cells fan out across worker
    processes (:mod:`repro.bench.parallel`); rows, baseline keys, and any
    collected observability artifacts merge back in sweep order, so the
    output is byte-identical to the in-process sweep.
    """
    result = ExperimentResult(
        "scale",
        "Recovery at paper-scale overlay sizes (wall-clock + simulated)",
        columns=["nodes", "mechanism", "apps", "makespan_s", "wall_s", "events_per_s"],
    )
    cells = [
        (num_nodes, mech_name, state_mb, seed)
        for num_nodes in node_counts
        for mech_name in FIGURE_MECHANISMS
    ]
    if jobs and jobs > 1:
        outputs = run_scale_cells(cells, jobs)
    else:
        outputs = [_scale_cell(*cell) for cell in cells]
    extras: Dict[str, float] = {}
    for row, cell_extras in outputs:
        result.add_row(**row)
        extras.update(cell_extras)
    result.extra["baseline_metrics"] = extras
    result.notes = (
        "simulated makespans are deterministic per seed and gate the "
        "scale/* baseline keys; wall_s / events_per_s are informational"
    )
    return result


def remediate_controller(
    scenario_names: Sequence[str] = ("crash-wave", "rack-outage", "stragglers"),
    mechanism: str = "star",
    seed: int = 0,
) -> ExperimentResult:
    """MTTR of the auto-remediation control plane across chaos scenarios.

    Runs each scenario with a :class:`~repro.control.Controller` owning
    the response (``run_scenario(controller=True)``) and reports how many
    remediations it executed and verified plus the slowest
    detection-to-verified time — the closed loop's MTTR, on the simulated
    clock. ``remediate/<scenario>/mttr_s`` and ``.../actions`` are
    deterministic per seed and feed the perf-regression gate; ``wall_s``
    is informational.
    """
    result = ExperimentResult(
        "remediate",
        "Closed-loop auto-remediation across the chaos catalog",
        columns=[
            "scenario",
            "mechanism",
            "status",
            "remediations",
            "mttr_s",
            "wall_s",
        ],
    )
    extras: Dict[str, float] = {}
    for name in scenario_names:
        if name not in SCENARIOS:
            raise BenchmarkError(
                f"unknown chaos scenario {name!r}; known: {sorted(SCENARIOS)}"
            )
        scenario = SCENARIOS[name].with_seed(seed)
        wall_start = time.perf_counter()
        outcome = run_scenario(scenario, mechanism, controller=True)
        wall_s = time.perf_counter() - wall_start
        result.add_row(
            scenario=name,
            mechanism=mechanism,
            status=outcome.status,
            remediations=outcome.remediations,
            mttr_s=round(outcome.remediation_mttr_s, 6),
            wall_s=round(wall_s, 2),
        )
        extras[f"remediate/{name}/mttr_s"] = round(outcome.remediation_mttr_s, 6)
        extras[f"remediate/{name}/actions"] = float(outcome.remediations)
        extras[f"remediate/{name}/wall_s"] = round(wall_s, 2)
    result.extra["baseline_metrics"] = extras
    result.notes = (
        "mttr_s / actions are deterministic per seed and gate the "
        "remediate/* baseline keys; wall_s is informational"
    )
    return result


# ------------------------------------------------------------- live traffic


def _flash_crowd_driver(
    cell, base_rate: float, peak_rate: float, duration_s: float, service_rate: float,
    **driver_kwargs,
) -> LoadDriver:
    """A driver playing the arrivals every live cell shares: the crowd
    ramps up at t=8 over 2 s, holds its peak for 10 s, decays over 5 s."""
    rate = FlashCrowd(
        base=base_rate, peak=peak_rate, at=8.0, ramp=2.0, hold=10.0, decay=5.0
    )
    return LoadDriver(
        cell, rate, duration=duration_s, service_rate=service_rate, **driver_kwargs
    )


def live_recovery(
    seed: int = 0,
    duration_s: float = 30.0,
    base_rate: float = 300.0,
    peak_rate: float = 1500.0,
    bulk_state_mb: float = 32.0,
    service_rate: float = 3_000.0,
    num_nodes: int = 16,
    link_mbit: float = 200.0,
) -> ExperimentResult:
    """Recovery under sustained ingest: the user-felt view (``bench live``).

    For each mechanism, plays a flash-crowd rate curve (ramping from
    ``base_rate`` to ``peak_rate`` events/s) against the word-count
    topology, checkpoints at t=5, kills the first count task's owner at
    t=10 — right as the crowd peaks — and lets SR3 recover ``bulk_state_mb``
    of co-located state plus the counting state while the application's
    ingest and shuffle flows keep their max-min share of every link. Each
    cell runs twice: loaded (app flows registered with the allocator) and
    quiescent (same arrivals, no flows); the ratio of recovery makespans
    is the interference cost, gated per mechanism.

    ``live/{mech}/predict_error`` compares the observed loaded makespan
    against :func:`~repro.recovery.selection.predict_recovery_seconds`
    fed the same ``background_load`` fraction; it quantifies how much of
    the contention the closed form misses, and stays informational.
    """
    bulk_bytes = bulk_state_mb * MB
    kill_at = 10.0
    result = ExperimentResult(
        "live",
        "User-felt recovery under live traffic: latency phases, replay lag, drain",
        columns=[
            "mechanism",
            "load",
            "recovery_s",
            "drain_s",
            "p99_during_s",
            "replay_lag_peak",
        ],
    )
    extras: Dict[str, float] = {}
    for label in sorted(FIGURE_MECHANISMS):
        reports: Dict[str, object] = {}
        wall_s = 0.0
        for load in ("loaded", "quiet"):
            cell = build_live_cell(
                num_nodes=num_nodes,
                seed=seed,
                link_mbit=link_mbit,
                trace_name=f"live-{label}-{load}",
            )
            driver = _flash_crowd_driver(
                cell,
                base_rate,
                peak_rate,
                duration_s,
                service_rate,
                checkpoint_at=(5.0,),
                kill_at=kill_at,
                mechanism=MECHANISMS[label](),
                bulk_state_mb=bulk_state_mb,
                app_load=(load == "loaded"),
            )
            wall_start = time.perf_counter()
            report = driver.run()
            wall_s += time.perf_counter() - wall_start
            reports[load] = report
            if report.recovery_s is None or report.drain_s is None:
                raise BenchmarkError(
                    f"live/{label}/{load}: run never recovered or never drained"
                )
            result.add_row(
                mechanism=label,
                load=load,
                recovery_s=round(report.recovery_s, 6),
                drain_s=round(report.drain_s, 6),
                p99_during_s=round(report.phase("during").p99, 6),
                replay_lag_peak=report.replay_lag_peak,
            )
        loaded = reports["loaded"]
        quiet = reports["quiet"]
        ratio = loaded.recovery_s / quiet.recovery_s
        if ratio <= 1.0:
            raise BenchmarkError(
                f"live/{label}: app-flow interference did not slow recovery "
                f"(loaded {loaded.recovery_s:.3f}s vs quiescent {quiet.recovery_s:.3f}s)"
            )
        # The closed form sees the replacement downlink's contention: its
        # ingest share plus one inbound shuffle flow, at the plateau rate
        # the crowd holds while the state moves.
        ingest, shuffle = app_flow_demands(peak_rate, len(cell.backend.protected_tasks()))
        background = min(0.95, (ingest + shuffle) / mbit_per_s(link_mbit))
        predicted = predict_recovery_seconds(
            label,
            SelectionInputs(state_bytes=bulk_bytes, background_load=background),
            bandwidth=mbit_per_s(link_mbit),
        )
        extras[f"live/{label}/p99_before_s"] = round(loaded.phase("before").p99, 6)
        extras[f"live/{label}/p99_during_s"] = round(loaded.phase("during").p99, 6)
        extras[f"live/{label}/p99_after_s"] = round(loaded.phase("after").p99, 6)
        extras[f"live/{label}/replay_lag_peak"] = float(loaded.replay_lag_peak)
        extras[f"live/{label}/recovery_s"] = round(loaded.recovery_s, 6)
        extras[f"live/{label}/drain_s"] = round(loaded.drain_s, 6)
        extras[f"live/{label}/interference_ratio"] = round(ratio, 6)
        extras[f"live/{label}/wall_s"] = round(wall_s, 2)
        extras[f"live/{label}/predict_error"] = round(
            (loaded.recovery_s - predicted) / predicted, 6
        )
    result.extra["baseline_metrics"] = extras
    result.notes = (
        "loaded vs quiet rows share identical arrivals; the gated "
        "interference_ratio is loaded/quiescent recovery makespan; "
        "wall_s and predict_error stay informational"
    )
    return result


# ------------------------------------------------------------ standby tier


def standby_compare(
    seed: int = 0,
    duration_s: float = 30.0,
    base_rate: float = 300.0,
    peak_rate: float = 1_500.0,
    bulk_state_mb: float = 32.0,
    service_rate: float = 3_000.0,
    num_nodes: int = 16,
    link_mbit: float = 200.0,
) -> ExperimentResult:
    """The hot-standby tier vs the star/line/tree spectrum (``bench standby``).

    Phase one runs the four tiers under the live harness at equal state
    size: same flash crowd, two checkpoint barriers (the second re-warms
    the standby incrementally), kill at t=10. The standby run provisions a
    warm replica after every barrier, so its takeover is an ownership flip
    plus tail replay — ``standby/takeover_vs_tree`` gates that the
    takeover stays under 0.2x the tree makespan, and the steady-state
    bills the other tiers never pay are reported as
    ``standby/steady_overhead_bytes`` (shuffle-bandwidth spent syncing)
    and ``standby/steady_memory_bytes`` (the warm image's footprint).

    Phase two calibrates the closed-form cost model online: five batch
    recoveries at varied sizes feed an
    :class:`~repro.recovery.online.OnlineSelector`, and the gated
    ``standby/calibrated_error`` must land strictly below
    ``standby/static_error`` — the fitted line absorbs the systematic
    contention the closed form ignores. Both serializers round-trip
    through dicts as part of the run (a mismatch fails the experiment).
    """
    result = ExperimentResult(
        "standby",
        "Hot-standby takeover vs star/line/tree and online cost calibration",
        columns=["tier", "recovery_s", "drain_s", "p99_during_s"],
    )
    extras: Dict[str, float] = {}
    wall_start = time.perf_counter()

    recovery_times: Dict[str, float] = {}
    for label in sorted(FIGURE_MECHANISMS + ("standby",)):
        is_standby = label == "standby"
        cell = build_live_cell(
            num_nodes=num_nodes,
            seed=seed,
            link_mbit=link_mbit,
            trace_name=f"standby-{label}",
        )
        driver = _flash_crowd_driver(
            cell,
            base_rate,
            peak_rate,
            duration_s,
            service_rate,
            checkpoint_at=(5.0, 8.0),
            kill_at=10.0,
            mechanism=MECHANISMS[label](),
            bulk_state_mb=bulk_state_mb,
            standby=is_standby,
        )
        report = driver.run()
        if report.recovery_s is None or report.drain_s is None:
            raise BenchmarkError(
                f"standby/{label}: run never recovered or never drained"
            )
        recovery_times[label] = report.recovery_s
        result.add_row(
            tier=label,
            recovery_s=round(report.recovery_s, 6),
            drain_s=round(report.drain_s, 6),
            p99_during_s=round(report.phase("during").p99, 6),
        )
        extras[f"standby/{label}/recovery_s"] = round(report.recovery_s, 6)
        if is_standby:
            extras["standby/steady_overhead_bytes"] = round(
                cell.sim.metrics.counter("standby.sync_bytes").total, 3
            )
            extras["standby/steady_memory_bytes"] = round(
                driver.standby_warm_bytes, 3
            )
            if driver.standby_syncs < 2:
                raise BenchmarkError(
                    "standby: expected an incremental re-warm per barrier, "
                    f"got {driver.standby_syncs} sync rounds"
                )

    takeover_ratio = recovery_times["standby"] / recovery_times["tree"]
    if takeover_ratio >= 0.2:
        raise BenchmarkError(
            f"standby takeover is {takeover_ratio:.3f}x the tree makespan at "
            f"{bulk_state_mb:.0f} MB; the warm tier must stay under 0.2x"
        )
    extras["standby/takeover_vs_tree"] = round(takeover_ratio, 6)

    # ---- phase two: online calibration over five observed recoveries.
    selector = OnlineSelector()
    for size_mb in DEFAULT_SIZES_MB:
        size = size_mb * MB
        scenario = build_scenario(
            num_nodes=64, seed=seed, trace_name=f"standby-cal-{size_mb}"
        )
        saved_state(scenario, "app/state", size)
        observed = timed_recovery(
            scenario, MECHANISMS["tree"](), "app/state"
        ).duration
        explanation = explain_selection(SelectionInputs(state_bytes=size))
        explanation.observed_seconds["tree"] = observed
        restored = SelectionExplanation.from_dict(explanation.to_dict())
        if restored != explanation:
            raise BenchmarkError(
                "SelectionExplanation did not survive a dict round-trip"
            )
        selector.observe_explanation(restored)
    if selector.samples("tree") < 5:
        raise BenchmarkError(
            f"calibration needs >= 5 observed recoveries, got "
            f"{selector.samples('tree')}"
        )
    static_error = selector.static_error("tree")
    calibrated_error = selector.calibrated_error("tree")
    if static_error is None or calibrated_error is None:
        raise BenchmarkError("calibration produced no error estimates")
    if not calibrated_error < static_error:
        raise BenchmarkError(
            f"calibrated error {calibrated_error:.6f} is not strictly below "
            f"static error {static_error:.6f} after "
            f"{selector.samples('tree')} observations"
        )
    if OnlineSelector.from_dict(selector.to_dict()) != selector:
        raise BenchmarkError("OnlineSelector did not survive a dict round-trip")
    extras["standby/static_error"] = round(static_error, 6)
    extras["standby/calibrated_error"] = round(calibrated_error, 6)
    extras["standby/wall_s"] = round(time.perf_counter() - wall_start, 2)

    result.extra["baseline_metrics"] = extras
    result.notes = (
        "takeover_vs_tree gates the warm tier under 0.2x tree at equal "
        "state size; calibrated_error must land strictly below "
        "static_error after five observed recoveries; wall_s stays "
        "informational"
    )
    return result


# ----------------------------------------------------------- SLO telemetry


def run_slo_cell(
    mode: str,
    seed: int = 0,
    duration_s: float = 30.0,
    base_rate: float = 300.0,
    peak_rate: float = 1_500.0,
    service_rate: float = 3_000.0,
    num_nodes: int = 16,
    link_mbit: float = 200.0,
    kill_at: float = 10.0,
):
    """One live cell where the *control plane* must notice the kill.

    ``mode`` picks the sensing path. ``"burn"`` wires a telemetry
    pipeline, an SLO burn-rate engine, and an anomaly detector into the
    controller, with a policy whose only rule maps ``slo-burning`` to
    ``recover-degraded`` — recovery can start *only* from the alert.
    ``"detector"`` wires a heartbeat failure detector with a policy whose
    only rule maps ``owner-lost`` to ``recover`` — recovery can start
    only from a declaration. Both cells play the same flash-crowd
    arrivals, checkpoint at t=5, and kill the first count task's owner at
    ``kill_at``; the driver injects the fault and nothing else.

    Returns a dict with the cell, the :class:`~repro.live.metrics.
    LiveReport`, the controller, and whichever telemetry objects the mode
    wired (``pipeline`` / ``engine`` / ``anomalies`` / ``detector``) —
    the ``bench dashboard`` subcommand renders straight from it.
    """
    if mode not in ("burn", "detector"):
        raise BenchmarkError(f"unknown slo cell mode {mode!r}")
    cell = build_live_cell(
        num_nodes=num_nodes,
        seed=seed,
        link_mbit=link_mbit,
        trace_name=f"slo-{mode}",
    )
    # Both modes carry a pipeline (the dashboard renders from it); only
    # burn mode wires it into the controller's sensing path.
    pipeline = TelemetryPipeline(cell.sim)
    engine = anomalies = detector = None
    if mode == "burn":
        engine = SLOEngine(pipeline)
        engine.add(
            SLO(
                name="backlog-drains",
                series="live.backlog",
                objective="le",
                threshold=200.0,
                budget=0.1,
                windows=(
                    BurnWindow(
                        long_s=3.0, short_s=1.0, burn_rate=4.0, severity="critical"
                    ),
                ),
                description="queued tuples stay below 200",
            )
        )
        anomalies = AnomalyDetector(
            pipeline,
            series=("live.throughput",),
            window=32,
            z_threshold=6.0,
            min_points=12,
            cooldown_s=5.0,
        )
        policy = PolicyTable(
            rules=[
                PolicyRule(
                    condition="slo-burning",
                    action="recover-degraded",
                    params=(("mechanism", "star"),),
                )
            ]
        )
    else:
        detector = FailureDetector(
            cell.overlay, DetectorConfig(period=1.0, suspicion_threshold=3)
        )
        policy = PolicyTable(
            rules=[
                PolicyRule(
                    condition="owner-lost",
                    action="recover",
                    params=(("mechanism", "star"),),
                )
            ]
        )
        detector.start()
    controller = Controller(
        ControlPlane(cell, detector=detector),
        policy=policy,
        verify_invariants=False,
        slo_engine=engine,
        anomalies=anomalies,
    )
    driver = _flash_crowd_driver(
        cell,
        base_rate,
        peak_rate,
        duration_s,
        service_rate,
        checkpoint_at=(5.0,),
        kill_at=kill_at,
        telemetry=pipeline,
        controller=controller,
    )
    report = driver.run()
    controller.sweep()
    return {
        "mode": mode,
        "cell": cell,
        "report": report,
        "controller": controller,
        "pipeline": pipeline,
        "engine": engine,
        "anomalies": anomalies,
        "detector": detector,
    }


def slo_observability(seed: int = 0) -> ExperimentResult:
    """Burn-rate alerting vs heartbeat detection as the recovery trigger.

    Runs :func:`run_slo_cell` twice — once sensing through the SLO
    burn-rate engine, once through the heartbeat detector — and compares
    time-to-signal and fault-to-recovered MTTR. Alert precision/recall is
    scored against the one injected fault: an alert inside the
    degradation window (kill to drain) is a true positive. All keys but
    ``slo/wall_s`` are deterministic per seed and gate the baseline.
    """
    result = ExperimentResult(
        "slo",
        "Telemetry-triggered recovery: SLO burn-rate vs heartbeat detection",
        columns=["trigger", "time_to_signal_s", "mttr_s", "alerts", "anomalies"],
    )
    extras: Dict[str, float] = {}
    wall_start = time.perf_counter()
    burn = run_slo_cell("burn", seed=seed)
    det = run_slo_cell("detector", seed=seed)
    wall_s = time.perf_counter() - wall_start

    burn_report = burn["report"]
    engine = burn["engine"]
    if not engine.alerts:
        raise BenchmarkError("slo/burn: no burn-rate alert ever fired")
    if burn_report.recovered_at is None:
        raise BenchmarkError("slo/burn: alert-triggered recovery never landed")
    killed_at = burn_report.killed_at
    time_to_alert = engine.alerts[0].at - killed_at
    mttr_burn = burn_report.recovered_at - killed_at
    # Alerts are scored against the single injected fault: anything fired
    # inside the degradation window (kill to drain) is a true positive.
    window_end = burn_report.drained_at
    if window_end is None:
        window_end = burn_report.recovered_at
    true_positives = sum(
        1 for alert in engine.alerts if killed_at <= alert.at <= window_end
    )
    precision = true_positives / len(engine.alerts)
    recall = 1.0 if true_positives else 0.0
    anomaly_count = len(burn["anomalies"].anomalies)

    det_report = det["report"]
    detector = det["detector"]
    if not detector.detections:
        raise BenchmarkError("slo/detector: the heartbeat protocol never declared")
    if det_report.recovered_at is None:
        raise BenchmarkError("slo/detector: declaration-triggered recovery never landed")
    declared_at = min(t for _, _, t in detector.detections)
    time_to_detect = declared_at - det_report.killed_at
    mttr_detector = det_report.recovered_at - det_report.killed_at

    result.add_row(
        trigger="burn-rate",
        time_to_signal_s=round(time_to_alert, 6),
        mttr_s=round(mttr_burn, 6),
        alerts=len(engine.alerts),
        anomalies=anomaly_count,
    )
    result.add_row(
        trigger="heartbeat",
        time_to_signal_s=round(time_to_detect, 6),
        mttr_s=round(mttr_detector, 6),
        alerts=0,
        anomalies=0,
    )
    extras["slo/time_to_alert_s"] = round(time_to_alert, 6)
    extras["slo/time_to_detect_s"] = round(time_to_detect, 6)
    extras["slo/mttr_burn_s"] = round(mttr_burn, 6)
    extras["slo/mttr_detector_s"] = round(mttr_detector, 6)
    extras["slo/alert_precision"] = round(precision, 6)
    extras["slo/alert_recall"] = round(recall, 6)
    extras["slo/anomalies"] = float(anomaly_count)
    extras["slo/wall_s"] = round(wall_s, 2)
    result.extra["baseline_metrics"] = extras
    result.notes = (
        "both cells inject the same fault; the controller must notice it "
        "through the named trigger alone. All slo/* keys but wall_s are "
        "deterministic per seed and gate the baseline"
    )
    return result
