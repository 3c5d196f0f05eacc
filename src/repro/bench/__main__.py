"""Command-line runner for the experiments.

Usage::

    python -m repro.bench list
    python -m repro.bench run fig8a
    python -m repro.bench run fig10 --mechanism tree --seed 3
    python -m repro.bench run all
    python -m repro.bench campaign smoke [--controller]
    python -m repro.bench control --scenario crash-wave --scenario stragglers
    python -m repro.bench dashboard --out dashboard.html

``run`` prints the regenerated series as a text table (the same rows
recorded in EXPERIMENTS.md); ``campaign`` runs a chaos resilience campaign
(see :mod:`repro.chaos`) and writes the deterministic resilience report
JSON; ``control`` runs catalog scenarios with the auto-remediation
controller in charge and reports remediation counts and MTTR per cell;
``dashboard`` runs one telemetry-sensed live cell and writes a
self-contained HTML dashboard (sparklines, SLO status, alert timeline).

The observability flags (``--trace``, ``--metrics-out``, ``--profile``,
``--flamegraph``, ``--speedscope``) work uniformly across ``run``,
``campaign``, and ``control``. ``--jobs N`` on ``run`` and ``campaign``
fans independent sweep cells (scale cells, campaign scenario × mechanism
cells) across worker processes; reports and artifacts are merged in cell
order, byte-identical to ``--jobs 1`` (see :mod:`repro.bench.parallel`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Dict

from repro.bench import experiments as exp
from repro.bench.baseline import (
    DEFAULT_TOLERANCE,
    baseline_metrics,
    compare_to_baseline,
    load_baseline,
    write_baseline,
)
from repro.bench.parallel import run_campaign_parallel
from repro.bench.reporting import format_result, write_trace_artifact
from repro.chaos import CAMPAIGNS, SCENARIOS, run_campaign
from repro.errors import ReproError, SimulationError
from repro.obs.dashboard import write_dashboard
from repro.obs.flamegraph import write_flamegraph, write_speedscope
from repro.obs.profile import build_report
from repro.obs.registry import (
    clear_collected_registries,
    collected_registries,
    enable_metrics_collection,
)
from repro.obs.tracer import clear_collected, enable_tracing
from repro.recovery.deployment import MECHANISMS


def _fig10(args) -> object:
    return exp.fig10_simultaneous_failures(args.mechanism, seed=args.seed)


def _fig11(args) -> object:
    return exp.fig11_load_balance(args.apps, num_nodes=args.nodes, seed=args.seed)


#: Scale sizes with committed ``scale/{n}/*`` baseline keys; any other
#: ``--scale-nodes`` value runs fine but has nothing to gate against.
SCALE_BASELINE_NODES = (512, 1024, 2048, 5000, 20000, 50000)


def _scale(args) -> object:
    counts = tuple(args.scale_nodes) if args.scale_nodes else SCALE_BASELINE_NODES
    for num_nodes in counts:
        if num_nodes not in SCALE_BASELINE_NODES:
            print(
                f"note: scale/{num_nodes}/* results are informational, "
                "no baseline key",
                file=sys.stderr,
            )
    return exp.scale_overlay(
        node_counts=counts, seed=args.seed, jobs=getattr(args, "jobs", 1)
    )


def _live(args) -> object:
    return exp.live_recovery(
        seed=args.seed,
        duration_s=args.live_duration,
        base_rate=args.live_base_rate,
        peak_rate=args.live_peak_rate,
        bulk_state_mb=args.live_state_mb,
    )


EXPERIMENTS: Dict[str, Callable] = {
    "table1": lambda args: exp.table1_overview(),
    "fig8a": lambda args: exp.fig8a_recovery_no_constraint(seed=args.seed),
    "fig8b": lambda args: exp.fig8b_recovery_bw_constraint(seed=args.seed),
    "fig8c": lambda args: exp.fig8c_save_time(seed=args.seed),
    "fig9a": lambda args: exp.fig9a_star_fanout(seed=args.seed),
    "fig9b": lambda args: exp.fig9b_line_path_length(seed=args.seed),
    "fig9c": lambda args: exp.fig9c_tree_branch_depth(seed=args.seed),
    "fig9d": lambda args: exp.fig9d_tree_fanout(seed=args.seed),
    "fig10": _fig10,
    "fig11": _fig11,
    "fig12a": lambda args: exp.fig12a_cpu_overhead(seed=args.seed),
    "fig12b": lambda args: exp.fig12b_memory_overhead(seed=args.seed),
    "fig12c": lambda args: exp.fig12c_network_overhead(seed=args.seed),
    "concurrent": lambda args: exp.concurrent_apps_recovery(seed=args.seed),
    "detection": lambda args: exp.ablation_detection_latency(seed=args.seed),
    "speculation": lambda args: exp.ablation_speculation(seed=args.seed),
    "fp4s": lambda args: exp.ablation_fp4s(seed=args.seed),
    "replication": lambda args: exp.ablation_replication_factor(seed=args.seed),
    "shards": lambda args: exp.ablation_shard_count(seed=args.seed),
    "selection": lambda args: exp.ablation_selection_validation(seed=args.seed),
    "baselines": lambda args: exp.baseline_matrix(seed=args.seed),
    "saveamp": lambda args: exp.saveamp_wordcount(seed=args.seed),
    "scale": _scale,
    "remediate": lambda args: exp.remediate_controller(
        mechanism=args.mechanism, seed=args.seed
    ),
    "live": _live,
    "standby": lambda args: exp.standby_compare(seed=args.seed),
    "slo": lambda args: exp.slo_observability(seed=args.seed),
}

#: The first token of every invocation; anything else is a usage error.
SUBCOMMANDS = ("run", "campaign", "control", "dashboard", "list")


def build_parser() -> argparse.ArgumentParser:
    """The parser of ``run``: one experiment id plus its knobs."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench run",
        description="Regenerate a table/figure from the SR3 evaluation.",
    )
    parser.add_argument("experiment", help="experiment id (see 'list'), or 'all'")
    parser.add_argument("--seed", type=int, default=0, help="simulation seed")
    parser.add_argument(
        "--mechanism",
        choices=tuple(MECHANISMS),
        default="star",
        help="mechanism for fig10",
    )
    parser.add_argument("--apps", type=int, default=100, help="applications for fig11")
    parser.add_argument("--nodes", type=int, default=1000, help="overlay size for fig11")
    parser.add_argument(
        "--scale-nodes",
        type=int,
        action="append",
        metavar="N",
        help="overlay size(s) for the scale experiment (repeatable; "
        "default: 512 1024 2048 5000 20000 50000)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="fan the scale experiment's cells across N worker processes; "
        "output stays byte-identical to --jobs 1 (default: 1)",
    )
    parser.add_argument(
        "--live-duration",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="live experiment: simulated run length (default: 30)",
    )
    parser.add_argument(
        "--live-base-rate",
        type=float,
        default=300.0,
        metavar="EV_PER_S",
        help="live experiment: baseline ingest rate (default: 300)",
    )
    parser.add_argument(
        "--live-peak-rate",
        type=float,
        default=1500.0,
        metavar="EV_PER_S",
        help="live experiment: flash-crowd plateau rate (default: 1500)",
    )
    parser.add_argument(
        "--live-state-mb",
        type=float,
        default=32.0,
        metavar="MB",
        help="live experiment: co-located bulk state on the kill target "
        "(default: 32)",
    )
    _add_observability_flags(parser)
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        help="perf-regression gate: compare each recovery's makespan "
        "against the baseline at PATH (written on first run); implies "
        "tracing; exits 3 on regression",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="merge this run's metrics into the --baseline file instead of "
        "comparing (keys from other experiments' runs are kept)",
    )
    parser.add_argument(
        "--baseline-tolerance",
        type=float,
        default=None,
        metavar="FRAC",
        help="relative slowdown tolerated by --baseline (default: 0.20)",
    )
    return parser


def print_listing(baseline_path: str) -> None:
    """Enumerate everything the CLI can run or gate on.

    Sections: experiment ids, the chaos scenario catalog and campaigns,
    and — when the baseline artifact exists — its perf-gate keys.
    """
    print("experiments:")
    for name in EXPERIMENTS:
        print(f"  {name}")
    print("chaos scenarios:")
    for name in sorted(SCENARIOS):
        print(f"  {name}")
    print("chaos campaigns:")
    for name in sorted(CAMPAIGNS):
        print(f"  {name} ({len(CAMPAIGNS[name])} scenarios)")
    if os.path.exists(baseline_path):
        print(f"baseline keys ({baseline_path}):")
        for key in sorted(load_baseline(baseline_path)):
            print(f"  {key}")


def run_campaign_cli(args) -> int:
    """Run a chaos campaign and write the resilience report JSON."""
    try:
        if args.jobs > 1:
            report = run_campaign_parallel(
                args.name, args.jobs, controller=args.controller
            )
        else:
            report = run_campaign(args.name, controller=args.controller)
    except SimulationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(report.format_matrix())
    out_path = args.out or f"resilience-{args.name}.json"
    with open(out_path, "w") as fh:
        fh.write(report.to_json())
    print(f"resilience report written to {out_path}", file=sys.stderr)
    return 1 if report.counts()["failed"] else 0


def run_control_cli(
    scenario_names=None, mechanism: str = "star", out: str = None
) -> int:
    """Run catalog scenarios with the remediation controller in charge.

    Prints one line per cell (status, remediation count, MTTR) and writes
    the resilience report JSON. Exit codes: 0 all cells clean, 1 a cell
    failed its invariants or remediated nothing, 2 unknown scenario.
    """
    names = list(scenario_names) if scenario_names else sorted(SCENARIOS)
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        print(
            f"unknown scenario(s) {unknown}; known: {sorted(SCENARIOS)}",
            file=sys.stderr,
        )
        return 2
    report = run_campaign(
        "control",
        scenarios=[SCENARIOS[n] for n in names],
        mechanisms=[mechanism],
        controller=True,
    )
    width = max(len(n) for n in names)
    idle = 0
    for outcome in sorted(report.outcomes, key=lambda o: o.scenario):
        print(
            f"{outcome.scenario.ljust(width)}  {outcome.status:9s}  "
            f"remediations={outcome.remediations}  "
            f"mttr_s={outcome.remediation_mttr_s:.3f}"
        )
        if outcome.remediations == 0:
            idle += 1
    out_path = out or "resilience-control.json"
    with open(out_path, "w") as fh:
        fh.write(report.to_json())
    print(f"resilience report written to {out_path}", file=sys.stderr)
    if report.counts()["failed"]:
        return 1
    if idle:
        print(
            f"{idle} scenario(s) finished without a verified remediation",
            file=sys.stderr,
        )
        return 1
    return 0


def _add_observability_flags(parser) -> None:
    """The telemetry flags shared by ``run``, ``campaign`` and ``control``:
    one observability surface, not per-command snowflakes."""
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="capture span traces of every simulation and write them to "
        "PATH as Chrome trace_event JSON (open in chrome://tracing)",
    )
    parser.add_argument(
        "--trace-format",
        choices=("chrome", "plain"),
        default="chrome",
        help="artifact format for --trace (default: chrome)",
    )
    parser.add_argument(
        "--profile",
        metavar="PATH",
        help="profile every recovery (critical path + blame attribution) "
        "and write the report JSON to PATH; implies tracing",
    )
    parser.add_argument(
        "--flamegraph",
        metavar="PATH",
        help="write collapsed-stack flamegraph lines (flamegraph.pl / "
        "speedscope import format) to PATH; implies tracing",
    )
    parser.add_argument(
        "--speedscope",
        metavar="PATH",
        help="write a speedscope JSON document to PATH "
        "(open at https://www.speedscope.app); implies tracing",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="dump every simulation's metrics registry (counters, series, "
        "histograms) to PATH as deterministic JSON",
    )
    # Only ``run`` has a baseline gate; the others read these as "off".
    parser.set_defaults(baseline=None, update_baseline=False, baseline_tolerance=None)


def _with_observability(args, runner, extra_metrics=None) -> int:
    """Run ``runner`` with the shared observability flags honoured.

    Collection is enabled up front and the trace/profile/metrics artifacts
    are written after, whatever ``runner`` returned or raised, so every
    subcommand produces the same artifacts from the same flags.
    """
    tracing = bool(
        args.trace or args.profile or args.flamegraph or args.speedscope or args.baseline
    )
    if tracing:
        clear_collected()
        enable_tracing(True)
    if args.metrics_out:
        clear_collected_registries()
        enable_metrics_collection(True)
    exit_code = 0
    try:
        exit_code = runner()
    finally:
        if args.trace:
            path = write_trace_artifact(
                args.trace, chrome=args.trace_format == "chrome"
            )
            print(f"trace written to {path}", file=sys.stderr)
        if tracing or args.metrics_out:
            artifact_code = write_profile_artifacts(args, extra_metrics)
            enable_tracing(False)
            enable_metrics_collection(False)
            exit_code = exit_code or artifact_code
    return exit_code


def run_dashboard_cli(args) -> int:
    """Run one telemetry-sensed live cell and write the HTML dashboard."""
    try:
        outcome = exp.run_slo_cell(args.mode, seed=args.seed, duration_s=args.duration)
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    engine = outcome["engine"]
    anomalies = outcome["anomalies"]
    write_dashboard(
        args.out,
        outcome["pipeline"],
        slo_engine=engine,
        anomalies=anomalies,
        controller=outcome["controller"],
        title=f"SR3 telemetry — {args.mode} cell (seed {args.seed})",
    )
    timeline = []
    if engine is not None:
        timeline += [
            (a.at, f"slo-burning {a.slo} ({a.severity}, burn {a.burn_long:.2f})")
            for a in engine.alerts
        ]
    if anomalies is not None:
        timeline += [
            (a.at, f"metric-anomaly {a.kind} on {a.series} (score {a.score:.1f})")
            for a in anomalies.anomalies
        ]
    detector = outcome["detector"]
    if detector is not None and detector.detections:
        declared = min(t for _, _, t in detector.detections)
        timeline.append((declared, "node-failed declared by heartbeat detector"))
    for at, line in sorted(timeline):
        print(f"  t={at:7.2f}s  {line}")
    report = outcome["report"]
    if report.recovered_at is not None and report.killed_at is not None:
        print(
            f"  recovered {report.recovered_at - report.killed_at:.2f}s "
            f"after the kill"
        )
    print(f"dashboard written to {args.out}", file=sys.stderr)
    return 0


def write_profile_artifacts(args, extra_metrics=None) -> int:
    """Write profile/flamegraph/baseline artifacts after a traced run.

    ``extra_metrics`` are experiment-provided baseline entries (e.g. the
    saveamp byte ratios) merged into the measured makespans before the
    gate runs. Returns the process exit code: 0 unless the baseline gate
    tripped (3).
    """
    exit_code = 0
    report = None
    if args.profile or args.baseline:
        report = build_report()
    if args.profile:
        with open(args.profile, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        print(f"profile written to {args.profile}", file=sys.stderr)
    if args.flamegraph:
        write_flamegraph(args.flamegraph)
        print(f"flamegraph written to {args.flamegraph}", file=sys.stderr)
    if args.speedscope:
        write_speedscope(args.speedscope)
        print(f"speedscope document written to {args.speedscope}", file=sys.stderr)
    if args.baseline:
        measured = baseline_metrics(report.profiles)
        if extra_metrics:
            measured.update(extra_metrics)
        if args.update_baseline or not os.path.exists(args.baseline):
            # Merge semantics: keys from other experiments' runs survive,
            # this run's keys overwrite their previous values.
            merged = (
                load_baseline(args.baseline)
                if os.path.exists(args.baseline)
                else {}
            )
            merged.update(measured)
            write_baseline(args.baseline, merged)
            print(f"baseline written to {args.baseline}", file=sys.stderr)
        else:
            tolerance = (
                args.baseline_tolerance
                if args.baseline_tolerance is not None
                else DEFAULT_TOLERANCE
            )
            comparison = compare_to_baseline(
                load_baseline(args.baseline), measured, tolerance
            )
            print(comparison.summary(), file=sys.stderr)
            if not comparison.ok:
                exit_code = 3
    if args.metrics_out:
        payload = {
            "format": "sr3-metrics-1",
            "registries": [r.dump() for r in collected_registries()],
        }
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")))
            fh.write("\n")
        print(f"metrics written to {args.metrics_out}", file=sys.stderr)
    return exit_code


def run_experiment_cli(args) -> int:
    """Run one experiment (or ``all``) and print its table."""
    extra_metrics: Dict[str, float] = {}

    def run_one(fn) -> None:
        result = fn(args)
        extras = getattr(result, "extra", {}) or {}
        extra_metrics.update(extras.get("baseline_metrics", {}))
        print(format_result(result))

    def runner() -> int:
        if args.experiment == "all":
            for fn in EXPERIMENTS.values():
                run_one(fn)
                print()
            return 0
        fn = EXPERIMENTS.get(args.experiment)
        if fn is None:
            print(
                f"unknown experiment {args.experiment!r}; try 'list'",
                file=sys.stderr,
            )
            return 2
        run_one(fn)
        return 0

    return _with_observability(args, runner, extra_metrics)


USAGE = (
    "usage: python -m repro.bench {" + "|".join(SUBCOMMANDS) + "} ... "
    "(each takes --help)"
)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv) or ["list"]
    command, rest = argv[0], argv[1:]
    if command in ("-h", "--help"):
        print(USAGE)
        return 0
    if command not in SUBCOMMANDS:
        print(USAGE, file=sys.stderr)
        return 2
    if command == "run":
        if not rest or (rest[0].startswith("-") and rest[0] not in ("-h", "--help")):
            print(
                "usage: python -m repro.bench run <experiment> [flags]",
                file=sys.stderr,
            )
            return 2
        return run_experiment_cli(build_parser().parse_args(rest))
    if command == "list":
        parser = argparse.ArgumentParser(prog="python -m repro.bench list")
        parser.add_argument(
            "--baseline",
            metavar="PATH",
            default="BENCH_sr3.json",
            help="baseline artifact whose perf-gate keys to list "
            "(default: BENCH_sr3.json)",
        )
        print_listing(parser.parse_args(rest).baseline)
        return 0
    if command == "campaign":
        parser = argparse.ArgumentParser(prog="python -m repro.bench campaign")
        parser.add_argument("name", help="campaign name ('smoke' or 'full')")
        parser.add_argument(
            "--controller",
            action="store_true",
            help="let the repro.control auto-remediation controller own "
            "the response in every SR3 cell",
        )
        parser.add_argument(
            "--out",
            metavar="PATH",
            help="resilience report path (default: resilience-<NAME>.json)",
        )
        parser.add_argument(
            "--jobs",
            type=int,
            default=1,
            metavar="N",
            help="fan campaign cells across N worker processes; the report "
            "is byte-identical to --jobs 1 (default: 1)",
        )
        _add_observability_flags(parser)
        args = parser.parse_args(rest)
        return _with_observability(args, lambda: run_campaign_cli(args))
    if command == "dashboard":
        parser = argparse.ArgumentParser(prog="python -m repro.bench dashboard")
        parser.add_argument(
            "--out",
            metavar="PATH",
            default="dashboard.html",
            help="where to write the self-contained HTML (default: "
            "dashboard.html)",
        )
        parser.add_argument(
            "--mode",
            choices=("burn", "detector"),
            default="burn",
            help="sensing path for the cell: SLO burn-rate alerting or the "
            "heartbeat failure detector (default: burn)",
        )
        parser.add_argument("--seed", type=int, default=0, help="simulation seed")
        parser.add_argument(
            "--duration",
            type=float,
            default=30.0,
            metavar="SECONDS",
            help="simulated run length (default: 30)",
        )
        return run_dashboard_cli(parser.parse_args(rest))
    # command == "control"
    parser = argparse.ArgumentParser(prog="python -m repro.bench control")
    parser.add_argument(
        "--scenario",
        action="append",
        metavar="NAME",
        help="chaos scenario to run (repeatable; default: the full catalog)",
    )
    parser.add_argument(
        "--mechanism",
        choices=tuple(MECHANISMS),
        default="star",
        help="recovery mechanism the controller's policy pins (default: star)",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        help="resilience report path (default: resilience-control.json)",
    )
    _add_observability_flags(parser)
    args = parser.parse_args(rest)
    return _with_observability(
        args, lambda: run_control_cli(args.scenario, args.mechanism, args.out)
    )


if __name__ == "__main__":
    sys.exit(main())
