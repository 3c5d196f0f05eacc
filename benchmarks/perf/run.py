"""Host-time benchmark of the SR3 reproduction: one command, five workloads.

    python3 benchmarks/perf/run.py [--workload W ...] [--seed N] [--seconds S]
                                   [--trace 0|1] [--runs R] [--out FILE]
    python3 benchmarks/perf/run.py --compare A.json B.json

With one ``--workload`` and one run, the cells run in this process and the
last line of standard output is the result object ``BENCHMARK.json``
describes. Otherwise every run of every workload gets a process of its own,
one after another (run ``i`` uses seed ``N + i``), and ``--out`` collects
the set into one file for ``--compare``.

``BENCHMARK.json`` lists the three workloads the driver runs (its time limit
leaves room for three 30-second workloads, and shorter runs are not steady
on this box); ``--workload`` takes any of the five.

Every number is host time unless its name says ``sim_``. See README.md in
this directory for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: workload names, metric bounds, default run length."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


SETUP_STARTS = 5  # fresh interpreters behind setup_s, at most; one before each cell
UNTRACED_SHARE = 0.4  # of a --trace 1 run: the base trace.overhead_ratio divides by
MIN_CELLS = 3  # timed cells behind the end-to-end metrics, at least
MIN_TRACED_CELLS = 2  # per half of a --trace 1 run, to keep it as short as the others
TILING_TOLERANCE = 0.05
# The level the reference loop's fastest tenth reaches when the box this
# benchmark was defined on is quiet. It only sets the scale of the times.
REFERENCE_QUIET_S = 0.00078


def reference_loop() -> int:
    """A fixed millisecond of interpreter work, timed at every lap of a cell.

    How much slower than ``REFERENCE_QUIET_S`` it runs is how much slower the
    host is running everything (see README.md, "Steadiness"). It allocates
    strings only, so it never moves the garbage collector's thresholds for
    the cell it sits in.
    """
    words = [str(i * 7919 % 10007) for i in range(2500)]
    lengths: Dict[str, int] = {}
    for word in words:
        lengths[word] = lengths.get(word, 0) + len(word)
    words.sort()
    return len(lengths)


# ----------------------------------------------------------------------- cells


class Cell:
    """One executed cell: its phase times, its checked outcome, its layers.

    ``laps`` holds, per lap, when the cell reached it and when the cell went
    on; in between the harness timed its reference loop (untraced cells only).
    """

    def __init__(self, laps: List[Tuple[float, float]], outcome: Any,
                 layers: Dict[str, float]) -> None:
        self.phases = [b[0] - a[1] for a, b in zip(laps, laps[1:])]
        self.reference = [went_on - reached for reached, went_on in laps]
        self.wall = sum(self.phases)
        self.outcome = outcome
        self.layers = layers


def run_cell(workload: Any, trace: Any = None, index: int = 0) -> Cell:
    from layertrace import CellView
    from workloads import Outcome

    gc.collect()
    laps: List[Tuple[float, float]] = []
    error = None

    def lap() -> None:
        reached = perf_counter()
        if trace is None:
            reference_loop()
        laps.append((reached, perf_counter()))

    if trace is not None:
        trace.begin_cell(index)
    lap()
    try:
        raw = workload.cell(lap)
    except Exception:  # the op failed; the run goes on and reports it
        error = traceback.format_exc()
    lap()
    if trace is not None:
        trace.end_cell()
    if error is not None:
        return Cell(laps, Outcome(ops=1, failed=1, work=0, errors=[error]), {})
    outcome = workload.verify(raw)
    layers = CellView(trace, outcome.sim).metrics() if trace is not None else {}
    return Cell(laps, outcome, layers)


def run_cells(workload: Any, budget_s: float, min_cells: int, trace: Any = None,
              before_cell: Any = None) -> List[Cell]:
    """Cells one after another until they add up to the budget (at least ``min_cells``)."""
    cells: List[Cell] = []
    while True:
        if before_cell is not None:
            before_cell()
        cells.append(run_cell(workload, trace, len(cells)))
        walls = [c.wall for c in cells]
        if len(cells) >= min_cells and sum(walls) + statistics.median(walls) / 2 > budget_s:
            return cells


def undisturbed_wall(cells: List[Cell]) -> float:
    """Host seconds of one cell with the neighbours' interference taken out.

    Each phase of the cell is timed in every cell; the cell's time is the
    sum of the fastest time seen for each phase. Interference on this box
    only ever adds time, so the fastest slice is the nearest to what the
    program itself is responsible for. A slow spell can outlast the run;
    `host_slowdown` takes out what is left.
    """
    whole = [c for c in cells if len(c.phases) == len(cells[0].phases)]
    return sum(min(c.phases[k] for c in whole) for k in range(len(cells[0].phases)))


def host_slowdown(cells: List[Cell]) -> float:
    """How much slower than its quiet self the host ran during these cells.

    The level the fastest tenth of the run's reference timings reached, over
    ``REFERENCE_QUIET_S``. Like the fastest slice, the fastest tenth is the
    host at its best during the run, so the two are slow together.
    """
    timings = sorted(t for c in cells for t in c.reference)
    return timings[len(timings) // 10] / REFERENCE_QUIET_S


def time_setup(name: str, seed: int) -> float:
    """Seconds for a fresh interpreter to import the workload and make its inputs."""
    started = perf_counter()
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        check=True, stdout=subprocess.DEVNULL,
    )
    return perf_counter() - started


def check_cells(seed: int, outcomes: List[Any]) -> List[str]:
    """Everything that must hold across the cells of one run."""
    errors = [e for o in outcomes for e in o.errors]
    if any(o.sim != outcomes[0].sim for o in outcomes):
        errors.append("simulated values differ between cells of the same seed")
    if seed == 0:
        expected = json.loads((HERE / "expected_seed0.json").read_text())
        for key, value in outcomes[0].gated.items():
            if expected[key] != value:
                errors.append(f"{key} = {value!r}, BENCH_sr3.json gates {expected[key]!r}")
    return errors


def measure(name: str, seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    """One run of one workload in this process; returns its run record."""
    from layertrace import LAYER_METRICS, LayerTrace, self_time_metrics
    from workloads import WORKLOADS

    def metric(value: float, unit: str) -> Dict[str, Any]:
        return {"value": value, "unit": unit}

    # Set-up is timed between the cells, not in one burst, so that a few
    # slow seconds on the box cannot colour every start.
    setups: List[float] = []

    def probe_setup() -> None:
        if not traced and len(setups) < SETUP_STARTS:
            setups.append(time_setup(name, seed))

    workload = WORKLOADS[name](seed)
    probe_setup()
    warmup = run_cell(workload)
    if traced:
        cells = run_cells(workload, seconds * UNTRACED_SHARE, MIN_TRACED_CELLS)
    else:
        cells = run_cells(workload, seconds, MIN_CELLS, before_cell=probe_setup)
    slowdown = host_slowdown(cells)
    wall = undisturbed_wall(cells) / slowdown
    metrics: Dict[str, Any] = {}
    errors: List[str] = []
    traced_cells: List[Cell] = []
    if traced:
        trace = LayerTrace()
        trace.install()
        try:
            traced_cells = run_cells(
                workload, seconds * (1.0 - UNTRACED_SHARE), MIN_TRACED_CELLS, trace
            )
        finally:
            trace.uninstall()
        spans_file = ROOT / "out" / "perf" / f"{name}-spans.json"
        spans_file.parent.mkdir(parents=True, exist_ok=True)
        spans_file.write_text(json.dumps(trace.span_records()))
        for cell in traced_cells:
            tiled = sum(cell.layers.get(m, 0.0) for m in self_time_metrics())
            if cell.layers and abs(tiled - cell.wall) > TILING_TOLERANCE * cell.wall:
                errors.append(f"layer self times sum to {tiled:.3f}s of a {cell.wall:.3f}s cell")
        # The table is the least disturbed traced cell, whole, so it tiles.
        fastest = min(traced_cells, key=lambda c: c.wall)
        for layer_metric, (unit, _source) in LAYER_METRICS.items():
            metrics[layer_metric] = metric(fastest.layers.get(layer_metric, 0.0), unit)
        metrics["trace.cell_wall_s"] = metric(fastest.wall, "s")
        metrics["trace.overhead_ratio"] = metric(
            fastest.wall / min(c.wall for c in cells), "ratio"
        )
    else:
        metrics["setup_s"] = metric(min(setups) / slowdown, "s")
        metrics["cell_wall_s"] = metric(wall, "s")
        metrics["work_per_s"] = metric(cells[0].outcome.work / wall, "1/s")
        metrics["peak_rss_mb"] = metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        )
    timed = [c.outcome for c in cells + traced_cells]
    errors += check_cells(seed, [warmup.outcome] + timed)
    failed = sum(o.failed for o in timed)
    return {
        "correct": failed == 0 and not errors,
        "attempted": sum(o.ops for o in timed),
        "failed": failed,
        "errors": errors,
        "seed": seed,
        "work_unit": workload.work_unit,
        "host_slowdown": slowdown,
        "setup_starts_s": setups,
        "cell_walls_s": [c.wall for c in cells],
        "traced_cell_walls_s": [c.wall for c in traced_cells],
        "metrics": metrics,
    }


# ------------------------------------------------------------------- reporting


def manifest(args: argparse.Namespace) -> Dict[str, Any]:
    from repro.sim import flowvec

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "have_numpy": flowvec.HAVE_NUMPY,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "runs": args.runs,
        "trace": args.trace,
    }


def summarize(runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Per metric over the runs of one workload: median, quartiles, samples."""
    summary = {}
    for name, first in runs[0]["metrics"].items():
        samples = [run["metrics"][name]["value"] for run in runs]
        entry: Dict[str, Any] = {
            "value": statistics.median(samples),
            "unit": first["unit"],
            "n": len(samples),
            "samples": samples,
        }
        if len(samples) >= 2:
            entry["q1"], _median, entry["q3"] = statistics.quantiles(samples, n=4)
        summary[name] = entry
    return summary


def spread(entry: Dict[str, Any]) -> float:
    """Interquartile range over the runs as a share of their median."""
    if "q1" not in entry or not entry["value"]:
        return 0.0
    return (entry["q3"] - entry["q1"]) / abs(entry["value"])


def print_run(name: str, run: Dict[str, Any]) -> None:
    walls = run["cell_walls_s"]
    print(f"== {name} seed {run['seed']}: {run['attempted']} ops, {run['failed']} failed; "
          f"work unit = {run['work_unit']}")
    print(f"  {len(walls)} timed cells, whole-cell wall: fastest {min(walls):.4f} s, "
          f"median {statistics.median(walls):.4f} s, slowest {max(walls):.4f} s; "
          f"host slowdown {run['host_slowdown']:.3f}")
    traced = run["traced_cell_walls_s"]
    if traced:
        print(f"  {len(traced)} traced cells, fastest {min(traced):.4f} s (the table below)")
    traced_wall = run["metrics"].get("trace.cell_wall_s", {}).get("value")
    for metric, m in run["metrics"].items():
        share = ""
        if traced_wall and m["unit"] == "s" and ".sim_" not in metric:
            share = f"{m['value'] / traced_wall:7.1%}"
        print(f"  {metric:34s} {m['value']:14.6g} {m['unit']:6s}{share}")
    for error in run["errors"]:
        print(f"  INCORRECT: {error}")


def print_set(name: str, runs: List[Dict[str, Any]], summary: Dict[str, Any]) -> None:
    print(f"== {name}: {len(runs)} runs, {sum(r['attempted'] for r in runs)} ops, "
          f"{sum(r['failed'] for r in runs)} failed")
    print(f"  {'metric':34s} {'median':>14s} {'unit':6s} {'n':>3s} {'q1':>12s} {'q3':>12s} {'spread':>7s}")
    for metric, m in summary.items():
        quartiles = f"{m['q1']:12.6g} {m['q3']:12.6g}" if "q1" in m else f"{'':25s}"
        print(f"  {metric:34s} {m['value']:14.6g} {m['unit']:6s} {m['n']:3d} "
              f"{quartiles} {spread(m):7.3f}")
    for run in runs:
        for error in run["errors"]:
            print(f"  INCORRECT (seed {run['seed']}): {error}")


def last_line(run: Dict[str, Any]) -> str:
    """The object the contract asks for, on one line."""
    return json.dumps({key: run[key] for key in ("correct", "attempted", "failed", "metrics")})


# --------------------------------------------------------------------- compare


def verdict(metric: Dict[str, Any], a: Dict[str, Any], b: Dict[str, Any]) -> str:
    """``b`` against base ``a``: same, worse, better or unresolved."""
    bound = metric["bound"]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    change = sign * (b["value"] - a["value"]) / a["value"]  # > 0 is worse
    if change > bound:
        return "worse"
    b_wins_every_time = all(
        sign * (y - x) < 0 for x in a["samples"] for y in b["samples"]
    )
    if max(spread(a), spread(b)) > bound and not b_wins_every_time:
        return "unresolved"
    return "better" if change < -bound else "same"


def compare(spec: Dict[str, Any], path_a: str, path_b: str) -> int:
    a_set = json.loads(Path(path_a).read_text())["workloads"]
    b_set = json.loads(Path(path_b).read_text())["workloads"]
    bad = False
    print(f"{'workload':12s} {'metric':12s} {'A (base)':>12s} {'B':>12s} {'B/A':>7s} "
          f"{'bound':>6s} {'spread':>7s} verdict")
    for name in (w["name"] for w in spec["workloads"]):
        if name not in a_set or name not in b_set:
            continue
        for metric in spec["end_to_end"]:
            a = a_set[name]["metrics"].get(metric["name"])
            b = b_set[name]["metrics"].get(metric["name"])
            if a is None or b is None:
                continue
            result = verdict(metric, a, b)
            bad = bad or result == "worse"
            print(f"{name:12s} {metric['name']:12s} {a['value']:12.5g} {b['value']:12.5g} "
                  f"{b['value'] / a['value']:7.3f} {metric['bound']:6.2f} "
                  f"{max(spread(a), spread(b)):7.3f} {result}")
        a_rate, b_rate = (
            sum(r["failed"] for r in s[name]["runs"]) / sum(r["attempted"] for r in s[name]["runs"])
            for s in (a_set, b_set)
        )
        if b_rate > a_rate:
            bad = True
            print(f"{name:12s} ops_failed/ops rose from {a_rate:.4f} to {b_rate:.4f}")
    return 1 if bad else 0


# ------------------------------------------------------------------------ main


def run_in_children(args: argparse.Namespace, names: List[str]) -> Dict[str, List[Dict[str, Any]]]:
    """One process per run, one after another (the box has 2 cores)."""
    part = ROOT / "out" / "perf" / "run-part.json"
    part.parent.mkdir(parents=True, exist_ok=True)
    runs: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    for name in names:
        for i in range(args.runs):
            part.unlink(missing_ok=True)
            subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed + i), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--out", str(part)],
                stdout=subprocess.DEVNULL,
            )
            if not part.exists():
                sys.exit(f"{name}: the workload process wrote no result")
            runs[name] += json.loads(part.read_text())["workloads"][name]["runs"]
        print_set(name, runs[name], summarize(runs[name]))
    part.unlink(missing_ok=True)
    return runs


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="default: every workload BENCHMARK.json lists")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="timed cells of one run go on for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload; run i uses seed N + i")
    parser.add_argument("--out", help="write the results and the run manifest here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        return compare(spec, *args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    names = args.workload or [w["name"] for w in spec["workloads"]]
    for name in names:
        if name not in WORKLOADS:
            parser.error(f"--workload {name}: choose from {', '.join(WORKLOADS)}")
    if args.setup_probe:
        WORKLOADS[names[0]](args.seed)
        return 0

    in_process = len(names) == 1 and args.runs == 1
    if in_process:
        run = measure(names[0], args.seed, args.seconds, bool(args.trace))
        print_run(names[0], run)
        runs = {names[0]: [run]}
    else:
        runs = run_in_children(args, names)
    if args.out:
        Path(args.out).write_text(json.dumps({
            "manifest": manifest(args),
            "workloads": {
                name: {"runs": runs[name], "metrics": summarize(runs[name])} for name in names
            },
        }, indent=1))
    if in_process:
        print(last_line(run))
    return 0 if all(r["correct"] for rs in runs.values() for r in rs) else 1


if __name__ == "__main__":
    sys.exit(main())
