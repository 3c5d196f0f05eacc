"""Append one parent-vs-change comparison to BENCH_perf.json.

    python scripts/perf_trajectory.py --base A.json [A2.json ...] \\
        --change B.json [B2.json ...] --label "PR 16: ..." [--out BENCH_perf.json]
    python scripts/perf_trajectory.py --report [--out BENCH_perf.json]

Every input is a result file written by ``benchmarks/perf/run.py --out``.
Several files on one side are merged run by run, in the order given, so ten
alternating pairs measured as twenty single runs go in as they were taken:
the i-th base run is paired with the i-th change run for the win count.
Medians, quartiles and verdicts come from ``run.py``'s own ``summarize`` and
``verdict``, so the trajectory can never disagree with ``--compare``.

``--report`` appends nothing: it prints the file as one table per workload,
a row per entry with the change side's median of each end-to-end metric and
what the entry stored from its own pairs: the ratio to its base side, the
paired wins and the verdict. Rows are not divided by one another: two
entries were measured in different sessions, on a host whose speed drifts.
Under each entry's row goes the manifest the numbers were taken under: the
two commits, the seeds, the length of a run, the interpreter and how much
slower than its quiet self the host ran (entries appended before that was
kept have none).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks" / "perf"))

import run as perf  # noqa: E402  (benchmarks/perf/run.py)

FORMAT = "sr3-perf-trajectory-1"


def load_side(paths: List[str]) -> Dict[str, Any]:
    """Merge result files into ``{"manifest": ..., "runs": {workload: [run, ...]}}``."""
    manifest: Dict[str, Any] = {}
    runs: Dict[str, List[Dict[str, Any]]] = {}
    for path in paths:
        result = json.loads(Path(path).read_text())
        manifest = manifest or result["manifest"]
        for name, workload in result["workloads"].items():
            runs.setdefault(name, []).extend(workload["runs"])
    return {"manifest": manifest, "runs": runs}


def entry(base: Dict[str, Any], change: Dict[str, Any], label: str) -> Dict[str, Any]:
    spec = perf.load_spec()
    workloads: Dict[str, Any] = {}
    for name in (w["name"] for w in spec["workloads"]):
        if name not in base["runs"] or name not in change["runs"]:
            continue
        a_runs, b_runs = base["runs"][name], change["runs"][name]
        a_set, b_set = perf.summarize(a_runs), perf.summarize(b_runs)
        metrics = {}
        for metric in spec["end_to_end"]:
            a, b = a_set[metric["name"]], b_set[metric["name"]]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            pairs = list(zip(a["samples"], b["samples"]))
            metrics[metric["name"]] = {
                "unit": metric["unit"],
                "base": {k: a.get(k) for k in ("value", "q1", "q3", "n")},
                "change": {k: b.get(k) for k in ("value", "q1", "q3", "n")},
                "ratio": b["value"] / a["value"],
                "bound": metric["bound"],
                "wins": sum(sign * (y - x) < 0 for x, y in pairs),
                "pairs": len(pairs),
                "verdict": perf.verdict(metric, a, b),
            }
        slowdowns = [run["host_slowdown"] for run in a_runs + b_runs if "host_slowdown" in run]
        workloads[name] = {
            "seeds": sorted({run["seed"] for run in a_runs + b_runs}),
            **({"host_slowdown": [min(slowdowns), max(slowdowns)]} if slowdowns else {}),
            "failed": [sum(r["failed"] for r in side) for side in (a_runs, b_runs)],
            "attempted": [sum(r["attempted"] for r in side) for side in (a_runs, b_runs)],
            "metrics": metrics,
        }
    manifest = change["manifest"]
    return {
        "label": label,
        "base_commit": base["manifest"]["commit"],
        "commit": manifest["commit"],
        **{k: manifest[k] for k in ("python", "numpy", "nproc", "seconds", "trace")},
        "workloads": workloads,
    }


def manifest_line(entry: Dict[str, Any], workload: str) -> str:
    """What one entry's numbers for ``workload`` were taken under."""
    cell = entry["workloads"][workload]
    seeds = cell["seeds"]
    if len(seeds) > 1 and seeds == list(range(seeds[0], seeds[-1] + 1)):
        seeds = f"{seeds[0]}-{seeds[-1]}"
    else:
        seeds = ",".join(map(str, seeds))
    parts = [
        f"{entry['base_commit'][:7]}..{entry['commit'][:7]}",
        f"{next(iter(cell['metrics'].values()))['pairs']} pairs, seeds {seeds}",
        f"{entry['seconds']:g} s runs",
        f"Python {entry['python']}, numpy {entry['numpy']}, {entry['nproc']} CPUs",
    ]
    if "host_slowdown" in cell:
        parts.append("host slowdown {:.2f}-{:.2f}".format(*cell["host_slowdown"]))
    return "    " + "; ".join(parts)


def report(entries: List[Dict[str, Any]]) -> str:
    """The trajectory as text: per workload, a row per entry, a column per
    metric (median, ratio, wins/pairs, verdict), the manifest under each row."""
    lines: List[str] = []
    for name in dict.fromkeys(w for e in entries for w in e["workloads"]):
        held = [e for e in entries if name in e["workloads"]]
        lines += ["", f"== {name}", f"{'entry':30s} {'commit':8s}"
                  + "".join(f"{m:>33s}" for m in held[0]["workloads"][name]["metrics"])]
        for e in held:
            cells = "".join(
                f"{v['change']['value']:11.4g} x{v['ratio']:<6.3f}"
                f"{v['wins']:>3d}/{v['pairs']:<3d}{v['verdict']:>7s}"
                for v in e["workloads"][name]["metrics"].values()
            )
            lines += [f"{e['label'][:30]:30s} {e['commit'][:7]:8s}{cells}".rstrip(),
                      manifest_line(e, name)]
    return "\n".join(lines[1:])


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", metavar="A.json")
    parser.add_argument("--change", nargs="+", metavar="B.json")
    parser.add_argument("--label", help="what the change is, e.g. the PR title")
    parser.add_argument("--report", action="store_true",
                        help="print the trajectory file, one table per workload, and exit")
    parser.add_argument("--out", default=str(ROOT / "BENCH_perf.json"))
    args = parser.parse_args(argv)
    if not args.report and not (args.base and args.change and args.label):
        parser.error("--base, --change and --label are required unless --report is given")

    out = Path(args.out)
    trajectory = (
        json.loads(out.read_text()) if out.exists() else {"format": FORMAT, "entries": []}
    )
    if trajectory.get("format") != FORMAT:
        sys.exit(f"{out}: not a {FORMAT} file")
    if args.report:
        print(report(trajectory["entries"]))
        return 0
    added = entry(load_side(args.base), load_side(args.change), args.label)
    if not added["workloads"]:
        sys.exit("the two sides share no workload that BENCHMARK.json lists")
    trajectory["entries"].append(added)
    out.write_text(json.dumps(trajectory, indent=1) + "\n")
    for name, workload in added["workloads"].items():
        for metric, m in workload["metrics"].items():
            print(f"{name:12s} {metric:12s} {m['base']['value']:10.4g} -> "
                  f"{m['change']['value']:10.4g}  x{m['ratio']:.3f}  "
                  f"wins {m['wins']}/{m['pairs']}  {m['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
