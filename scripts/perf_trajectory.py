"""Append one parent-vs-change comparison to BENCH_perf.json.

    python scripts/perf_trajectory.py --base A.json [A2.json ...] \\
        --change B.json [B2.json ...] --label "PR 16: ..." [--out BENCH_perf.json]

Every input is a result file written by ``benchmarks/perf/run.py --out``.
Several files on one side are merged run by run, in the order given, so ten
alternating pairs measured as twenty single runs go in as they were taken:
the i-th base run is paired with the i-th change run for the win count.
Medians, quartiles and verdicts come from ``run.py``'s own ``summarize`` and
``verdict``, so the trajectory can never disagree with ``--compare``.
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
        workloads[name] = {
            "seeds": sorted({run["seed"] for run in a_runs + b_runs}),
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


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True, metavar="A.json")
    parser.add_argument("--change", nargs="+", required=True, metavar="B.json")
    parser.add_argument("--label", required=True, help="what the change is, e.g. the PR title")
    parser.add_argument("--out", default=str(ROOT / "BENCH_perf.json"))
    args = parser.parse_args(argv)

    out = Path(args.out)
    trajectory = (
        json.loads(out.read_text()) if out.exists() else {"format": FORMAT, "entries": []}
    )
    if trajectory.get("format") != FORMAT:
        sys.exit(f"{out}: not a {FORMAT} file")
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
