"""SHA-256 of what each ``bench run`` experiment regenerates, host time left out.

    python scripts/experiment_digest.py [--only ID ...]   print id, digest; then the total
    python scripts/experiment_digest.py --check           compare with tests/data/
    python scripts/experiment_digest.py --write           replace tests/data/

One digest per experiment of ``repro.bench.__main__.EXPERIMENTS`` over its
id, description, columns, rows, ``baseline_metrics`` and notes, as
canonical JSON. Run as the CLI runs them at its defaults (seed 0, ``fig10``
under star, ``fig11`` with 100 applications on 1,000 nodes), ``scale`` at
512 nodes. Every row and metric entry named ``wall_s`` or ``events_per_s``
(or ``.../wall_s``) is host time and is dropped before hashing; everything
left is simulated and repeats exactly per seed, so a refactor that moves no
behaviour moves no digest. ``--check`` exits 1 on a difference and names
the experiments that moved. All 27 take about 15 s.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "tests" / "data" / "experiment_digests.json"
HOST_TIME = ("wall_s", "events_per_s")

sys.path.insert(0, str(ROOT / "src"))


def simulated(values: Dict[str, Any]) -> Dict[str, Any]:
    """``values`` without the host-time entries (``wall_s``, ``a/b/wall_s``, ...)."""
    return {k: v for k, v in values.items() if k.rsplit("/", 1)[-1] not in HOST_TIME}


def digest(result: Any) -> str:
    """The SHA-256 of one ``ExperimentResult``'s simulated content."""
    payload = {
        "id": result.experiment_id,
        "description": result.description,
        "columns": list(result.columns),
        "rows": [simulated(row) for row in result.rows],
        "baseline_metrics": simulated(result.extra.get("baseline_metrics", {})),
        "notes": result.notes,
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def total(digests: Dict[str, str]) -> str:
    """One digest over all of them, in catalog order."""
    lines = "".join(f"{name} {value}\n" for name, value in digests.items())
    return hashlib.sha256(lines.encode("utf-8")).hexdigest()


def run(only: Optional[Sequence[str]] = None) -> Dict[str, str]:
    """Experiment id -> digest, for the ``only`` ids or the whole catalog."""
    from repro.bench.__main__ import EXPERIMENTS, build_parser

    digests: Dict[str, str] = {}
    for name in only or EXPERIMENTS:
        extra = ["--scale-nodes", "512"] if name == "scale" else []
        digests[name] = digest(EXPERIMENTS[name](build_parser().parse_args([name] + extra)))
    return digests


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", action="append", metavar="ID",
                        help="this experiment only (repeatable)")
    parser.add_argument("--check", action="store_true",
                        help=f"compare with {DIGESTS.relative_to(ROOT)}; exit 1 on a difference")
    parser.add_argument("--write", action="store_true",
                        help=f"write {DIGESTS.relative_to(ROOT)} (a deliberate re-baseline only)")
    args = parser.parse_args(argv)
    digests = run(args.only)
    for name, value in digests.items():
        print(f"{name:12s} {value}")
    if not args.only:
        print(f"{'total':12s} {total(digests)}")
    if args.write:
        committed = json.loads(DIGESTS.read_text()) if args.only and DIGESTS.exists() else {}
        committed.update(digests)
        DIGESTS.parent.mkdir(exist_ok=True)
        DIGESTS.write_text(json.dumps(committed, indent=1) + "\n")
    if args.check:
        committed = json.loads(DIGESTS.read_text())
        moved = [name for name, value in digests.items() if committed.get(name) != value]
        if moved:
            print(f"moved against {DIGESTS.relative_to(ROOT)}: {', '.join(moved)}",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
