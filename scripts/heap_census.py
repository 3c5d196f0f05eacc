"""What one benchmark cell keeps on the heap, and what the collector costs it.

    python scripts/heap_census.py <workload> [--seed N] [--top K] [--smoke]

Runs one cell of a ``benchmarks/perf/workloads.py`` workload (imported, not
modified) twice. The first pass is untraced apart from a ``gc.callbacks``
timer, so the collector's seconds and collection counts are those of a
normal cell; the second pass runs under ``tracemalloc`` (three to four times
slower) for the bytes and the lines that allocated them.

Both passes are cut into four **lap groups** by which public call was
entered last: ``Overlay.build`` / ``build_live_cell`` (build), a
``RecoveryManager`` or streaming save (save), ``Overlay.fail_node`` (fail
wave), a mechanism's ``start`` or ``RecoveryManager.recover`` (recovery). A
group lasts until a call of another group is entered, so the event-loop time
that drains a save belongs to the save. Collector time is summed per group
over the whole cell. The heap (GC-tracked objects by type, ``tracemalloc``
lines, resident memory) is read when a group is left *for the first time*
and at the end of the cell; in the scale cells every group runs once, so
that is the end of each group, and in ``chaos_sweep`` it is the first of the
224 scenario x mechanism cells plus the end. numpy, when installed, is
imported before either pass: its import, and the objects the collector frees
after it, would otherwise land in whichever group first holds 128 flows.
"""

from __future__ import annotations

import argparse
import gc
import resource
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks" / "perf"))

from workloads import WORKLOADS  # noqa: E402  (benchmarks/perf/workloads.py)

from repro.dht import Overlay  # noqa: E402
from repro.live import build_live_cell  # noqa: E402
from repro.recovery import RecoveryManager  # noqa: E402
from repro.recovery.baselines import CheckpointingBaseline  # noqa: E402
from repro.recovery.deployment import MECHANISMS  # noqa: E402
from repro.streaming import LocalCluster  # noqa: E402

try:  # imported by the first 128-flow table: the process's cost, not a group's
    import numpy  # noqa: E402, F401
except ImportError:
    pass

GROUPS = ("build", "save", "fail wave", "recovery")

# (class, method names, group): entering one of these starts the group.
PROBES: List[Tuple[Any, Tuple[str, ...], str]] = [
    (Overlay, ("build",), "build"),
    (RecoveryManager, ("register", "save", "save_delta", "save_all"), "save"),
    (LocalCluster, ("checkpoint",), "save"),
    (Overlay, ("fail_node",), "fail wave"),
    (LocalCluster, ("kill_task",), "fail wave"),
    (RecoveryManager, ("recover", "on_failures"), "recovery"),
    (CheckpointingBaseline, ("recover",), "recovery"),
    *((mechanism, ("start",), "recovery") for mechanism in MECHANISMS.values()),
]
# Module-level functions, re-pointed in every loaded module that imported them.
FUNCTION_PROBES: List[Tuple[Callable, str]] = [(build_live_cell, "build")]


def resident_mb() -> float:
    """Resident memory now (Linux); the peak so far where /proc is missing."""
    try:
        pages = int(Path("/proc/self/statm").read_text().split()[1])
        return pages * resource.getpagesize() / 2**20
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tracked_objects() -> Tuple[Counter, int]:
    """GC-tracked objects alive now by type name, and the overlays' node count."""
    counts: Counter = Counter()
    nodes = 0
    for obj in gc.get_objects():
        kind = type(obj)
        counts[f"{kind.__module__}.{kind.__qualname__}"] += 1
        if kind is Overlay:
            nodes += len(obj.nodes)
    return counts, nodes


class Phases:
    """The current lap group, switched by wrappers around `PROBES`."""

    def __init__(self, on_leave: Callable[[str], None]) -> None:
        self.current = GROUPS[0]
        self.on_leave = on_leave
        self._originals: List[Tuple[Any, str, Any]] = []

    def enter(self, group: str) -> None:
        if group != self.current:
            self.on_leave(self.current)
            self.current = group

    def install(self) -> None:
        for owner, names, group in PROBES:
            for name in names:
                self._patch(owner, name, self._wrap(vars(owner)[name], group))
        for fn, group in FUNCTION_PROBES:
            wrapper = self._wrap(fn, group)
            for module in list(sys.modules.values()):
                for name, value in list(getattr(module, "__dict__", {}).items()):
                    if value is fn:
                        self._patch(module, name, wrapper)

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._originals.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._originals):
            setattr(owner, name, original)
        self._originals.clear()

    def _wrap(self, original: Callable, group: str) -> Callable:
        def probe(*args: Any, **kwargs: Any) -> Any:
            self.enter(group)
            return original(*args, **kwargs)

        probe.__wrapped__ = original  # type: ignore[attr-defined]
        return probe


def run_pass(workload: Any, traced: bool, top: int) -> Dict[str, Any]:
    """One cell; collector figures (untraced) or allocation lines (traced)."""
    collector = {g: {"seconds": 0.0, "collections": [0, 0, 0], "collected": 0} for g in GROUPS}
    heaps: Dict[str, Dict[str, Any]] = {}
    gc_started = 0.0
    last_lines: Any = None

    def snapshot(label: str) -> None:
        nonlocal last_lines
        if label in heaps:
            return
        heap: Dict[str, Any] = {"resident_mb": resident_mb() - floor_mb}
        if traced:
            heap["traced_mb"] = tracemalloc.get_traced_memory()[0] / 2**20
            lines = tracemalloc.take_snapshot().filter_traces(
                (tracemalloc.Filter(False, tracemalloc.__file__),)
            )
            grown = (lines.statistics("lineno") if last_lines is None
                     else lines.compare_to(last_lines, "lineno"))
            last_lines = lines
            heap["lines"] = [
                (f"{Path(s.traceback[0].filename).name}:{s.traceback[0].lineno}",
                 getattr(s, "size_diff", s.size), getattr(s, "count_diff", s.count))
                for s in grown[:top]
            ]
        else:
            tracked, heap["nodes"] = tracked_objects()
            heap["tracked"] = tracked - floor_tracked
        heaps[label] = heap

    phases = Phases(on_leave=snapshot)

    def on_gc(phase: str, info: Dict[str, int]) -> None:
        nonlocal gc_started
        if phase == "start":
            gc_started = perf_counter()
            return
        slot = collector[phases.current]
        slot["seconds"] += perf_counter() - gc_started
        slot["collections"][info["generation"]] += 1
        slot["collected"] += info["collected"]

    gc.collect()
    floor_mb, floor_tracked = resident_mb(), tracked_objects()[0]
    phases.install()
    if traced:
        tracemalloc.start()
    else:
        gc.callbacks.append(on_gc)
    began = perf_counter()
    try:
        raw = workload.cell(lambda: None)
        wall = perf_counter() - began
        # The last group ends with the cell, unless it was left (and read) before.
        snapshot("end of cell" if phases.current in heaps else phases.current)
    finally:
        if traced:
            tracemalloc.stop()
        else:
            gc.callbacks.remove(on_gc)
        phases.uninstall()
    outcome = workload.verify(raw)
    return {"wall_s": wall, "collector": collector, "heaps": heaps,
            "floor_tracked": sum(floor_tracked.values()), "floor_mb": floor_mb,
            "failed": outcome.failed, "errors": outcome.errors}


def census(name: str, seed: int = 0, top: int = 8, smoke: bool = False) -> Dict[str, Any]:
    """Both passes of one workload's cell, merged per lap group.

    Every heap figure is what the cell added to the process: the tracked
    objects, resident megabytes and traced megabytes above their level just
    before the cell, after a full collection.
    """
    workload = WORKLOADS[name](seed, smoke=smoke)
    plain = run_pass(workload, traced=False, top=top)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced = run_pass(workload, traced=True, top=top)
    groups: Dict[str, Dict[str, Any]] = {}
    for label in (*GROUPS, "end of cell"):
        group = dict(plain["collector"].get(label, {}))
        group.update(plain["heaps"].get(label, {}))
        group.update((k, v) for k, v in traced["heaps"].get(label, {}).items()
                     if k in ("traced_mb", "lines"))
        if group:
            groups[label] = group
    last = [g for g in groups.values() if "tracked" in g][-1]
    return {
        "workload": name, "seed": seed, "smoke": smoke,
        "wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"],
        "collector_s": sum(c["seconds"] for c in plain["collector"].values()),
        "collections": [sum(c["collections"][g] for c in plain["collector"].values())
                        for g in range(3)],
        "floor_tracked": plain["floor_tracked"], "floor_mb": plain["floor_mb"],
        "end_tracked": sum(last["tracked"].values()), "end_mb": last["resident_mb"],
        "peak_rss_mb": peak_rss_mb,
        "failed": plain["failed"] + traced["failed"],
        "errors": plain["errors"] + traced["errors"],
        "groups": groups,
    }


def print_census(result: Dict[str, Any], top: int) -> None:
    collections = "/".join(str(n) for n in result["collections"])
    print(f"== {result['workload']} seed {result['seed']}"
          f"{' (smoke size)' if result['smoke'] else ''}: cell {result['wall_s']:.3f} s, "
          f"collector {result['collector_s']:.3f} s "
          f"({result['collector_s'] / result['wall_s']:.1%}), collections {collections} "
          f"(gen 0/1/2); {result['traced_wall_s']:.2f} s under tracemalloc")
    print(f"   the cell added {result['end_tracked']:,} tracked objects and "
          f"{result['end_mb']:.1f} MB resident to {result['floor_tracked']:,} objects and "
          f"{result['floor_mb']:.1f} MB; peak_rss {result['peak_rss_mb']:.1f} MB "
          f"after the untraced pass")
    previous: Counter = Counter()
    for label, group in result["groups"].items():
        line = f"-- {label}"
        if "seconds" in group:
            line += (f": collector {group['seconds']:.3f} s, collections "
                     f"{'/'.join(str(n) for n in group['collections'])}, "
                     f"{group['collected']:,} objects freed")
        print(line)
        if "tracked" not in group:
            continue
        tracked: Counter = group["tracked"]
        total = sum(tracked.values())
        line = f"   heap: +{total:,} tracked objects, +{group['resident_mb']:.1f} MB resident"
        if "traced_mb" in group:
            line += f", {group['traced_mb']:.1f} MB traced"
        print(line)
        nodes = group["nodes"]
        if label == "build" and nodes:
            print(f"   per node ({nodes:,} nodes): {total / nodes:.1f} tracked objects, "
                  f"{group['resident_mb'] * 1024 / nodes:.2f} KB resident, "
                  f"{group.get('traced_mb', 0.0) * 1024 / nodes:.2f} KB traced")
        for kind, count in tracked.most_common(top):
            print(f"     {count:>9,} {kind}  ({count - previous[kind]:+,} in this group)")
        previous = tracked
        for where, size, count in group.get("lines", ()):
            print(f"     {size / 2**20:+8.2f} MB {count:>+9,} blocks  {where}")
    for error in result["errors"]:
        print(f"   INCORRECT: {error}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--top", type=int, default=8, help="types and lines listed per group")
    parser.add_argument("--smoke", action="store_true",
                        help="the reduced size the smoke test runs")
    args = parser.parse_args(argv)
    result = census(args.workload, args.seed, args.top, args.smoke)
    print_census(result, args.top)
    return 1 if result["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
