"""Which functions under ``src/repro`` does anything this repository runs enter?

    python scripts/traffic_census.py [--only ITEM ...] [--max-unreached N]
    python scripts/traffic_census.py --items

Runs the repository's **traffic** in this process under a ``sys.setprofile``
hook that records every code object entered, and prints, per module, the
functions (every ``def`` the ``ast`` finds, nested ones included) that none
of it entered. The traffic is what ships and what CI drives:

* every ``bench run`` experiment (``scale`` at 512 nodes) and, on ``fig8a``,
  every observability flag and the ``--baseline`` gate in its write, merge
  and compare modes;
* ``bench list``; ``bench campaign smoke|full`` with and without
  ``--controller`` and once with ``--jobs 2``; ``bench control`` over the
  whole catalog; both ``bench dashboard`` modes;
* every script in ``examples/``;
* the five ``benchmarks/perf`` workloads at smoke size, untraced and under
  the layer trace; ``scripts/heap_census.py``; and
  ``scripts/generate_experiments.py --fast`` into a scratch copy of
  EXPERIMENTS.md.

The hook is installed before ``repro`` is imported, so a function that runs
only while a module loads counts as entered. **Spawn workers are not
profiled**: the ``--jobs 2`` items exercise the pool and the merge in this
process, and two more items drive the same cells through
``repro.bench.parallel``'s inline branch (``jobs=1``) so the worker bodies
are seen too.

``--max-unreached N`` exits 1 when more than N functions are unreached (the
CI ratchet: a feature whose code no workload runs raises the count). An item
that raises or returns non-zero also exits 1, since a broken item would
shrink what counts as reached. To read another commit, copy this file into
a clone of it.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib.util
import io
import os
import runpy
import shutil
import sys
import tempfile
import threading
import traceback
from pathlib import Path
from time import perf_counter
from types import CodeType
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
PERF = ROOT / "benchmarks" / "perf"
BASELINE = ROOT / "BENCH_sr3.json"

sys.path[:0] = [str(SRC), str(PERF)]

PERF_WORKLOADS = ("scale_tree", "scale_star", "live_flash", "stream_ckpt", "chaos_sweep")


# ------------------------------------------------------------------ catalogue


def defined_functions() -> Dict[Tuple[str, int], Tuple[str, str, int]]:
    """Every ``def`` under ``src/repro``.

    Keyed the way a code object names itself, ``(file, first line)`` — the
    first decorator's line when there is one; the value is ``(module path
    relative to src/, qualified name, line count)``.
    """
    functions: Dict[Tuple[str, int], Tuple[str, str, int]] = {}

    def visit(node: ast.AST, prefix: str, path: Path) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                functions[(str(path), first)] = (
                    path.relative_to(SRC).as_posix(),
                    prefix + child.name,
                    child.end_lineno - first + 1,
                )
                visit(child, f"{prefix}{child.name}.<locals>.", path)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", path)
            else:
                visit(child, prefix, path)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), "", path)
    return functions


# -------------------------------------------------------------------- traffic


def _bench(*argv: str) -> Callable[[Path], int]:
    def run(tmp: Path) -> int:
        from repro.bench.__main__ import main

        return main([arg.replace("{tmp}", str(tmp)) for arg in argv])

    return run


def _example(path: Path) -> Callable[[Path], int]:
    def run(tmp: Path) -> int:
        runpy.run_path(str(path), run_name="__main__")
        return 0

    return run


def _perf(name: str) -> Callable[[Path], int]:
    def run(tmp: Path) -> int:
        import layertrace  # benchmarks/perf
        import run as harness
        from workloads import WORKLOADS

        workload = WORKLOADS[name](seed=0, smoke=True)
        failed = harness.run_cell(workload).outcome.failed
        trace = layertrace.LayerTrace()
        trace.install()
        try:
            failed += harness.run_cell(workload, trace).outcome.failed
        finally:
            trace.uninstall()
        return failed

    return run


def _script(name: str) -> Any:
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _heap_census(tmp: Path) -> int:
    return _script("heap_census").main(["scale_tree", "--smoke"])


def _generate_experiments(tmp: Path) -> int:
    """Into a copy of the committed document, so the merge replaces and keeps."""
    copy = shutil.copy(ROOT / "EXPERIMENTS.md", tmp)
    _script("generate_experiments").main(["--fast", "--out", copy])
    return 0


def _inline_campaign(tmp: Path) -> int:
    """The campaign workers' bodies, with the collection a ``--trace
    --metrics-out`` parent ships to them switched on."""
    from repro.bench.parallel import run_campaign_parallel
    from repro.obs.registry import clear_collected_registries, enable_metrics_collection
    from repro.obs.tracer import clear_collected, enable_tracing

    enable_tracing(True)
    enable_metrics_collection(True)
    try:
        return run_campaign_parallel("smoke", jobs=1).counts()["failed"]
    finally:
        enable_tracing(False)
        enable_metrics_collection(False)
        clear_collected()
        clear_collected_registries()


def _inline_scale(tmp: Path) -> int:
    from repro.bench.parallel import run_scale_cells

    run_scale_cells([(512, "tree", 16, 0)], jobs=1)
    return 0


def traffic() -> Dict[str, Callable[[Path], int]]:
    """Item name -> runner. A runner gets the census's scratch directory (also
    the working directory while it runs) and returns 0 when the item is clean."""
    from repro.bench.__main__ import EXPERIMENTS

    items: Dict[str, Callable[[Path], int]] = {}
    for name in EXPERIMENTS:
        extra = ("--scale-nodes", "512") if name == "scale" else ()
        items[f"run:{name}"] = _bench("run", name, *extra)
    observed = (
        "run", "fig8a", "--trace", "{tmp}/trace.json", "--profile", "{tmp}/profile.json",
        "--flamegraph", "{tmp}/stacks.folded", "--speedscope", "{tmp}/speedscope.json",
        "--metrics-out", "{tmp}/metrics.json", "--baseline", "{tmp}/baseline.json",
    )
    items["run:fig8a:observed"] = _bench(*observed)  # writes the baseline
    items["run:fig8a:plain-trace"] = _bench(
        *observed, "--trace-format", "plain", "--update-baseline"
    )
    items["run:fig8a:gated"] = _bench(
        "run", "fig8a", "--baseline", str(BASELINE), "--baseline-tolerance", "0.1"
    )
    items["run:scale:jobs2"] = _bench("run", "scale", "--scale-nodes", "512", "--jobs", "2")
    items["run:scale:inline-workers"] = _inline_scale
    items["list"] = _bench("list", "--baseline", str(BASELINE))
    for name in ("smoke", "full"):
        items[f"campaign:{name}"] = _bench("campaign", name, "--out", "{tmp}/campaign.json")
        items[f"campaign:{name}:controller"] = _bench(
            "campaign", name, "--controller", "--out", "{tmp}/campaign.json"
        )
    items["campaign:smoke:jobs2"] = _bench(
        "campaign", "smoke", "--jobs", "2", "--trace", "{tmp}/trace.json",
        "--metrics-out", "{tmp}/metrics.json", "--out", "{tmp}/campaign.json",
    )
    items["campaign:smoke:inline-workers"] = _inline_campaign
    items["control"] = _bench("control", "--out", "{tmp}/control.json")
    for mode in ("burn", "detector"):
        items[f"dashboard:{mode}"] = _bench(
            "dashboard", "--mode", mode, "--out", "{tmp}/dashboard.html"
        )
    for path in sorted((ROOT / "examples").glob("*.py")):
        items[f"example:{path.stem}"] = _example(path)
    for name in PERF_WORKLOADS:
        items[f"perf:{name}"] = _perf(name)
    items["heap_census"] = _heap_census
    items["generate_experiments"] = _generate_experiments
    return items


# --------------------------------------------------------------------- census


@contextlib.contextmanager
def recording(entered: Set[CodeType]) -> Iterator[None]:
    """Add the code object of every Python call, on any thread, to ``entered``."""

    def hook(frame: Any, event: str, arg: Any) -> None:
        if event == "call":
            entered.add(frame.f_code)

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        yield
    finally:
        sys.setprofile(None)
        threading.setprofile(None)


def census(only: Optional[Sequence[str]] = None) -> Dict[str, Any]:
    """Run the traffic (or the ``only`` items) and tally what it never entered."""
    entered: Set[CodeType] = set()
    failed: List[str] = []
    started = perf_counter()
    cwd = os.getcwd()
    with recording(entered), tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # the examples write out/ where they stand
        try:
            items = traffic()
            names = list(items) if only is None else list(only)
            for name in names:
                try:
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()):
                        code = items[name](Path(tmp))
                except (Exception, SystemExit):  # the census goes on and reports it
                    code = traceback.format_exc().rstrip()
                if code:
                    failed.append(f"{name}: {code}")
        finally:
            os.chdir(cwd)
    seconds = perf_counter() - started

    reached = {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in entered}
    functions = defined_functions()
    unreached: Dict[str, List[Tuple[str, int, int]]] = {}
    for key in sorted(set(functions) - reached):
        module, qualname, lines = functions[key]
        unreached.setdefault(module, []).append((qualname, key[1], lines))
    return {
        "items": names,
        "failed": failed,
        "seconds": seconds,
        "functions": len(functions),
        "unreached": unreached,
        "unreached_count": sum(len(rows) for rows in unreached.values()),
        "unreached_lines": sum(row[2] for rows in unreached.values() for row in rows),
    }


def print_census(result: Dict[str, Any]) -> None:
    print(f"traffic: {len(result['items'])} items in {result['seconds']:.0f} s, "
          f"{len(result['failed'])} failed")
    for line in result["failed"]:
        print(f"  FAILED {line}")
    print(f"src/repro: {result['unreached_count']} of {result['functions']} functions "
          f"entered by none of it ({result['unreached_lines']} lines, nested ones "
          f"counted inside their parents too)")
    for module, rows in result["unreached"].items():
        print(f"{module}: {len(rows)}")
        for qualname, line, lines in rows:
            print(f"    {qualname}  (line {line}, {lines} lines)")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", action="append", metavar="ITEM",
                        help="run this traffic item only (repeatable; see --items)")
    parser.add_argument("--items", action="store_true", help="list the traffic items and exit")
    parser.add_argument("--max-unreached", type=int, metavar="N",
                        help="exit 1 when more than N functions are unreached")
    args = parser.parse_args(argv)
    if args.items:
        print("\n".join(traffic()))
        return 0
    result = census(args.only)
    print_census(result)
    if result["failed"]:
        return 1
    if args.max_unreached is not None and result["unreached_count"] > args.max_unreached:
        print(f"{result['unreached_count']} unreached functions > --max-unreached "
              f"{args.max_unreached}: a function no workload enters was added; run it "
              f"from the traffic, delete it, or give it a row in DESIGN.md and raise N",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
