"""Which functions under ``src/repro`` does anything this repository runs enter,
and which of their options does it ever set?

    python scripts/traffic_census.py [--only ITEM ...] [--max-unreached N] [--max-unset N]
    python scripts/traffic_census.py --items

Runs the repository's **traffic** in this process under a ``sys.setprofile``
hook that records every code object entered, and prints, per module, the
functions (every ``def`` the ``ast`` finds, nested ones included) that none
of it entered. The same hook compares every **option** with its default at
each call: an option is a parameter with a default of a module- or
class-level ``def``, or a dataclass field with one (its generated
``__init__`` is a call like any other; ``init=False`` fields are not
options). The options no call ever bound to anything but the default are
printed under their module as ``function(parameter)`` or ``Class.field``;
those of functions nothing enters are among them. A code object with no
option, or whose options have all been seen off their default, costs one
dict lookup a call. The traffic is what ships and what CI drives:

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
CI ratchet: a feature whose code no workload runs raises the count) and
``--max-unset N`` when more than N options are never set (a knob nobody
turns raises that one). An item that raises or returns non-zero also exits
1, since a broken item would shrink what counts as reached. To read another
commit, copy this file into a clone of it.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import gc
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
from types import CodeType, FunctionType
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
PERF = ROOT / "benchmarks" / "perf"
BASELINE = ROOT / "BENCH_sr3.json"

sys.path[:0] = [str(SRC), str(PERF)]

PERF_WORKLOADS = ("scale_tree", "scale_star", "live_flash", "stream_ckpt", "chaos_sweep")


# ------------------------------------------------------------------ catalogue


def _defs(tree: ast.AST, prefix: str = "") -> Iterator[Tuple[str, ast.AST]]:
    """``(qualified name, node)`` of every ``def`` and ``class`` under ``tree``."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, child
            yield from _defs(child, f"{prefix}{child.name}.<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield prefix + child.name, child
            yield from _defs(child, f"{prefix}{child.name}.")
        else:
            yield from _defs(child, prefix)


def _sources() -> Iterator[Tuple[Path, str, ast.AST]]:
    for path in sorted(PACKAGE.rglob("*.py")):
        yield path, path.relative_to(SRC).as_posix(), ast.parse(path.read_text(encoding="utf-8"))


def defined_functions() -> Dict[Tuple[str, int], Tuple[str, str, int]]:
    """Every ``def`` under ``src/repro``.

    Keyed the way a code object names itself, ``(file, first line)`` — the
    first decorator's line when there is one; the value is ``(module path
    relative to src/, qualified name, line count)``.
    """
    functions: Dict[Tuple[str, int], Tuple[str, str, int]] = {}
    for path, module, tree in _sources():
        for qualname, node in _defs(tree):
            if not isinstance(node, ast.ClassDef):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                functions[(str(path), first)] = (module, qualname, node.end_lineno - first + 1)
    return functions


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _is_option_field(stmt: ast.stmt) -> bool:
    """An annotated class attribute with a default that ``__init__`` takes."""
    if not isinstance(stmt, ast.AnnAssign) or stmt.value is None:
        return False
    if "ClassVar" in ast.dump(stmt.annotation):
        return False
    value = stmt.value
    return not (isinstance(value, ast.Call) and any(
        kw.arg == "init" and getattr(kw.value, "value", True) is False for kw in value.keywords
    ))


def defined_options() -> Set[Tuple[str, str]]:
    """Every option under ``src/repro`` as ``(module path, label)``.

    ``function(parameter)`` for a parameter with a default of a module- or
    class-level ``def`` (by qualified name), ``Class.field`` for a dataclass
    field with one.
    """
    options: Set[Tuple[str, str]] = set()
    for _path, module, tree in _sources():
        for qualname, node in _defs(tree):
            if "<locals>" in qualname:
                continue
            if isinstance(node, ast.ClassDef):
                if _is_dataclass(node):
                    options.update(
                        (module, f"{qualname}.{stmt.target.id}")
                        for stmt in node.body if _is_option_field(stmt)
                    )
                continue
            positional = node.args.posonlyargs + node.args.args
            defaulted = positional[len(positional) - len(node.args.defaults):] + [
                arg for arg, value in zip(node.args.kwonlyargs, node.args.kw_defaults)
                if value is not None
            ]
            options.update((module, f"{qualname}({arg.arg})") for arg in defaulted)
    return options


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


_UNSEEN = object()


def _unwrapped(obj: Any) -> Iterator[Any]:
    """The plain functions behind a class or module attribute."""
    if isinstance(obj, property):
        candidates = [obj.fget, obj.fset, obj.fdel]
    else:
        candidates = [getattr(obj, "__func__", obj)]
    for candidate in candidates:
        while candidate is not None:
            yield candidate
            candidate = getattr(candidate, "__wrapped__", None)


def _function_of(code: CodeType, qualname: str, namespace: Dict[str, Any]) -> Optional[Any]:
    """The function object ``code`` belongs to: its defaults live there."""
    obj: Any = namespace.get(qualname.split(".")[0])
    for part in qualname.split(".")[1:]:
        obj = vars(obj).get(part) if isinstance(obj, type) else None
    for candidate in _unwrapped(obj):
        if getattr(candidate, "__code__", None) is code:
            return candidate
    for referrer in gc.get_referrers(code):  # renamed, rebound or wrapped some other way
        if isinstance(referrer, FunctionType) and referrer.__code__ is code:
            return referrer
    return None


def _defaults_of(function: Any) -> Dict[str, Any]:
    code = function.__code__
    positional = code.co_varnames[:code.co_argcount]
    defaults = function.__defaults__ or ()
    named = dict(zip(positional[len(positional) - len(defaults):], defaults))
    named.update(function.__kwdefaults__ or {})
    return named


class Recorder:
    """What the hook has seen: the code objects ``entered`` and the options
    ``set`` (bound to something other than their default), keyed as
    :func:`defined_options` keys them."""

    def __init__(self) -> None:
        self.set: Set[Tuple[str, str]] = set()
        #: ``id(code object)`` -> the options still to be seen off their default,
        #: as ``[(key, local name, default)]``; None when there is nothing to
        #: learn. By identity: code objects compare equal without their file
        #: names, so two three-line ``__init__``s on the same line of two
        #: modules would share an entry. ``entered`` keeps every id alive.
        self._watch: Dict[int, Optional[List[Tuple[Tuple[str, str], str, Any]]]] = {}
        self.entered: List[CodeType] = []
        self.functions = defined_functions()
        self._in_package: Dict[str, Optional[str]] = {}

    def _options_of(self, frame: Any) -> Optional[list]:
        code = frame.f_code
        if code.co_filename == "<string>" and code.co_name == "__init__":
            return self._dataclass_options(code, frame.f_locals.get("self"))
        path = self._in_package.get(code.co_filename, _UNSEEN)
        if path is _UNSEEN:
            path = os.path.realpath(code.co_filename)
            path = self._in_package[code.co_filename] = (
                path if path.startswith(str(PACKAGE) + os.sep) else None
            )
        entry = self.functions.get((path, code.co_firstlineno)) if path else None
        if entry is None or "<locals>" in entry[1]:
            return None
        module, qualname, _lines = entry
        function = _function_of(code, qualname, frame.f_globals)
        if function is None:
            return None
        return [((module, f"{qualname}({name})"), name, default)
                for name, default in _defaults_of(function).items()] or None

    def _dataclass_options(self, code: CodeType, instance: Any) -> Optional[list]:
        """The generated ``__init__`` of a dataclass of the package: each field
        belongs to the class of the hierarchy that declares it."""
        cls = type(instance)
        if not cls.__module__.startswith(PACKAGE.name + "."):
            return None
        init = next((vars(k)["__init__"] for k in cls.__mro__ if "__init__" in vars(k)), None)
        if getattr(init, "__code__", None) is not code:
            return None
        options = []
        for name, default in _defaults_of(init).items():
            owner = next(k for k in cls.__mro__ if name in vars(k).get("__annotations__", ()))
            module = owner.__module__.replace(".", "/") + ".py"
            options.append(((module, f"{owner.__qualname__}.{name}"), name, default))
        return options or None

    def hook(self, frame: Any, event: str, arg: Any) -> None:
        if event != "call":
            return
        watch = self._watch
        key = id(frame.f_code)
        pending = watch.get(key, _UNSEEN)
        if pending is None:
            return
        if pending is _UNSEEN:
            self.entered.append(frame.f_code)
            pending = watch[key] = self._options_of(frame)
            if pending is None:
                return
        bound = frame.f_locals
        left = []
        for option in pending:
            label, name, default = option
            value = bound.get(name, default)
            if value is default:
                left.append(option)
                continue
            try:
                differs = bool(value != default)
            except Exception:  # an array, a type that refuses the comparison
                differs = True
            if differs:
                self.set.add(label)
            else:
                left.append(option)
        watch[key] = left or None


@contextlib.contextmanager
def recording(recorder: Recorder) -> Iterator[None]:
    """Feed every Python call, on any thread, to ``recorder``."""
    threading.setprofile(recorder.hook)
    sys.setprofile(recorder.hook)
    try:
        yield
    finally:
        sys.setprofile(None)
        threading.setprofile(None)


def census(only: Optional[Sequence[str]] = None) -> Dict[str, Any]:
    """Run the traffic (or the ``only`` items) and tally what it never entered
    and never set."""
    recorder = Recorder()
    failed: List[str] = []
    started = perf_counter()
    cwd = os.getcwd()
    with recording(recorder), tempfile.TemporaryDirectory() as tmp:
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

    reached = {
        (os.path.realpath(code.co_filename), code.co_firstlineno) for code in recorder.entered
    }
    functions = recorder.functions
    unreached: Dict[str, List[Tuple[str, int, int]]] = {}
    for key in sorted(set(functions) - reached):
        module, qualname, lines = functions[key]
        unreached.setdefault(module, []).append((qualname, key[1], lines))
    options = defined_options()
    unset: Dict[str, List[str]] = {}
    for module, label in sorted(options - recorder.set):
        unset.setdefault(module, []).append(label)
    return {
        "items": names,
        "failed": failed,
        "seconds": seconds,
        "functions": len(functions),
        "unreached": unreached,
        "unreached_count": sum(len(rows) for rows in unreached.values()),
        "unreached_lines": sum(row[2] for rows in unreached.values() for row in rows),
        "options": len(options),
        "unset": unset,
        "unset_count": sum(len(rows) for rows in unset.values()),
    }


def print_census(result: Dict[str, Any]) -> None:
    print(f"traffic: {len(result['items'])} items in {result['seconds']:.0f} s, "
          f"{len(result['failed'])} failed")
    for line in result["failed"]:
        print(f"  FAILED {line}")
    print(f"src/repro: {result['unreached_count']} of {result['functions']} functions "
          f"entered by none of it ({result['unreached_lines']} lines, nested ones "
          f"counted inside their parents too)")
    print(f"src/repro: {result['unset_count']} of {result['options']} options (defaulted "
          f"parameters and dataclass fields) set by none of it")
    for module in sorted(set(result["unreached"]) | set(result["unset"])):
        rows, labels = result["unreached"].get(module, []), result["unset"].get(module, [])
        print(f"{module}: {len(rows)} unreached, {len(labels)} unset")
        for qualname, line, lines in rows:
            print(f"    {qualname}  (line {line}, {lines} lines)")
        for label in labels:
            print(f"    unset {label}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", action="append", metavar="ITEM",
                        help="run this traffic item only (repeatable; see --items)")
    parser.add_argument("--items", action="store_true", help="list the traffic items and exit")
    parser.add_argument("--max-unreached", type=int, metavar="N",
                        help="exit 1 when more than N functions are unreached")
    parser.add_argument("--max-unset", type=int, metavar="N",
                        help="exit 1 when more than N options are never set")
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
    if args.max_unset is not None and result["unset_count"] > args.max_unset:
        print(f"{result['unset_count']} options never set > --max-unset {args.max_unset}: "
              f"a parameter or field nothing sets was added; set it from the traffic, "
              f"replace it with its one value, or give it a row in DESIGN.md and raise N",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
