"""Import layering of ``src/repro``: no package reaches upward.

The substrate packages (simulator, overlay, state plane, recovery,
streaming engine, observability) sit below the five that *use* a
deployment — ``api``, ``bench``, ``chaos``, ``control``, ``live`` — and
``bench`` sits on top of those. An upward import (function-local ones
included) is what forces everyone above it into import-inside-function
workarounds, so it fails here, in the fast CI job.
"""

import ast
from pathlib import Path

import pytest

import repro

ROOT = Path(repro.__file__).parent
SUBSTRATE = (
    "sim", "dht", "multicast", "state", "recovery", "streaming", "obs", "util",
    "workloads",
)
USERS = ("api", "bench", "chaos", "control", "live")

#: package -> packages it must not import.
FORBIDDEN = {
    **{package: USERS for package in SUBSTRATE},
    **{package: ("bench",) for package in ("chaos", "live", "control")},
}


def imported_packages(path: Path):
    """``(lineno, top-level repro package)`` for every import in a file.

    The modules named in a package's export table (the keys of the dict an
    ``__init__`` hands to ``export_table``) count as imports: re-exporting
    from above is reaching upward.
    """
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "export_table":
            modules = [key.value for key in node.args[1].keys]
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"{path}:{node.lineno}: relative import"
            modules = [node.module]
            if node.module == "repro":
                modules = [f"repro.{alias.name}" for alias in node.names]
        else:
            continue
        for module in modules:
            parts = module.split(".")
            if parts[0] == "repro" and len(parts) > 1:
                yield node.lineno, parts[1]


@pytest.mark.parametrize("package", sorted(FORBIDDEN))
def test_package_does_not_import_upward(package):
    files = sorted((ROOT / package).rglob("*.py"))
    assert files, f"src/repro/{package} has no modules"
    offenders = [
        f"{path.relative_to(ROOT.parent)}:{lineno} imports repro.{target}"
        for path in files
        for lineno, target in imported_packages(path)
        if target in FORBIDDEN[package]
    ]
    assert offenders == []


def test_export_tables_are_read_as_imports(tmp_path):
    """``repro.sim`` re-exporting a control-plane name must fail like an import."""
    init = tmp_path / "__init__.py"
    init.write_text(
        "from repro._exports import export_table\n"
        "__getattr__, __all__ = export_table(__name__, {\n"
        '    "repro.sim.kernel": ("Simulator",),\n'
        '    "repro.control.controller": ("Controller",),\n'
        "})\n"
    )
    assert [target for _, target in imported_packages(init)] == ["_exports", "sim", "control"]
    # The real tables are read too: repro.sim re-exports the registry's metric types.
    assert "obs" in {target for _, target in imported_packages(ROOT / "sim" / "__init__.py")}


#: Every import inside a function body that is allowed to stay there:
#: ``(file, enclosing function, imported module) -> why it cannot be hoisted``.
FUNCTION_LOCAL_IMPORTS = {
    ("bench/parallel.py", "_scale_cell_worker", "repro.bench.experiments"):
        "cycle: experiments imports parallel's run_scale_cells at module level",
    ("chaos/campaign.py", "_attach_controller", "repro.control"):
        "5 modules only a controller cell runs: every chaos import would load them",
    ("obs/profile.py", "_attach_explanations", "repro.recovery.selection"):
        "cycle: recovery.model imports sim.kernel, which imports obs at module level",
    ("sim/flowvec.py", "attach", "numpy"):
        "optional, 0.15 s and 13 MB: bound when the first table attaches",
}


def test_function_local_imports_are_the_listed_ones():
    """A ratchet: an import inside a function hides a dependency from the
    layering test's reader and usually marks a cycle. The ones that must stay
    are listed above with the reason; anything else is hoisted."""
    found = set()
    for path in sorted(ROOT.rglob("*.py")):
        for function in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.ImportFrom):
                    modules = [node.module]
                elif isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                else:
                    continue
                for module in modules:
                    found.add((path.relative_to(ROOT).as_posix(), function.name, module))
    assert found == set(FUNCTION_LOCAL_IMPORTS)
