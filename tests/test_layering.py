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
    """``(lineno, top-level repro package)`` for every import in a file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
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

