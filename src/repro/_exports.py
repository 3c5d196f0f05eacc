"""Package namespaces as export tables (PEP 562).

Every ``__init__`` of ``repro`` states what the package exports as one
table, ``defining module -> names``, and imports nothing else. A name is
imported from its module the first time it is read off the package and
then cached in the package's globals, so ``from repro.dht import Overlay``
loads what ``Overlay`` needs and ``import repro`` loads this module.
"""

import sys
from importlib import import_module
from typing import Callable, List, Mapping, Sequence, Tuple


def export_table(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], List[str]]:
    """``(__getattr__, __all__)`` for the package named ``package``.

    An unknown name raises ``AttributeError``, which is what lets
    ``from package import submodule`` and ``hasattr`` keep working.
    """
    owner = {name: module for module, names in exports.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        module = owner.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(module), name)
        return value

    # An export named like the submodule that defines it (the function
    # ``repro.obs.critical_path``) is bound now: importing the submodule
    # sets the *module* on the package under that name, and a module
    # ``__getattr__`` is never asked about a name that is set.
    for name, module in owner.items():
        if module == f"{package}.{name}":
            __getattr__(name)
    return __getattr__, list(owner)
