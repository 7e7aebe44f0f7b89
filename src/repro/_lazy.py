"""Package attributes that import their submodule on first access.

A package ``__init__`` imports eagerly what a default analysis reaches
and names its optional submodules' exports in a table instead, so a run
compiles only the backends its spec uses (``docs/architecture.md``,
"Import layering")::

    __getattr__, __dir__ = lazy_exports(__name__, globals(), {
        "zdd": ("ZDD", "ZDDError", "EMPTY", "BASE"),
    })

The first access to ``ZDD`` (``repro.bdd.ZDD``, ``from repro.bdd import
ZDD``, ``from repro.bdd import *``) imports ``repro.bdd.zdd`` and caches
the value in the package namespace (PEP 562).  No exported name may
equal a lazy submodule's name: once the submodule is imported, the
import system binds that name to the module and the table is never
consulted again.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Dict, List, Sequence, Tuple


def lazy_exports(package: str, namespace: Dict[str, Any],
                 submodules: Dict[str, Sequence[str]]
                 ) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``, whose ``namespace``
    gains each name of ``submodules`` (submodule -> exported names) on
    first access."""
    origin = {name: module for module, names in submodules.items()
              for name in names}
    collisions = set(origin) & set(submodules)
    if collisions:
        raise ImportError(f"{package} exports {sorted(collisions)} under "
                          f"the names of its own submodules")

    def __getattr__(name: str) -> Any:
        if name in submodules:
            return import_module(f"{package}.{name}")
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{module}"), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin) | set(submodules))

    return __getattr__, __dir__
