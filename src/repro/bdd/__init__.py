"""Decision-diagram substrate: BDD manager, sifting reorderer, ZDDs.

Both managers are instantiations of the shared kernel
:class:`repro.dd.manager.DDManager` — one node-table / GC / reordering
core under two reduction rules.

Public entry points:

* :class:`BDD` — the boolean manager (variable order, unique tables,
  operations).
* :class:`Function` — reference-counted handle; the API user code works with.
* :func:`sift`, :func:`sift_to_convergence` — dynamic variable reordering
  (generic: the same passes reorder ZDD managers).
* :class:`ZDD` — zero-suppressed diagrams (the Table 4 baseline), with
  the same reference counting, garbage collection and reordering as the
  BDD manager.  Its module :mod:`repro.bdd.zdd` loads on first access
  to one of its names.
"""

from .._lazy import lazy_exports
from ..dd import DDError, DDManager
from .function import Function, cube, false, true, variable
from .manager import BDD, BDDError, ONE, ZERO
from ..dd.reorder import sift, sift_to_convergence

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "zdd": ("ZDD", "ZDDError", "EMPTY", "BASE"),
})

__all__ = [
    "DDManager", "DDError",
    "BDD", "BDDError", "ZERO", "ONE",
    "Function", "true", "false", "variable", "cube",
    "sift", "sift_to_convergence",
    "ZDD", "ZDDError", "EMPTY", "BASE",
]
