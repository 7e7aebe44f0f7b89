"""Shared decision-diagram kernel.

One node-table / garbage-collection / reordering core under every
diagram flavour in the project:

* :class:`DDManager` — the manager base: parallel node arrays addressed
  by integer ids, per-variable unique tables, an operation-cache
  registry, level/order bookkeeping, exact reference counting with
  cascading frees, garbage collection and Rudell adjacent-level swaps.
* :func:`sift` — dynamic variable reordering by (group) sifting,
  generic over any :class:`DDManager`.
* :class:`DDError` — the common error base
  (:class:`repro.bdd.manager.BDDError` and
  :class:`repro.bdd.zdd.ZDDError` both subclass it).

Subclasses supply only what genuinely differs between diagram kinds:
the reduction rule (:meth:`DDManager._mk`), the cofactor expansion used
by the in-place level swap (:meth:`DDManager._swap_cofactors`) and the
operation algebra itself.  :class:`repro.bdd.manager.BDD` (dense
boolean functions) and :class:`repro.bdd.zdd.ZDD` (zero-suppressed set
families) are the two instantiations — which is how the ZDD manager
gets reference counting, garbage collection and sifting from the same
code the BDD manager always had.
"""

from .manager import DDError, DDManager, ResourceBudgetExceeded
from .reorder import sift

__all__ = [
    "DDManager", "DDError", "ResourceBudgetExceeded",
    "sift",
]
