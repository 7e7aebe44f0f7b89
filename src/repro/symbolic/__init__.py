"""Symbolic analysis building blocks: encoded nets, images, checks.

* :class:`SymbolicNet` — encoded net + BDD manager, image/preimage, and
  the support sort (:func:`sort_by_support`) its chaining sweep uses.
* :class:`RelationalNet` — the relational BDD form: interleaved
  current/next variables, saturated by ``(force_t, E_t)`` events.
* :class:`ZddRelationalNet` — the sparse-ZDD relational form with Eq. 3's
  per-transition partition and the chained sweep, and :class:`ZddNet` —
  the Yoneda classic engine of Table 4.
* :class:`KBoundedNet` — count-bit encodings for k-bounded nets.
* :class:`ModelChecker` — deadlock, mutual exclusion, EF/AG queries.

Nothing here runs a reachability fixpoint or knows which engines
exist: :mod:`repro.analysis` (``analyze(net, AnalysisSpec())`` or the
:class:`~repro.analysis.Analysis` session) runs every fixpoint, and
its sessions call these nets' image methods directly.  A session that
overruns ``max_iterations`` raises :class:`TraversalLimitError`.

The modules of the relational, ZDD and k-bounded nets load on first
access to one of their names.
"""

from .._lazy import lazy_exports
from .checker import CheckReport, ModelChecker
from .transition import SymbolicNet, TraversalLimitError, sort_by_support

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "kbounded": ("KBoundedNet",),
    "relational": ("RelationalNet",),
    "zdd_relational": ("ZddRelationalNet", "ZddSparseRelation",
                       "ZddStateOps"),
    "zdd_traversal": ("ZddNet",),
})

__all__ = [
    "SymbolicNet", "RelationalNet", "sort_by_support", "TraversalLimitError",
    "ModelChecker", "CheckReport",
    "ZddNet",
    "ZddRelationalNet", "ZddSparseRelation", "ZddStateOps",
    "KBoundedNet",
]
