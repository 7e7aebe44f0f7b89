"""Symbolic analysis building blocks: encoded nets, images, checks.

* :class:`SymbolicNet` — encoded net + BDD manager, image/preimage and
  the ``(force_t, E_t)`` saturation events both BDD forms fire.
* :class:`ZddNet` — one ZDD element per place: the Yoneda classic
  engine of Table 4 and ZDD saturation, and :class:`ZddRelationalNet` —
  paired current/next elements with Eq. 3's per-transition partition
  and the chained sweep.
* :class:`KBoundedNet` — count-bit encodings for k-bounded nets.
* :class:`ModelChecker` — deadlock, mutual exclusion, EF/AG queries.

Nothing here runs a reachability fixpoint or knows which engines
exist: :mod:`repro.analysis` (``analyze(net, AnalysisSpec())`` or the
:class:`~repro.analysis.Analysis` session) runs every fixpoint, and
its sessions call these nets' image methods directly.  A session that
overruns ``max_iterations`` raises :class:`TraversalLimitError`.

The modules of the ZDD and k-bounded nets load on first access to one
of their names.
"""

from .._lazy import lazy_exports
from .checker import CheckReport, ModelChecker
from .transition import SymbolicNet, TraversalLimitError

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "kbounded": ("KBoundedNet",),
    "zdd_relational": ("ZddRelationalNet", "ZddSparseRelation"),
    "zdd_traversal": ("ZddNet", "ZddStateOps"),
})

__all__ = [
    "SymbolicNet", "TraversalLimitError",
    "ModelChecker", "CheckReport",
    "ZddNet",
    "ZddRelationalNet", "ZddSparseRelation", "ZddStateOps",
    "KBoundedNet",
]
