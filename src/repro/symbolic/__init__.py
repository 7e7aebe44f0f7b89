"""Symbolic analysis building blocks: encoded nets, images, checks.

* :class:`SymbolicNet` — encoded net + BDD manager, image/preimage.
* :mod:`repro.symbolic.partition` — the *generic* relational layer:
  the support sort, the per-transition disjunctive partition sorted by
  the current order and the chained sweep with diff-based narrowing,
  written once over the shared ``repro.dd`` kernel.
* :class:`RelationalNet` — the BDD encoding shim over that layer
  (Eq. 3 transition relations).
* :class:`ZddRelationalNet` — the sparse-ZDD shim over the same layer,
  and :class:`ZddNet` — the Yoneda classic engine of Table 4.
* :class:`KBoundedNet` — count-bit encodings for k-bounded nets.
* :class:`ModelChecker` — deadlock, mutual exclusion, EF/AG queries.

Nothing here runs a reachability fixpoint or knows which engines
exist: :mod:`repro.analysis` (``analyze(net, AnalysisSpec())`` or the
:class:`~repro.analysis.Analysis` session) runs every fixpoint, and
its sessions call these nets' image methods directly.

The modules of the relational, ZDD and k-bounded nets load on first
access to one of their names.
"""

from .._lazy import lazy_exports
from .checker import CheckReport, ModelChecker
from .partition import (PartitionedNet, RelationPartition,
                        TraversalLimitError, sort_by_support)
from .transition import SymbolicNet

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "kbounded": ("KBoundedNet",),
    "relational": ("RelationalNet",),
    "zdd_relational": ("ZddRelationalNet", "ZddSparseRelation",
                       "ZddStateOps"),
    "zdd_traversal": ("ZddNet",),
})

__all__ = [
    "SymbolicNet", "RelationalNet", "RelationPartition", "PartitionedNet",
    "sort_by_support", "TraversalLimitError",
    "ModelChecker", "CheckReport",
    "ZddNet",
    "ZddRelationalNet", "ZddSparseRelation", "ZddStateOps",
    "KBoundedNet",
]
