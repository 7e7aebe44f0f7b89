"""Symbolic analysis building blocks: encoded nets, images, checks.

* :class:`SymbolicNet` — encoded net + BDD manager, image/preimage.
* :mod:`repro.symbolic.partition` — the *generic* relational layer:
  support clustering, disjunctive partitions, reorder-aware
  reclustering and the chained sweep with diff-based narrowing,
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
"""

from .checker import CheckReport, ModelChecker
from .kbounded import KBoundedNet
from .partition import (PartitionedNet, RelationPartition,
                        TraversalLimitError, cluster_by_support)
from .relational import RelationalNet
from .transition import SymbolicNet
from .zdd_relational import (ZddRelationPartition, ZddRelationalNet,
                             ZddSparseRelation, ZddStateOps)
from .zdd_traversal import ZddNet

__all__ = [
    "SymbolicNet", "RelationalNet", "RelationPartition", "PartitionedNet",
    "cluster_by_support", "TraversalLimitError",
    "ModelChecker", "CheckReport",
    "ZddNet",
    "ZddRelationalNet", "ZddRelationPartition", "ZddSparseRelation",
    "ZddStateOps",
    "KBoundedNet",
]
