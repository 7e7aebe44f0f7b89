"""Symbolic analysis building blocks: encoded nets, image engines, checks.

* :class:`SymbolicNet` — encoded net + BDD manager, image/preimage.
* :mod:`repro.symbolic.partition` — the *generic* relational layer:
  support clustering, disjunctive partitions, reorder-aware
  reclustering, the chained sweep with diff-based narrowing and the
  image engines (monolithic | chained), written
  once over the shared ``repro.dd`` kernel.
* :class:`RelationalNet` — the BDD encoding shim over that layer
  (Eq. 3 transition relations).
* :class:`ZddRelationalNet` — the sparse-ZDD shim over the same layer,
  and :class:`ZddNet` — the Yoneda classic engine of Table 4.
* :class:`KBoundedNet` — count-bit encodings for k-bounded nets.
* :class:`ModelChecker` — deadlock, mutual exclusion, EF/AG queries.

Nothing here runs a reachability fixpoint: :mod:`repro.analysis`
(``analyze(net, AnalysisSpec())`` or the :class:`~repro.analysis.
Analysis` session) is the one driver, and these classes are its
building blocks.
"""

from .checker import CheckReport, ModelChecker
from .kbounded import KBoundedNet
from .partition import (IMAGE_ENGINES, ZDD_RELATIONAL_ENGINES,
                        ChainedImageEngine, ImageEngine,
                        MonolithicImageEngine, PartitionedNet,
                        RelationPartition, TraversalLimitError,
                        cluster_by_support, make_image_engine)
from .relational import RelationalNet
from .transition import SymbolicNet
from .zdd_relational import (ZddRelationPartition, ZddRelationalNet,
                             ZddSparseRelation, ZddStateOps)
from .zdd_traversal import ClassicZddEngine, ZddNet

__all__ = [
    "SymbolicNet", "RelationalNet", "RelationPartition", "PartitionedNet",
    "cluster_by_support", "TraversalLimitError",
    "IMAGE_ENGINES", "ZDD_RELATIONAL_ENGINES", "ImageEngine",
    "make_image_engine",
    "MonolithicImageEngine", "ChainedImageEngine",
    "ModelChecker", "CheckReport",
    "ZddNet", "ClassicZddEngine",
    "ZddRelationalNet", "ZddRelationPartition", "ZddSparseRelation",
    "ZddStateOps",
    "KBoundedNet",
]
