"""Symbolic analysis: traversal, model checking, ZDD baseline.

* :class:`SymbolicNet` — encoded net + BDD manager, image/preimage.
* :func:`traverse` — BFS reachability fixpoint with statistics.
* :mod:`repro.symbolic.partition` — the *generic* relational layer:
  support clustering, disjunctive partitions, reorder-aware
  reclustering, the chained sweep with diff-based narrowing and the
  pluggable image engines (monolithic | partitioned | chained), written
  once over the shared ``repro.dd`` kernel.
* :class:`RelationalNet` / :func:`traverse_relational` — the BDD
  encoding shim over that layer (Eq. 3 transition-relation traversal).
* :class:`ZddRelationalNet` / :func:`traverse_zdd` — the sparse-ZDD
  shim over the same layer, plus the Yoneda classic engine of Table 4.
* :class:`ModelChecker` — deadlock, mutual exclusion, EF/AG queries.

The ``traverse*`` entry points and per-engine result dataclasses are
legacy shims: :mod:`repro.analysis` (``analyze(net, AnalysisSpec())``)
is the unified facade new code should use; the engines and net classes
here remain its building blocks.
"""

from .checker import CheckReport, ModelChecker
from .kbounded import KBoundedNet, KBoundedResult, traverse_kbounded
from .partition import PartitionedNet, RelationPartition
from .relational import RelationalNet
from .transition import SymbolicNet, cluster_by_support
from .traversal import (IMAGE_ENGINES, ChainedImageEngine, ImageEngine,
                        MonolithicImageEngine, PartitionedImageEngine,
                        TraversalLimitError, TraversalResult,
                        make_image_engine, reachable_set, traverse,
                        traverse_relational)
from .zdd_relational import (ZddRelationPartition, ZddRelationalNet,
                             ZddSparseRelation, ZddStateOps)
from .zdd_traversal import (ZDD_IMAGE_ENGINES, ChainedZddEngine,
                            ClassicZddEngine, MonolithicZddEngine,
                            PartitionedZddEngine,
                            ZddImageEngine, ZddNet, ZddTraversalResult,
                            make_zdd_image_engine, traverse_zdd)

__all__ = [
    "SymbolicNet", "RelationalNet", "RelationPartition", "PartitionedNet",
    "cluster_by_support",
    "traverse", "traverse_relational", "reachable_set", "TraversalResult",
    "TraversalLimitError",
    "IMAGE_ENGINES", "ImageEngine", "make_image_engine",
    "MonolithicImageEngine", "PartitionedImageEngine", "ChainedImageEngine",
    "ModelChecker", "CheckReport",
    "ZddNet", "ZddTraversalResult", "traverse_zdd",
    "ZddRelationalNet", "ZddRelationPartition", "ZddSparseRelation",
    "ZddStateOps",
    "ZDD_IMAGE_ENGINES", "ZddImageEngine", "make_zdd_image_engine",
    "ClassicZddEngine", "MonolithicZddEngine", "PartitionedZddEngine",
    "ChainedZddEngine",
    "KBoundedNet", "KBoundedResult", "traverse_kbounded",
]
