"""Sparse reachability on Zero-Suppressed BDDs (Yoneda et al., Table 4).

The baseline the paper compares against in Table 4 represents each
marking as the *set of marked places* in a ZDD (one element per place —
the sparse encoding, but in a structure that charges nothing for absent
places).  Two image computations are available behind a pluggable
engine, selected through :func:`traverse_zdd`:

* ``classic`` — the original per-transition rewrite: firing a transition
  on a family is a chain of element operations (``subset1`` over every
  input place, ``change`` over self-loops and outputs), one pass per
  place per transition.
* ``monolithic | partitioned | chained`` — the relational-product form
  over :class:`~repro.symbolic.zdd_relational.ZddRelationalNet`: sparse
  ``I ∪ O'`` relations on paired current/next elements, support-based
  clustering, and per-block images through the fused
  ``supset``/``and_exists``/``rename`` pipeline.  These are the
  *generic* engines of :mod:`repro.symbolic.partition` — the same
  classes that drive the BDD relational net — so ``chained`` sweeps
  blocks in support order with ``diff``-narrowed working sets,
  converging in a fraction of the iterations.

The traversal itself is the same BFS frontier fixpoint as the BDD
engine, with the same per-iteration safe point: the manager (now built
on the shared :class:`~repro.dd.manager.DDManager` kernel) collects
garbage and dynamically reorders there when ``auto_reorder`` is set on
the net.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..bdd.zdd import ZDD
from ..dd.manager import DEFAULT_REORDER_GROWTH
from ..petri.marking import Marking
from ..petri.net import PetriNet
from .partition import (ChainedImageEngine, ImageEngine,
                        MonolithicImageEngine, PartitionedImageEngine,
                        validate_cluster_size)
from .zdd_relational import ZddRelationalNet, ZddStateOps

ZDD_IMAGE_ENGINES = ("classic", "monolithic", "partitioned", "chained")


@dataclass
class ZddTraversalResult:
    """Statistics of a sparse-ZDD reachability computation.

    .. deprecated::
        Superseded by :class:`repro.analysis.result.AnalysisResult`;
        new code should run :func:`repro.analysis.analyze` and consume
        the unified schema.

    ``peak_live_nodes`` mirrors the BDD result's memory column (peak
    unique-table occupancy, sampled at the per-iteration safe points).
    ``reorder_count`` counts the sifting passes triggered during the
    fixpoint — 0 unless the net was built with ``auto_reorder=True``.
    """

    zdd: ZDD
    reachable: int
    marking_count: int
    iterations: int
    variable_count: int
    final_zdd_nodes: int
    seconds: float
    engine: str = "zdd/classic"
    peak_live_nodes: int = 0
    reorder_count: int = 0

    def __repr__(self) -> str:
        return (f"<ZddTraversalResult markings={self.marking_count} "
                f"V={self.variable_count} ZDD={self.final_zdd_nodes} "
                f"iters={self.iterations} t={self.seconds:.3f}s>")


class ZddNet(ZddStateOps):
    """A safe net bound to a ZDD manager (one element per place).

    This is the *classic* per-transition engine; the relational form
    lives in :class:`~repro.symbolic.zdd_relational.ZddRelationalNet`.

    ``auto_reorder`` enables threshold-triggered sifting at the
    traversal safe points (elements sift individually — the classic
    engine has no rename maps to keep monotone).  The ZDD sessions also
    arm the kernel's growth-based trigger: a safe point sifts when the
    live-node count has doubled since the last reorder, so a diagram
    that grows fast reorders early instead of waiting for one absolute
    threshold.
    """

    def __init__(self, net: PetriNet, zdd: Optional[ZDD] = None,
                 auto_reorder: bool = False,
                 reorder_threshold: int = 50_000) -> None:
        if zdd is None:
            zdd = ZDD(auto_reorder=auto_reorder,
                      reorder_threshold=reorder_threshold)
        if zdd.num_vars:
            raise ValueError("ZddNet needs a fresh ZDD manager")
        zdd.configure_reorder(auto_reorder, reorder_threshold,
                              growth=DEFAULT_REORDER_GROWTH)
        self.net = net
        self.zdd = zdd
        for place in net.places:
            zdd.add_var(place)
        self._moves: Dict[str, Tuple[List[str], List[str], List[str]]] = {}
        for transition in net.transitions:
            pre = net.preset(transition)
            post = net.postset(transition)
            self._moves[transition] = (
                sorted(pre),                 # inputs to strip
                sorted(pre & post),          # self-loops to restore
                sorted(post - pre))          # outputs to deposit
        self.initial = zdd.ref(
            zdd.singleton(net.initial_marking.support))

    def image(self, states: int, transition: str) -> int:
        """Successor family under one transition."""
        zdd = self.zdd
        inputs, loops, outputs = self._moves[transition]
        family = states
        for place in inputs:
            family = zdd.subset1(family, place)
        for place in loops:
            family = zdd.change(family, place)
        for place in outputs:
            family = zdd.change(family, place)
        return family

    def image_all(self, states: int) -> int:
        """Successor family under all transitions."""
        result = self.zdd.empty()
        for transition in self.net.transitions:
            result = self.zdd.union(result, self.image(states, transition))
        return result


class ZddImageEngine(ImageEngine):
    """Abstract ZDD engine: the generic :class:`~repro.symbolic.
    partition.ImageEngine` surface plus the zdd-flavoured aliases the
    legacy API promises (``zddnet`` / ``zdd`` / ``net``)."""

    @property
    def zddnet(self):
        return self.relnet

    @property
    def zdd(self) -> ZDD:
        return self.relnet.zdd

    @property
    def net(self) -> PetriNet:
        return self.relnet.net


class ClassicZddEngine(ZddImageEngine):
    """Per-transition subset1/change rewriting (the original loop)."""

    name = "classic"

    def advance(self, reached, frontier):
        return self._absorb(reached, self.zddnet.image_all(frontier))


class MonolithicZddEngine(ZddImageEngine, MonolithicImageEngine):
    """All transitions in one block: a single sweep position per step."""


class PartitionedZddEngine(ZddImageEngine, PartitionedImageEngine):
    """Union of per-block images (Eq. 3) per step."""


class ChainedZddEngine(ZddImageEngine, ChainedImageEngine):
    """Support-sorted sweep with frontier accumulation and diff-based
    working-set narrowing per step."""


def make_zdd_image_engine(zddnet, engine: str = "chained",
                          cluster_size: "int | str" = 1) -> ImageEngine:
    """Factory for the ZDD image engines by name.

    ``zddnet`` must match the chosen engine's form — a :class:`ZddNet`
    for ``classic``, a :class:`ZddRelationalNet` for the relational
    engines.  Mixing them is rejected rather than silently bridged: the
    traversal would otherwise run in a freshly built manager whose node
    ids mean nothing to the caller's net, so decoding the result through
    it would yield garbage without any error.  ``cluster_size`` must be
    a positive integer or ``"auto"``; ``engine`` one of
    :data:`ZDD_IMAGE_ENGINES`.  Everything is validated here so
    misconfigurations fail fast.
    """
    validate_cluster_size(cluster_size)
    if engine == "classic":
        if not isinstance(zddnet, ZddNet):
            raise TypeError(
                f"the classic engine needs a ZddNet, got "
                f"{type(zddnet).__name__}; build one with "
                f"ZddNet(net)")
        return ClassicZddEngine(zddnet)
    if engine not in ZDD_IMAGE_ENGINES:
        raise ValueError(f"unknown ZDD image engine {engine!r}; "
                         f"expected one of {ZDD_IMAGE_ENGINES}")
    if not isinstance(zddnet, ZddRelationalNet):
        raise TypeError(
            f"the {engine} engine needs a ZddRelationalNet, got "
            f"{type(zddnet).__name__}; build one with "
            f"ZddRelationalNet(net)")
    if engine == "monolithic":
        return MonolithicZddEngine(zddnet)
    if engine == "partitioned":
        return PartitionedZddEngine(zddnet, cluster_size)
    return ChainedZddEngine(zddnet, cluster_size)


def traverse_zdd(zddnet: "Union[ZddNet, ZddRelationalNet]",
                 engine: "Union[str, ImageEngine]" = "classic",
                 cluster_size: "int | str" = 1,
                 max_iterations: Optional[int] = None
                 ) -> ZddTraversalResult:
    """BFS frontier fixpoint over the sparse-ZDD representation.

    .. deprecated::
        Thin legacy shim kept for existing callers and tests; new code
        should run ``repro.analysis.analyze(net,
        AnalysisSpec(backend="zdd", ...))``, which wraps the same
        engines behind the unified spec/result schema.

    Parameters
    ----------
    zddnet:
        A :class:`ZddNet` (classic engine) or
        :class:`~repro.symbolic.zdd_relational.ZddRelationalNet`
        (relational engines); a mismatch raises ``TypeError`` so node
        ids in the result always belong to ``zddnet``'s manager.  Build
        the net with ``auto_reorder=True`` to sift at the per-iteration
        safe points.
    engine:
        ``"classic"`` (default, the per-transition rewrite),
        ``"monolithic"``, ``"partitioned"`` or ``"chained"`` — see
        :func:`make_zdd_image_engine`.  An engine instance is also
        accepted (``cluster_size`` is then ignored).
    cluster_size:
        Partition granularity for the partitioned/chained engines: a
        positive integer or ``"auto"``.
    max_iterations:
        Abort beyond this many frontier steps with a
        :class:`~repro.symbolic.traversal.TraversalLimitError` carrying
        the partial reached family (a raw node id on this manager).
    """
    if isinstance(engine, ImageEngine):
        if engine.relnet is not zddnet:
            raise ValueError(
                "engine instance was built for a different net; node ids "
                "in the result would not belong to zddnet's manager")
        image_engine = engine
    else:
        image_engine = make_zdd_image_engine(zddnet, engine, cluster_size)
    zdd = zddnet.zdd
    start = time.perf_counter()
    # The fixpoint roots are pinned across the per-iteration safe points
    # (garbage collection would otherwise free them mid-traversal); the
    # final reachable family stays referenced because the result hands
    # its raw node id to the caller.
    reached = zdd.ref(image_engine.initial)
    frontier = zdd.ref(image_engine.initial)
    iterations = 0
    while frontier != zdd.empty():
        if max_iterations is not None and iterations >= max_iterations:
            from .traversal import TraversalLimitError
            raise TraversalLimitError(
                f"traversal exceeded {max_iterations} iterations",
                reached=reached, frontier=frontier, iterations=iterations)
        new_reached, new_frontier = image_engine.advance(reached, frontier)
        zdd.ref(new_reached)
        zdd.ref(new_frontier)
        zdd.deref(reached)
        zdd.deref(frontier)
        reached, frontier = new_reached, new_frontier
        iterations += 1
        # Safe point: garbage collection / dynamic reordering, exactly
        # as the BDD traversals do at each iteration.
        zdd.checkpoint()
    zdd.deref(frontier)
    zdd.live_nodes()  # fold the final occupancy into the peak
    seconds = time.perf_counter() - start
    return ZddTraversalResult(
        zdd=zdd,
        reachable=reached,
        marking_count=image_engine.count_markings(reached),
        iterations=iterations,
        variable_count=len(zddnet.net.places),
        final_zdd_nodes=zdd.size(reached),
        seconds=seconds,
        engine=f"zdd/{image_engine.name}",
        peak_live_nodes=zdd.peak_live_nodes,
        reorder_count=zdd.reorder_count)
