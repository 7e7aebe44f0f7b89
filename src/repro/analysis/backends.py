"""Solver backends: the protocol every analysis engine plugs into.

A backend turns ``(net, spec)`` into a :class:`SolverSession` — a
stateful fixpoint computation that can be advanced one iteration at a
time (:meth:`SolverSession.step`), inspected mid-flight
(:meth:`SolverSession.stats`) or driven to completion
(:meth:`SolverSession.run`), returning the unified
:class:`~repro.analysis.result.AnalysisResult`.

Four adapters wrap the existing machinery:

* :class:`BddFunctionalBackend` — :class:`~repro.symbolic.transition.
  SymbolicNet` with the renaming-free functional image (quantify-force
  or toggle firing, BFS or chaining sweeps).
* :class:`BddRelationalBackend` — :class:`~repro.symbolic.relational.
  RelationalNet`, one monolithic image or one chained sweep per step.
* :class:`ZddBackend` — the sparse-ZDD representation, classic
  per-transition rewriting or the chained sweep over
  :class:`~repro.symbolic.zdd_relational.ZddRelationalNet`.
* :class:`KBoundedBackend` — count-bit encodings for k-bounded nets
  (:class:`~repro.symbolic.kbounded.KBoundedNet`).

Each session picks its successor function once, when it is built, from
``spec.resolved_engine``, and calls the net's image methods directly.

New backends (interval-vector sets, ...) implement the same two-method surface and register in :data:`BACKENDS`;
nothing above this layer changes.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Optional

from ..bdd.io import (dump_functions, dump_zdd_nodes, load_functions,
                      load_zdd_nodes)
from ..dd import ResourceBudgetExceeded
from ..encoding import DenseEncoding, ImprovedEncoding, SparseEncoding
from ..petri.net import PetriNet
from ..symbolic.kbounded import KBoundedNet
from ..symbolic.relational import RelationalNet
from ..symbolic.transition import SymbolicNet
from ..symbolic.partition import TraversalLimitError
from ..symbolic.zdd_relational import ZddRelationalNet
from ..symbolic.zdd_traversal import ZddNet
from .checkpoint import (CheckpointData, CheckpointError, CheckpointStore,
                         net_fingerprint, spec_fingerprint)
from .result import AnalysisResult
from .spec import AnalysisSpec, SpecError

__all__ = [
    "SolverBackend", "SolverSession", "BACKENDS", "backend_for",
    "BddFunctionalBackend", "BddRelationalBackend", "ZddBackend",
    "KBoundedBackend",
]

EncodingFactory = Callable[[PetriNet], Any]

SCHEME_CLASSES = {
    "sparse": SparseEncoding,
    "dense": DenseEncoding,
    "improved": ImprovedEncoding,
}


class SolverBackend:
    """Protocol: ``build(net, spec) -> session`` plus a ``name``.

    Stateless — one backend instance serves any number of builds.  The
    optional ``encoding_factory`` (BDD backends only) overrides the
    scheme-class lookup, e.g. to pass pre-computed SMCs.
    """

    name = "abstract"

    def build(self, net: PetriNet, spec: AnalysisSpec,
              encoding_factory: Optional[EncodingFactory] = None
              ) -> "SolverSession":
        raise NotImplementedError


class SolverSession:
    """One in-progress analysis: the fixpoint state plus its clocks.

    Subclasses set ``symbolic_net`` (the wrapped net object — a
    ``SymbolicNet``, ``RelationalNet``, ``ZddNet``/``ZddRelationalNet``
    or ``KBoundedNet``) and implement :meth:`_advance` (one fixpoint
    iteration), :meth:`at_fixpoint` and :meth:`_finish` (the final
    :class:`AnalysisResult`).  The base class owns the iteration loop,
    the timing breakdown and the shared ``stats()`` surface — plus the
    durability layer: when the spec names a ``checkpoint_path``, the
    fixpoint state is written atomically at the configured cadence
    (every iteration by default), reloaded on ``resume=True`` (falling
    back to a cold start on any :class:`CheckpointError`), and budget
    exhaustion (:class:`~repro.dd.ResourceBudgetExceeded` from the
    manager's safe points) is converted into a partial result with a
    final checkpoint on disk.  Passing ``net`` to the constructor opts
    a subclass into durability; sessions without an in-process manager
    (the portfolio) leave it ``None``.
    """

    supports_model_checking = False
    #: Which :mod:`repro.bdd.io` format the checkpoint payload uses.
    _checkpoint_kind = "bdd"

    def __init__(self, backend_name: str, spec: AnalysisSpec,
                 build_seconds: float,
                 net: Optional[PetriNet] = None) -> None:
        self.backend_name = backend_name
        self.spec = spec
        self.build_seconds = build_seconds
        self.fixpoint_seconds = 0.0
        self.iterations = 0
        self._result: Optional[AnalysisResult] = None
        self._store: Optional[CheckpointStore] = None
        self._resume_info: Optional[Dict[str, Any]] = None
        if net is not None and (spec.node_budget is not None
                                or spec.deadline is not None):
            manager = self._manager()
            if manager is not None:
                manager.set_resource_budget(
                    node_budget=spec.node_budget,
                    deadline_seconds=spec.deadline)
        if net is not None and spec.checkpoint_path is not None:
            self._spec_hash = spec_fingerprint(spec)
            self._net_hash = net_fingerprint(net)
            self._store = CheckpointStore(
                spec.checkpoint_path, every=spec.checkpoint_every,
                every_seconds=spec.checkpoint_every_seconds)
            if spec.resume:
                self._try_resume()

    # -- the stepping surface ------------------------------------------

    def step(self) -> bool:
        """Advance the fixpoint by one iteration.

        Returns ``True`` if an iteration ran, ``False`` if the fixpoint
        had already been reached (the session is then exhausted and
        :meth:`run` just packages the result).
        """
        if self.at_fixpoint():
            return False
        start = time.perf_counter()
        try:
            self._advance()
        except ResourceBudgetExceeded:
            # Every session updates its fixpoint state *before* the safe
            # point that enforces budgets, so the iteration that tripped
            # the budget is complete — count it, then let run() convert
            # the exhaustion into a partial result.
            self.fixpoint_seconds += time.perf_counter() - start
            self.iterations += 1
            raise
        self.fixpoint_seconds += time.perf_counter() - start
        self.iterations += 1
        self._maybe_checkpoint()
        return True

    def run(self, max_iterations: Optional[int] = None) -> AnalysisResult:
        """Drive the fixpoint to completion and return the result.

        ``max_iterations`` (falling back to the spec's) aborts beyond
        that many frontier steps with a
        :class:`~repro.symbolic.TraversalLimitError` carrying
        the partial state — after writing a checkpoint when one is
        configured, so the partial work survives.  Budget exhaustion
        (:class:`~repro.dd.ResourceBudgetExceeded`) does not raise: it
        returns a *partial* :class:`AnalysisResult`
        (``status="partial"``, telemetry in ``extras["budget"]``) with
        a final checkpoint on disk.  The result is cached: repeated
        calls return the same object, which is what lets a
        :class:`~repro.analysis.facade.Analysis` session hand the
        reachable set to several queries without re-traversing.
        """
        if self._result is not None:
            return self._result
        limit = max_iterations if max_iterations is not None \
            else self.spec.max_iterations
        try:
            while not self.at_fixpoint():
                if limit is not None and self.iterations >= limit:
                    self._write_checkpoint()
                    raise TraversalLimitError(
                        f"traversal exceeded {limit} iterations",
                        reached=getattr(self, "reached", None),
                        frontier=getattr(self, "frontier", None),
                        iterations=self.iterations)
                self.step()
        except ResourceBudgetExceeded as exc:
            self._write_checkpoint()
            result = self._finish()
            result.status = "partial"
            result.extras["budget"] = exc.telemetry()
            self._result = result
            return result
        self._write_checkpoint()
        self._result = self._finish()
        return self._result

    def stats(self) -> Dict[str, Any]:
        """Mid-flight snapshot: progress and memory, uniformly keyed."""
        return {
            "backend": self.backend_name,
            "engine": self.spec.engine_id,
            "iterations": self.iterations,
            "at_fixpoint": self.at_fixpoint(),
            "peak_nodes": self._peak_nodes(),
            "build_seconds": self.build_seconds,
            "fixpoint_seconds": self.fixpoint_seconds,
        }

    # -- durability ----------------------------------------------------

    def _manager(self):
        """The session's decision-diagram manager, if it has one."""
        net = getattr(self, "symbolic_net", None)
        if net is None:
            return None
        manager = getattr(net, "bdd", None)
        if manager is None:
            manager = getattr(net, "zdd", None)
        return manager

    def _dump_payload(self) -> str:
        """Serialize the fixpoint roots (BDD sessions; ZDD overrides)."""
        return dump_functions({"reached": self.reached,
                               "frontier": self.frontier})

    def _load_payload(self, payload: str) -> None:
        """Install serialized fixpoint roots (BDD sessions; ZDD
        overrides)."""
        roots = load_functions(payload, self._manager())
        self.reached = roots["reached"]
        self.frontier = roots["frontier"]

    def _maybe_checkpoint(self) -> None:
        if self._store is not None and self._store.due(self.iterations):
            self._write_checkpoint()

    def _write_checkpoint(self) -> None:
        """Save the current fixpoint state, cadence-independent.

        Called at the cadence points, on budget exhaustion, at an
        iteration-limit abort and on normal completion (so a finished
        traversal can be reloaded by a later run).  A repeat call at an
        already-saved iteration is a no-op.
        """
        store = self._store
        if store is None:
            return
        if store.writes > 0 and store._last_iteration == self.iterations:
            return
        store.save(CheckpointData(
            spec_hash=self._spec_hash,
            net_hash=self._net_hash,
            kind=self._checkpoint_kind,
            iteration=self.iterations,
            order=self._manager().order(),
            payload=self._dump_payload(),
            extra={"backend": self.backend_name,
                   "engine": self.spec.engine_id,
                   "at_fixpoint": self.at_fixpoint()}))

    def _try_resume(self) -> None:
        """Reload saved state, or fall back to a cold start.

        Every rejection path — no file, truncation, corruption, a
        spec/net/kind mismatch, a reload failure — lands in the same
        place: ``extras["resume"]`` records the fallback and the session
        starts cold.  Resume must never be less robust than not
        resuming.
        """
        path = str(self._store.path)
        try:
            data = self._store.load()
            self._store.validate(data, spec_hash=self._spec_hash,
                                 net_hash=self._net_hash,
                                 kind=self._checkpoint_kind)
            self._restore(data)
        except CheckpointError as exc:
            self._resume_info = {"status": "cold-start", "path": path,
                                 "reason": exc.reason,
                                 "error": str(exc)}
            return
        self._resume_info = {"status": "resumed", "path": path,
                             "iteration": self.iterations}

    def _restore(self, data: CheckpointData) -> None:
        """Install a validated checkpoint into the fresh manager."""
        manager = self._manager()
        if set(data.order) != set(manager.order()):
            raise CheckpointError(
                "checkpoint variable order does not name this "
                "manager's variables", reason="mismatch")
        try:
            # Restore the saved order first: the payload then rebuilds
            # on the fast hash-consing path and the resumed run
            # continues with the order the ancestor had sifted to.
            manager.set_order(data.order)
            self._load_payload(data.payload)
        except CheckpointError:
            raise
        except Exception as exc:
            raise CheckpointError(
                f"checkpoint state could not be reloaded: "
                f"{type(exc).__name__}: {exc}",
                reason="malformed") from exc
        self.iterations = data.iteration

    # -- subclass surface ----------------------------------------------

    def at_fixpoint(self) -> bool:
        raise NotImplementedError

    def _advance(self) -> None:
        raise NotImplementedError

    def _finish(self) -> AnalysisResult:
        raise NotImplementedError

    def _peak_nodes(self) -> int:
        raise NotImplementedError

    # -- shared result assembly ----------------------------------------

    def _base_result(self, markings: int, variables: int, final_nodes: int,
                     reorder_count: int, reachable,
                     extras: Dict[str, Any]) -> AnalysisResult:
        extras = dict(extras)
        extras["build_seconds"] = self.build_seconds
        extras["fixpoint_seconds"] = self.fixpoint_seconds
        if self._resume_info is not None:
            extras["resume"] = dict(self._resume_info)
        if self._store is not None:
            extras["checkpoint"] = {"path": str(self._store.path),
                                    "writes": self._store.writes}
        return AnalysisResult(
            spec=self.spec,
            engine=self.spec.engine_id,
            markings=markings,
            iterations=self.iterations,
            variables=variables,
            final_nodes=final_nodes,
            peak_nodes=self._peak_nodes(),
            seconds=self.build_seconds + self.fixpoint_seconds,
            reorder_count=reorder_count,
            reachable=reachable,
            extras=extras)


def _reject_factory(backend: str,
                    encoding_factory: Optional[EncodingFactory]) -> None:
    if encoding_factory is not None:
        raise SpecError(
            f"encoding_factory only applies to the BDD backends; the "
            f"{backend} backend builds its own representation")


def _build_encoding(net: PetriNet, spec: AnalysisSpec,
                    encoding_factory: Optional[EncodingFactory]):
    if encoding_factory is not None:
        return encoding_factory(net)
    return SCHEME_CLASSES[spec.scheme](net)


def _chained_sweep(relnet, cluster_size) -> Callable:
    """``(frontier, reached) -> swept``: one chained sweep, narrowed
    against ``reached``.  The partition is looked up on every call
    because a reorder may recluster it."""
    return lambda frontier, reached: relnet.image_chained(
        frontier, relnet.partitions(cluster_size), reached=reached)


# ----------------------------------------------------------------------
# BDD functional
# ----------------------------------------------------------------------

class _BddFunctionalSession(SolverSession):
    supports_model_checking = True

    def __init__(self, net: PetriNet, spec: AnalysisSpec,
                 encoding_factory: Optional[EncodingFactory]) -> None:
        start = time.perf_counter()
        encoding = _build_encoding(net, spec, encoding_factory)
        self.symbolic_net = SymbolicNet(
            encoding, auto_reorder=spec.reorder,
            reorder_threshold=spec.reorder_threshold)
        symnet = self.symbolic_net
        self._sweep_order = symnet.support_sorted_transitions()
        self.reached = symnet.initial
        self.frontier = symnet.initial
        super().__init__(BddFunctionalBackend.name, spec,
                         time.perf_counter() - start, net=net)

    def at_fixpoint(self) -> bool:
        return self.frontier.is_zero()

    def _advance(self) -> None:
        spec = self.spec
        symnet = self.symbolic_net
        # The previous frontier stays referenced through the safe point
        # below, which fixes what that collection can free (and so the
        # sifting trajectory and peak every benchmark row records).
        frontier = self.frontier
        if spec.strategy == "chaining":
            step = (symnet.image_toggle_into if spec.use_toggle
                    else lambda acc, s, t: acc | symnet.image(s, t))
            current = frontier
            for transition in self._sweep_order:
                current = step(current, current, transition)
            successors = current
        else:
            successors = symnet.image_all(frontier,
                                          use_toggle=spec.use_toggle)
        self.frontier = successors - self.reached
        self.reached = self.reached | successors
        # Safe point: garbage collection / dynamic reordering, as the
        # paper applies at each traversal iteration.
        symnet.bdd.checkpoint()

    def _peak_nodes(self) -> int:
        return self.symbolic_net.bdd.peak_live_nodes

    def _finish(self) -> AnalysisResult:
        symnet = self.symbolic_net
        return self._base_result(
            markings=symnet.count_markings(self.reached),
            variables=symnet.encoding.num_variables,
            final_nodes=self.reached.size(),
            reorder_count=symnet.bdd.reorder_count,
            reachable=self.reached,
            extras={"strategy": self.spec.strategy,
                    "use_toggle": self.spec.use_toggle})


class BddFunctionalBackend(SolverBackend):
    """Functional (renaming-free) image over an encoded safe net."""

    name = "bdd-functional"

    def build(self, net, spec, encoding_factory=None):
        return _BddFunctionalSession(net, spec, encoding_factory)


# ----------------------------------------------------------------------
# BDD relational
# ----------------------------------------------------------------------

class _BddRelationalSession(SolverSession):
    def __init__(self, net: PetriNet, spec: AnalysisSpec,
                 encoding_factory: Optional[EncodingFactory]) -> None:
        start = time.perf_counter()
        encoding = _build_encoding(net, spec, encoding_factory)
        relnet = self.symbolic_net = RelationalNet(
            encoding, auto_reorder=spec.reorder,
            reorder_threshold=spec.reorder_threshold)
        if spec.resolved_engine == "monolithic":
            self._successors = \
                lambda frontier, reached: relnet.image_monolithic(frontier)
        else:
            self._successors = _chained_sweep(relnet,
                                              spec.resolved_cluster_size)
        self.reached = relnet.initial
        self.frontier = relnet.initial
        super().__init__(BddRelationalBackend.name, spec,
                         time.perf_counter() - start, net=net)

    def at_fixpoint(self) -> bool:
        return self.frontier.is_zero()

    def _advance(self) -> None:
        reached = self.reached
        swept = self._successors(self.frontier, reached)
        self.reached = reached | swept
        self.frontier = swept - reached
        # Nothing but the new roots may stay referenced through the safe
        # point: what it holds decides what the collection frees, and so
        # the sifting trajectory and peak every benchmark row records.
        del reached, swept
        self.symbolic_net.bdd.checkpoint()

    def _peak_nodes(self) -> int:
        return self.symbolic_net.bdd.peak_live_nodes

    def _finish(self) -> AnalysisResult:
        relnet = self.symbolic_net
        bdd = relnet.bdd
        return self._base_result(
            markings=relnet.count_markings(self.reached),
            variables=len(relnet.current),
            final_nodes=self.reached.size(),
            reorder_count=bdd.reorder_count,
            reachable=self.reached,
            extras={"cluster_size": self.spec.resolved_cluster_size,
                    "ae_calls": bdd.ae_calls,
                    "ae_cache_hits": bdd.ae_cache_hits})


class BddRelationalBackend(SolverBackend):
    """Relational-product image over partitioned transition relations."""

    name = "bdd-relational"

    def build(self, net, spec, encoding_factory=None):
        return _BddRelationalSession(net, spec, encoding_factory)


# ----------------------------------------------------------------------
# ZDD (classic and relational)
# ----------------------------------------------------------------------

class _ZddSession(SolverSession):
    _checkpoint_kind = "zdd"

    def __init__(self, net: PetriNet, spec: AnalysisSpec) -> None:
        start = time.perf_counter()
        if spec.resolved_engine == "classic":
            znet = self.symbolic_net = ZddNet(
                net, auto_reorder=spec.reorder,
                reorder_threshold=spec.reorder_threshold)
            self._successors = \
                lambda frontier, reached: znet.image_all(frontier)
        else:
            znet = self.symbolic_net = ZddRelationalNet(
                net, auto_reorder=spec.reorder,
                reorder_threshold=spec.reorder_threshold)
            self._successors = _chained_sweep(znet,
                                              spec.resolved_cluster_size)
        self.zdd = znet.zdd
        # The fixpoint roots stay referenced for the session's lifetime:
        # the per-iteration safe point may garbage collect (the shared
        # DDManager kernel gave the ZDD manager GC and sifting).
        self.reached = self.zdd.ref(self.symbolic_net.initial)
        self.frontier = self.zdd.ref(self.symbolic_net.initial)
        super().__init__(ZddBackend.name, spec,
                         time.perf_counter() - start, net=net)

    def at_fixpoint(self) -> bool:
        return self.frontier == self.zdd.empty()

    def _advance(self) -> None:
        zdd = self.zdd
        swept = self._successors(self.frontier, self.reached)
        reached = zdd.union(self.reached, swept)
        frontier = zdd.diff(swept, self.reached)
        zdd.ref(reached)
        zdd.ref(frontier)
        zdd.deref(self.reached)
        zdd.deref(self.frontier)
        self.reached, self.frontier = reached, frontier
        # Safe point: garbage collection / dynamic reordering, exactly
        # as the BDD sessions checkpoint each iteration.
        zdd.checkpoint()

    def _dump_payload(self) -> str:
        return dump_zdd_nodes(self.zdd, {"reached": self.reached,
                                         "frontier": self.frontier})

    def _load_payload(self, payload: str) -> None:
        # Raw node ids: pin the restored roots before releasing the
        # initial-marking ones (the session refs its roots for life).
        roots = load_zdd_nodes(payload, self.zdd)
        self.zdd.ref(roots["reached"])
        self.zdd.ref(roots["frontier"])
        self.zdd.deref(self.reached)
        self.zdd.deref(self.frontier)
        self.reached = roots["reached"]
        self.frontier = roots["frontier"]

    def _peak_nodes(self) -> int:
        self.zdd.live_nodes()  # fold the current occupancy into the peak
        return self.zdd.peak_live_nodes

    def _finish(self) -> AnalysisResult:
        return self._base_result(
            markings=self.symbolic_net.count_markings(self.reached),
            variables=len(self.symbolic_net.net.places),
            final_nodes=self.zdd.size(self.reached),
            reorder_count=self.zdd.reorder_count,
            reachable=self.reached,
            extras={"total_nodes": self.zdd.total_nodes(),
                    "ae_calls": self.zdd.ae_calls,
                    "ae_cache_hits": self.zdd.ae_cache_hits})


class ZddBackend(SolverBackend):
    """Sparse-ZDD representation (Yoneda baseline plus the chained
    relational engine)."""

    name = "zdd"

    def build(self, net, spec, encoding_factory=None):
        _reject_factory(self.name, encoding_factory)
        return _ZddSession(net, spec)


# ----------------------------------------------------------------------
# k-bounded
# ----------------------------------------------------------------------

class _KBoundedSession(SolverSession):
    def __init__(self, net: PetriNet, spec: AnalysisSpec) -> None:
        start = time.perf_counter()
        self.symbolic_net = KBoundedNet(net, bound=spec.k_bound)
        self.reached = self.symbolic_net.initial
        self.frontier = self.symbolic_net.initial
        super().__init__(KBoundedBackend.name, spec,
                         time.perf_counter() - start, net=net)

    def at_fixpoint(self) -> bool:
        return self.frontier.is_zero()

    def _advance(self) -> None:
        knet = self.symbolic_net
        successors = knet.image_all(self.frontier)
        self.frontier = successors - self.reached
        self.reached = self.reached | successors
        knet.bdd.checkpoint()

    def _peak_nodes(self) -> int:
        return self.symbolic_net.bdd.peak_live_nodes

    def _finish(self) -> AnalysisResult:
        knet = self.symbolic_net
        return self._base_result(
            markings=knet.count_markings(self.reached),
            variables=len(knet.current_vars),
            final_nodes=self.reached.size(),
            reorder_count=knet.bdd.reorder_count,
            reachable=self.reached,
            extras={"bound": knet.bound, "bits_per_place": knet.bits})


class KBoundedBackend(SolverBackend):
    """Count-bit encodings for k-bounded (non-safe) nets."""

    name = "kbounded"

    def build(self, net, spec, encoding_factory=None):
        _reject_factory(self.name, encoding_factory)
        return _KBoundedSession(net, spec)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

BACKENDS = {
    BddFunctionalBackend.name: BddFunctionalBackend(),
    BddRelationalBackend.name: BddRelationalBackend(),
    ZddBackend.name: ZddBackend(),
    KBoundedBackend.name: KBoundedBackend(),
}


def backend_for(spec: AnalysisSpec) -> SolverBackend:
    """Select the backend a spec routes to."""
    if spec.backend == "portfolio":
        # The lazy import registers PortfolioBackend into BACKENDS on
        # first use (a top-level import here would be circular — the
        # portfolio builds on this module's protocol).  Checked before
        # k_bound: on a portfolio, k_bound parameterizes the kbounded
        # member rather than selecting the k-bounded backend.
        from .portfolio import PortfolioBackend
        return BACKENDS[PortfolioBackend.name]
    if spec.k_bound is not None:
        return BACKENDS[KBoundedBackend.name]
    if spec.backend == "zdd":
        return BACKENDS[ZddBackend.name]
    if spec.resolved_form == "relational":
        return BACKENDS[BddRelationalBackend.name]
    return BACKENDS[BddFunctionalBackend.name]
