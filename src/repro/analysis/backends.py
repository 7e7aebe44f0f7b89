"""Analysis sessions and the one router that opens them.

A :class:`SolverSession` is a stateful fixpoint computation over one
``(net, spec)``: it can be advanced one iteration at a time
(:meth:`SolverSession.step`), inspected mid-flight
(:meth:`SolverSession.stats`) or driven to completion
(:meth:`SolverSession.run`), returning the unified
:class:`~repro.analysis.result.AnalysisResult`.  :func:`open_session`
opens the one a spec routes to: ``bdd-functional``,
``bdd-relational``, ``zdd``, ``kbounded`` or the ``portfolio`` race
(:class:`~repro.analysis.portfolio.PortfolioSession`).

Each session picks its successor function once, when it is built, from
``spec.resolved_engine``, and calls the net's image methods directly.
The saturation schedules (the functional ``strategy`` and the relational
and ZDD ``engine``) run one kernel recursion per band of levels
(:data:`SATURATION_BANDS` steps, :meth:`SolverSession._saturation_band`).

Only the default session's modules load with this one.  Every other
session imports its net module when it is opened, and the checkpoint
store and :mod:`repro.bdd.io` load only when ``checkpoint_path`` is
set; :func:`import_backends` loads them all up front.
"""

from __future__ import annotations

import time
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Tuple)

from ..bdd import Function, false
from ..dd import ResourceBudgetExceeded
from ..encoding import DenseEncoding, ImprovedEncoding, SparseEncoding
from ..petri.net import PetriNet
from ..symbolic.transition import SymbolicNet, TraversalLimitError
from .result import AnalysisResult
from .spec import AnalysisSpec, SpecError

if TYPE_CHECKING:
    from .checkpoint import CheckpointData, CheckpointStore

__all__ = ["SolverSession", "open_session", "import_backends"]

EncodingFactory = Callable[[PetriNet], Any]

#: Steps of the saturation schedules.  Step ``k`` saturates with the
#: events whose ``Top`` lies in the deepest ``(k + 1) / SATURATION_BANDS``
#: of the current order, so the last band fires every event; each band
#: ends at an ordinary safe point.
SATURATION_BANDS = 2

SCHEME_CLASSES = {
    "sparse": SparseEncoding,
    "dense": DenseEncoding,
    "improved": ImprovedEncoding,
}


class SolverSession:
    """One in-progress analysis: the fixpoint state plus its clocks.

    Subclasses set ``symbolic_net`` (the wrapped net object — a
    ``SymbolicNet``, ``ZddNet``/``ZddRelationalNet`` or
    ``KBoundedNet``) and implement :meth:`_advance` (one fixpoint
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
    (the portfolio) leave it ``None``.  Each subclass names itself in
    ``name``, the ``backend`` key of :meth:`stats` and of its
    checkpoints.
    """

    name: str
    supports_model_checking = False
    #: Which :mod:`repro.bdd.io` format the checkpoint payload uses.
    _checkpoint_kind = "bdd"
    #: The events a saturating session fires (the net's
    #: ``saturation_events()``); ``None`` when the session sweeps.
    _events: Optional[List] = None

    def __init__(self, spec: AnalysisSpec, build_seconds: float,
                 net: Optional[PetriNet] = None) -> None:
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
            from .checkpoint import (CheckpointStore, net_fingerprint,
                                     spec_fingerprint)
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
            "backend": self.name,
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
        from ..bdd.io import dump_functions
        return dump_functions({"reached": self.reached,
                               "frontier": self.frontier})

    def _load_payload(self, payload: str) -> None:
        """Install serialized fixpoint roots (BDD sessions; ZDD
        overrides)."""
        from ..bdd.io import load_functions
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
        from .checkpoint import CheckpointData
        store.save(CheckpointData(
            spec_hash=self._spec_hash,
            net_hash=self._net_hash,
            kind=self._checkpoint_kind,
            iteration=self.iterations,
            order=self._manager().order(),
            payload=self._dump_payload(),
            extra={"backend": self.name,
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
        from .checkpoint import CheckpointError
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
        from .checkpoint import CheckpointError
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

    # -- saturation ----------------------------------------------------

    def _saturation_band(self, levels: int) -> Tuple[int, bool]:
        """``(min_top, last)`` of the band the next step saturates, over
        an order of ``levels`` levels.  Every band's result holds the
        initial states and lies inside the reachable set, so the band
        picked by the iteration count is right after a resume too."""
        band = min(self.iterations, SATURATION_BANDS - 1)
        min_top = levels * (SATURATION_BANDS - 1 - band) // SATURATION_BANDS
        return min_top, band == SATURATION_BANDS - 1

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


def _build_encoding(net: PetriNet, spec: AnalysisSpec,
                    encoding_factory: Optional[EncodingFactory]):
    if encoding_factory is not None:
        return encoding_factory(net)
    return SCHEME_CLASSES[spec.scheme](net)


# ----------------------------------------------------------------------
# BDD sessions
# ----------------------------------------------------------------------

class _BddSession(SolverSession):
    """What the BDD sessions share: ``Function`` roots that the fixpoint
    is done with once the frontier is empty."""

    def at_fixpoint(self) -> bool:
        return self.frontier.is_zero()

    def _peak_nodes(self) -> int:
        return self.symbolic_net.bdd.peak_live_nodes


class _BddEncodedSession(_BddSession):
    """An encoded safe net on a BDD, in either image form.

    Both forms run on :class:`SymbolicNet`, over the current-state
    variables only: a safe net's transition forces constants, so
    saturation fires each one in place (``BDD.saturate_post`` over its
    ``(force_t, E_t)`` event) and never reads a next-state copy.  The
    functional form saturates or, under ``strategy="bfs"``, takes one
    quantify-force or toggle image per iteration; the relational form
    always saturates.  Both answer model-checking queries.
    """

    supports_model_checking = True

    def __init__(self, net: PetriNet, spec: AnalysisSpec,
                 encoding_factory: Optional[EncodingFactory]) -> None:
        self.functional = spec.resolved_form == "functional"
        self.name = "bdd-functional" if self.functional \
            else "bdd-relational"
        start = time.perf_counter()
        encoding = _build_encoding(net, spec, encoding_factory)
        symnet = self.symbolic_net = SymbolicNet(
            encoding, auto_reorder=spec.reorder,
            reorder_threshold=spec.reorder_threshold)
        if not self.functional or spec.strategy == "saturation":
            self._events = symnet.saturation_events()
        self.reached = symnet.initial
        self.frontier = symnet.initial
        super().__init__(spec, time.perf_counter() - start, net=net)

    def _advance(self) -> None:
        bdd = self.symbolic_net.bdd
        if self._events is not None:
            # Saturate ``reached`` with the next band's events.
            # ``frontier`` tracks ``reached`` until the last band empties
            # it; that band's safe point does not sift.
            min_top, last = self._saturation_band(bdd.num_vars)
            self.reached = Function(bdd, bdd.saturate_post(
                self.reached.node, self._events, min_top))
            self.frontier = false(bdd) if last else self.reached
            bdd.checkpoint(sift=not last)
            return
        # The previous frontier stays referenced through the safe point
        # below, which fixes what that collection can free (and so the
        # sifting trajectory and peak every benchmark row records).
        frontier = self.frontier
        successors = self.symbolic_net.image_all(
            frontier, use_toggle=self.spec.use_toggle)
        self.frontier = successors - self.reached
        self.reached = self.reached | successors
        # Safe point: garbage collection / dynamic reordering, as the
        # paper applies at each traversal iteration.
        bdd.checkpoint()

    def _finish(self) -> AnalysisResult:
        symnet = self.symbolic_net
        extras = ({"strategy": self.spec.strategy,
                   "use_toggle": self.spec.use_toggle}
                  if self.functional else {})
        return self._base_result(
            markings=symnet.count_markings(self.reached),
            variables=symnet.encoding.num_variables,
            final_nodes=self.reached.size(),
            reorder_count=symnet.bdd.reorder_count,
            reachable=self.reached,
            extras=extras)


# ----------------------------------------------------------------------
# ZDD (classic, saturation and the chained sweep)
# ----------------------------------------------------------------------

class _ZddSession(SolverSession):
    """Sparse-ZDD representation: the Yoneda classic per-transition
    rewrite or saturation over a ``ZddNet``'s one element per place, or
    the chained sweep over a ``ZddRelationalNet``'s current/next
    pairs."""

    name = "zdd"
    own_representation = "the zdd backend builds its own representation"
    _checkpoint_kind = "zdd"

    def __init__(self, net: PetriNet, spec: AnalysisSpec) -> None:
        engine = spec.resolved_engine
        if engine == "chained":
            from ..symbolic.zdd_relational import \
                ZddRelationalNet as net_class
        else:
            from ..symbolic.zdd_traversal import ZddNet as net_class
        start = time.perf_counter()
        znet = self.symbolic_net = net_class(
            net, auto_reorder=spec.reorder,
            reorder_threshold=spec.reorder_threshold)
        if engine == "classic":
            self._successors = \
                lambda frontier, reached: znet.image_all(frontier)
        elif engine == "saturation":
            self._events = znet.saturation_events()
        else:
            self._successors = znet.image_chained
        self.zdd = znet.zdd
        # The fixpoint roots stay referenced for the session's lifetime:
        # the per-iteration safe point may garbage collect (the shared
        # DDManager kernel gave the ZDD manager GC and sifting).
        self.reached = self.zdd.ref(self.symbolic_net.initial)
        self.frontier = self.zdd.ref(self.symbolic_net.initial)
        super().__init__(spec, time.perf_counter() - start, net=net)

    def at_fixpoint(self) -> bool:
        return self.frontier == self.zdd.empty()

    def _advance(self) -> None:
        zdd = self.zdd
        last = False
        if self._events is not None:
            min_top, last = self._saturation_band(zdd.num_vars)
            reached = zdd.saturate_post(self.reached, self._events,
                                        min_top)
            frontier = zdd.empty() if last else reached
        else:
            swept = self._successors(self.frontier, self.reached)
            reached = zdd.union(self.reached, swept)
            frontier = zdd.diff(swept, self.reached)
        zdd.ref(reached)
        zdd.ref(frontier)
        zdd.deref(self.reached)
        zdd.deref(self.frontier)
        self.reached, self.frontier = reached, frontier
        # Safe point: garbage collection / dynamic reordering, exactly
        # as the BDD sessions checkpoint each iteration (no sift after
        # the last saturation band).
        zdd.checkpoint(sift=not last)

    def _dump_payload(self) -> str:
        from ..bdd.io import dump_zdd_nodes
        return dump_zdd_nodes(self.zdd, {"reached": self.reached,
                                         "frontier": self.frontier})

    def _load_payload(self, payload: str) -> None:
        # Raw node ids: pin the restored roots before releasing the
        # initial-marking ones (the session refs its roots for life).
        from ..bdd.io import load_zdd_nodes
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


# ----------------------------------------------------------------------
# k-bounded
# ----------------------------------------------------------------------

class _KBoundedSession(_BddSession):
    """Count-bit encodings for k-bounded (non-safe) nets."""

    name = "kbounded"
    own_representation = "the kbounded backend builds its own representation"

    def __init__(self, net: PetriNet, spec: AnalysisSpec) -> None:
        from ..symbolic.kbounded import KBoundedNet
        start = time.perf_counter()
        self.symbolic_net = KBoundedNet(net, bound=spec.k_bound)
        self.reached = self.symbolic_net.initial
        self.frontier = self.symbolic_net.initial
        super().__init__(spec, time.perf_counter() - start, net=net)

    def _advance(self) -> None:
        knet = self.symbolic_net
        successors = knet.image_all(self.frontier)
        self.frontier = successors - self.reached
        self.reached = self.reached | successors
        knet.bdd.checkpoint()

    def _finish(self) -> AnalysisResult:
        knet = self.symbolic_net
        return self._base_result(
            markings=knet.count_markings(self.reached),
            variables=len(knet.current_vars),
            final_nodes=self.reached.size(),
            reorder_count=knet.bdd.reorder_count,
            reachable=self.reached,
            extras={"bound": knet.bound, "bits_per_place": knet.bits})


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------

def open_session(net: PetriNet, spec: AnalysisSpec,
                 encoding_factory: Optional[EncodingFactory] = None
                 ) -> SolverSession:
    """Open the session a spec routes to.

    ``encoding_factory`` (``net -> Encoding``, e.g. pre-computed SMCs)
    overrides the BDD sessions' scheme-class lookup; the others build
    their own representation and refuse it with a :class:`SpecError`.
    """
    if spec.backend == "portfolio":
        # Imported lazily (the portfolio builds on this module), and
        # first: there k_bound parameterizes the kbounded member.
        from .portfolio import PortfolioSession
        session_class = PortfolioSession
    elif spec.k_bound is not None:
        session_class = _KBoundedSession
    elif spec.backend == "zdd":
        session_class = _ZddSession
    else:
        return _BddEncodedSession(net, spec, encoding_factory)
    if encoding_factory is not None:
        raise SpecError(f"encoding_factory only applies to the BDD "
                        f"backends; {session_class.own_representation}")
    return session_class(net, spec)


def import_backends() -> None:
    """Import every module a session or a checkpoint loads on first use.

    A process that forks workers calls this before it forks, so no
    worker compiles a module in the middle of a request.
    """
    from ..bdd import io  # noqa: F401
    from ..symbolic import (kbounded, zdd_relational,  # noqa: F401
                            zdd_traversal)
    from . import checkpoint, portfolio  # noqa: F401
