"""The one way in: ``analyze(net, spec)`` and the ``Analysis`` session.

:func:`analyze` is the fire-and-forget form — open the session, run
the fixpoint, return the unified
:class:`~repro.analysis.result.AnalysisResult`.  :class:`Analysis` is
the session form: the session stays alive after ``run()``, so
the reachable set is computed once and reused across model-checking
queries, manual ``step()`` driving or ``stats()`` inspection.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..petri.net import PetriNet
from ..symbolic.checker import ModelChecker
from .backends import EncodingFactory, SolverSession, open_session
from .result import AnalysisResult
from .spec import AnalysisSpec, SpecError

__all__ = ["Analysis", "analyze"]


class Analysis:
    """A reusable analysis session over one net and one spec.

    Parameters
    ----------
    net:
        The :class:`~repro.petri.net.PetriNet` to analyse.
    spec:
        An :class:`~repro.analysis.spec.AnalysisSpec`; omitted fields
        may instead be passed as keyword overrides
        (``Analysis(net, scheme="sparse")``).
    encoding_factory:
        Optional ``net -> Encoding`` override for the BDD backends
        (e.g. to reuse pre-computed SMCs); rejected by the ZDD,
        k-bounded and portfolio backends, which build their own
        representation.

    The session is opened eagerly (construction time lands in
    the result's ``extras["build_seconds"]``); the fixpoint runs on the
    first :meth:`run` and is cached afterwards.
    """

    def __init__(self, net: PetriNet, spec: Optional[AnalysisSpec] = None,
                 encoding_factory: Optional[EncodingFactory] = None,
                 **overrides) -> None:
        if spec is None:
            spec = AnalysisSpec(**overrides)
        elif overrides:
            spec = spec.replace(**overrides)
        self.net = net
        self.spec = spec
        self.session: SolverSession = open_session(
            net, spec, encoding_factory=encoding_factory)

    # ------------------------------------------------------------------

    def run(self, max_iterations: Optional[int] = None) -> AnalysisResult:
        """Drive the fixpoint to completion (cached)."""
        return self.session.run(max_iterations=max_iterations)

    def step(self) -> bool:
        """Advance one iteration; ``False`` once at the fixpoint."""
        return self.session.step()

    def stats(self) -> Dict[str, Any]:
        """Mid-flight progress/memory snapshot from the session."""
        return self.session.stats()

    @property
    def result(self) -> AnalysisResult:
        """The analysis result, running the fixpoint if needed."""
        return self.run()

    @property
    def reachable(self):
        """The reachable state set (running the fixpoint if needed)."""
        return self.run().reachable

    @property
    def symbolic_net(self):
        """The backend's wrapped net object (``SymbolicNet`` for both
        BDD forms, ``ZddNet``/``ZddRelationalNet`` or ``KBoundedNet``)
        for backend-specific queries."""
        return self.session.symbolic_net

    def checker(self):
        """A :class:`~repro.symbolic.checker.ModelChecker` over the
        already-computed reachable set.

        Both BDD forms carry the place/enabling functions and the
        saturation events the checker needs; any other session (ZDD,
        k-bounded, a portfolio race run in worker processes) raises
        :class:`SpecError`.
        """
        if not self.session.supports_model_checking:
            raise SpecError(
                f"model checking needs a BDD backend on an encoded safe "
                f"net (form 'functional' or 'relational'); this "
                f"analysis runs {self.spec.engine_id}")
        return ModelChecker(self.session.symbolic_net,
                            reachable=self.reachable)


def analyze(net: PetriNet, spec: Optional[AnalysisSpec] = None,
            encoding_factory: Optional[EncodingFactory] = None,
            **overrides) -> AnalysisResult:
    """Run one symbolic analysis and return its unified result.

    The convenience form of :class:`Analysis` —
    ``analyze(net, AnalysisSpec(backend="zdd"))`` or, with keyword
    overrides, ``analyze(net, scheme="sparse", reorder=False)``.
    """
    return Analysis(net, spec, encoding_factory=encoding_factory,
                    **overrides).run()
