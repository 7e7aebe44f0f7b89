"""Unified analysis facade: one spec, one session protocol, one result.

The one way to run a symbolic analysis::

    from repro.analysis import AnalysisSpec, analyze

    result = analyze(net, AnalysisSpec(scheme="improved"))
    print(result.markings, result.seconds)

* :class:`AnalysisSpec` — a validated frozen description of the whole
  configuration (scheme, backend, form, engine, reordering,
  ``k_bound``), with structured inapplicable-option
  warnings instead of ad-hoc prints.
* :class:`SolverSession` / :func:`open_session` — the protocol the
  five sessions (functional BDD, relational BDD, ZDD, k-bounded and the
  :class:`PortfolioSession` race) implement, and the router that opens
  the one a spec names.
* :class:`AnalysisResult` — the single result schema every backend
  fills, JSON round-trippable via ``to_dict``/``from_dict``.
* :func:`analyze` / :class:`Analysis` — fire-and-forget vs. reusable
  session (model-checking queries share the computed reachable set).
* :class:`CheckpointStore` / :class:`CheckpointError` — durable
  fixpoint checkpoints: the spec's ``checkpoint_path`` family of
  fields makes any backend periodically serialize its state and
  ``resume=True`` continues from the last safe point; resource budgets
  (``node_budget`` / ``deadline``) turn exhaustion into a ``partial``
  :class:`AnalysisResult` instead of a crash.
* :mod:`repro.analysis.workers` — the one process supervisor
  (:class:`WorkerHarness`, one reply pipe per worker whose end of file
  is the crash signal, respawn/retire, reaping)
  under both the portfolio race and the service pool.

There is no second fixpoint driver: the :class:`SolverSession`
subclasses are the only code that iterates images to the reachability
fixpoint.  The migration table in ``docs/api.md`` maps every removed
legacy entry point to the exact spec that reproduces its trajectory.

The checkpoint, portfolio and worker modules load on first access to
one of their names; a session imports its own net module when it is
opened.
"""

from .._lazy import lazy_exports
from ..dd import ResourceBudgetExceeded
from ..symbolic import TraversalLimitError
from .backends import SolverSession, open_session
from .facade import Analysis, analyze
from .result import SCHEMA_MINOR, SCHEMA_VERSION, AnalysisResult
from .spec import (BACKEND_FAMILIES, DEFAULT_FORM,
                   DEFAULT_PORTFOLIO_MEMBERS, DEFAULT_RELATIONAL_ENGINE,
                   FORMS, NONSEMANTIC_FIELDS, PORTFOLIO_MEMBERS,
                   RELATIONAL_ENGINES, SCHEMES, SEMANTIC_FIELDS,
                   STRATEGIES, ZDD_RELATIONAL_ENGINES, AnalysisSpec,
                   SpecError, SpecWarning)

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "checkpoint": ("CheckpointData", "CheckpointError", "CheckpointStore",
                   "net_fingerprint", "spec_fingerprint"),
    "portfolio": ("PortfolioSession", "PortfolioError", "MemberFailure",
                  "member_spec", "member_checkpoint_path"),
    "workers": ("WorkerHarness",),
})

__all__ = [
    "AnalysisSpec", "SpecError", "SpecWarning",
    "AnalysisResult", "SCHEMA_VERSION", "SCHEMA_MINOR",
    "SolverSession", "open_session",
    "PortfolioSession", "PortfolioError", "MemberFailure",
    "WorkerHarness", "member_spec", "member_checkpoint_path",
    "Analysis", "analyze",
    "CheckpointData", "CheckpointError", "CheckpointStore",
    "net_fingerprint", "spec_fingerprint",
    "ResourceBudgetExceeded", "TraversalLimitError",
    "SCHEMES", "BACKEND_FAMILIES", "FORMS", "RELATIONAL_ENGINES",
    "ZDD_RELATIONAL_ENGINES", "STRATEGIES", "DEFAULT_FORM",
    "DEFAULT_RELATIONAL_ENGINE",
    "PORTFOLIO_MEMBERS", "DEFAULT_PORTFOLIO_MEMBERS",
    "NONSEMANTIC_FIELDS", "SEMANTIC_FIELDS",
]
