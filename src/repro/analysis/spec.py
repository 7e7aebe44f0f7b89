"""The declarative analysis specification: one object, every knob.

An :class:`AnalysisSpec` captures everything the solver backends need to
run a symbolic reachability analysis — encoding scheme, backend family
(``bdd`` | ``zdd``), image form (``functional`` | ``relational``), the
image engine, reordering options and the ``k_bound`` extension — in a
single validated frozen dataclass.  The CLI, the experiment runner and
the table scripts all build one of these instead of re-wiring keyword
arguments per entry point.

Two kinds of misconfiguration are distinguished:

* **Errors** (:class:`SpecError`) — combinations that cannot mean
  anything: an unknown scheme, a relational engine with the functional
  form, ``k_bound`` on the ZDD backend.  Raised at construction.
* **Warnings** (:class:`SpecWarning`) — options that are merely
  *inapplicable* to the selected backend (a traversal strategy for a
  relational engine, a scheme for the ZDD's direct token-set encoding).
  These are returned as structured objects from :meth:`
  AnalysisSpec.warnings` — never printed here — so callers decide how
  to surface them (the CLI writes them to stderr; tests assert on
  them).  A warning fires only when the option was moved off its
  default: defaults are always silently correct.

The defaults below are the *single* definition for the whole project —
the CLI, ``experiments/runner.py`` and the service all resolve
through them, which is what keeps the engine defaults from skewing
apart again (``tests/analysis/test_spec.py`` pins this down).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "AnalysisSpec", "SpecError", "SpecWarning",
    "SCHEMES", "BACKEND_FAMILIES", "FORMS", "RELATIONAL_ENGINES",
    "ZDD_RELATIONAL_ENGINES", "STRATEGIES",
    "DEFAULT_FORM", "DEFAULT_RELATIONAL_ENGINE",
    "DEFAULT_REORDER_THRESHOLD",
    "PORTFOLIO_MEMBERS", "DEFAULT_PORTFOLIO_MEMBERS",
    "NONSEMANTIC_FIELDS", "SEMANTIC_FIELDS",
]

SCHEMES = ("sparse", "dense", "improved")
BACKEND_FAMILIES = ("bdd", "zdd", "portfolio")
FORMS = ("functional", "relational")
# The relational engine catalogues.  ``saturation`` fires each
# transition's ``(force, enabling)`` pair in place, one kernel recursion
# per band of levels, and is the BDD relational form's only engine.  The
# ZDD backend also offers ``chained``, the Eq. 3 relational sweep.
RELATIONAL_ENGINES = ("saturation",)
ZDD_RELATIONAL_ENGINES = ("chained", "saturation")
STRATEGIES = ("bfs", "chaining", "saturation")

# Member catalog for the portfolio backend: each id names one
# heterogeneous solver configuration the race can spawn (the spec
# builders live in ``repro.analysis.portfolio``).  Validation happens
# here so a bad ``portfolio_members`` fails at spec construction, not
# mid-race.
PORTFOLIO_MEMBERS = ("bdd-functional", "zdd-chained", "kbounded")
# No single engine wins everywhere (the point of the race): the paper's
# functional fixpoint, the ZDD relational sweep and the count-bit
# extension cover each other's weak instances.
DEFAULT_PORTFOLIO_MEMBERS = ("bdd-functional", "zdd-chained", "kbounded")

# The one place the project's engine defaults live.  ``bdd`` defaults to
# the paper's functional form; ``zdd`` to the relational form.  Both
# relational backends saturate by default, as the functional form does
# (ROADMAP: seconds and peak nodes against chained).
DEFAULT_FORM: Dict[str, str] = {"bdd": "functional", "zdd": "relational"}
DEFAULT_RELATIONAL_ENGINE = "saturation"
DEFAULT_REORDER_THRESHOLD = 2_000

# Catalogue names retired because no benchmark row needs them: the
# ``partitioned`` engine lost every row on the structural variable order,
# and the BDD ``monolithic`` and ``chained`` sweeps lost every row to
# saturation (docs/encodings.md has the numbers); no default, workload,
# experiment or benchmark raced the ``bdd-monolithic`` and ``zdd-classic``
# members.  Per field, each is mapped to its replacement: naming one is a
# SpecError that says so, never a bare "unknown" that reads like a typo.
# An engine the ZDD backend still offers (``chained``) is retired on the
# BDD backend only.
RETIRED_NAMES = {"engine": {"partitioned": "saturation",
                            "monolithic": "saturation",
                            "chained": "saturation"},
                 "portfolio member": {"bdd-partitioned": "bdd-functional",
                                      "bdd-monolithic": "bdd-functional",
                                      "bdd-chained": "bdd-functional",
                                      "zdd-classic": "zdd-chained"}}
# Retired semantic fields, at the one value that still loads, each with
# the advice its SpecError gives.  They stay in semantic_fields() so
# fingerprints written before the retirement keep matching; a stored
# spec that set one elsewhere describes a run this build cannot
# reproduce and fails to load.
RETIRED_FIELD_DEFAULTS = {
    "simplify_frontier": (
        False, "it won no benchmark row on the structural variable "
               "order; run the default saturation engine instead"),
    "chain_order": (
        "support", "the chaining sweep always fires transitions in "
                   "support-sorted order; drop the field"),
    "cluster_size": (
        None, "the chained sweep always applies one sparse relation per "
              "transition, in support order; drop the field"),
}

# Fields that do not change the analysis trajectory: the durability and
# budget knobs, plus ``max_iterations`` (bounds how far a run gets, not
# the states it visits).  :meth:`AnalysisSpec.semantic_fingerprint` —
# the one identity both the checkpoint headers and the
# ``repro.service`` result cache key on — excludes them, so a
# ``resume=True`` run, or one retrying with a larger iteration
# allowance or different budget, still matches the checkpoint/cache
# entry its ancestor wrote.  Every spec
# field must appear in exactly one of the two tuples below;
# ``tests/analysis/test_spec.py`` enumerates the full field list so a
# new field cannot silently fracture (or silently merge) cache and
# checkpoint identity.
NONSEMANTIC_FIELDS = (
    "checkpoint_path", "checkpoint_every", "checkpoint_every_seconds",
    "resume", "node_budget", "deadline", "max_iterations",
    "timeout", "member_timeout",
)
# The complement: every field that *does* pick the trajectory (and so
# the result).  Declared explicitly rather than computed so adding a
# spec field forces a conscious classification decision here.
SEMANTIC_FIELDS = (
    "scheme", "backend", "form", "engine", "strategy",
    "use_toggle", "reorder", "reorder_threshold",
    "k_bound", "portfolio_members",
)


class SpecError(ValueError):
    """An :class:`AnalysisSpec` field combination that cannot be run."""


@dataclass(frozen=True)
class SpecWarning:
    """One inapplicable-but-harmless option on a spec.

    ``option`` is the spec field name, ``value`` what it was set to and
    ``reason`` why the selected backend ignores it.  The CLI renders
    these to stderr; they replace the old free-text ``print`` blocks.
    """

    option: str
    value: Any
    reason: str

    def render(self) -> str:
        """Human-readable one-liner (what the CLI prints)."""
        return f"{self.option}={self.value!r} ignored: {self.reason}"


@dataclass(frozen=True)
class AnalysisSpec:
    """A validated, frozen description of one symbolic analysis.

    Parameters
    ----------
    scheme:
        Marking encoding for the BDD backends: ``sparse`` (one variable
        per place), ``dense`` (covering-based SMC codes) or ``improved``
        (default; Section 4.4 codes).  The ZDD backend encodes token
        sets directly and ignores it.
    backend:
        Decision-diagram family: ``bdd`` (default) or ``zdd`` — or
        ``portfolio``, which races several heterogeneous member
        configurations in worker processes and answers with the first
        verdict (:class:`~repro.analysis.portfolio.PortfolioSession`).
    form:
        Image computation form — ``functional`` (renaming-free
        operators; the ZDD's per-transition classic rewrite) or
        ``relational`` (partitioned transition relations).  ``None``
        resolves per backend through :data:`DEFAULT_FORM`.
    engine:
        Relational engine: ``saturation`` (two kernel recursions, one
        per band of levels, as the functional ``strategy`` runs), the
        BDD backend's only one; the ZDD backend also runs ``chained``.
        Engines that lost every benchmarked row were retired
        (:data:`RETIRED_NAMES`).  ``None`` resolves to
        :data:`DEFAULT_RELATIONAL_ENGINE` for the relational form, and
        both share one fingerprint; must be ``None`` with the
        functional form.
    strategy, use_toggle:
        Functional-BDD traversal knobs, run by the ``bdd-functional``
        session (:func:`~repro.analysis.backends.open_session`):
        ``strategy="saturation"`` fires every transition at the top
        level of its support until the node stops growing, one kernel
        recursion per band of levels (two steps);
        ``"bfs"`` takes one synchronous image per iteration,
        ``"chaining"`` feeds each transition's successors to the next
        one within the sweep, in support-sorted order.  ``use_toggle``
        makes the BFS and chaining sweeps fire with the Section 5.2
        toggle operator instead of quantify-and-force; saturation fires
        by force events, so turning it off there only warns.  Together
        with ``reorder`` they pick the fixpoint trajectory (iteration
        count, peak nodes).  Inapplicable elsewhere (structured warning
        when moved off the default).
    reorder, reorder_threshold:
        Dynamic variable reordering at traversal safe points.  Applies
        to the BDD backends *and*, since the managers share the
        ``repro.dd`` kernel, to the ZDD backend (pair-grouped sifting
        for the relational engines, per-element sifting for classic).
    k_bound:
        When set (``k >= 1``), analyse the net as ``k``-bounded with
        count-bit encodings (the paper's unsafe-net extension) in the
        ``kbounded`` session.  The engine
        keeps a fixed interleaved count-bit order; besides
        ``max_iterations``, every other option is inapplicable.
    max_iterations:
        Abort the fixpoint beyond this many steps with
        :class:`~repro.symbolic.TraversalLimitError` (a
        ``RuntimeError`` subclass carrying the partial state).
    portfolio_members:
        Member ids the portfolio backend races (each one of
        :data:`PORTFOLIO_MEMBERS`).  ``None`` resolves to
        :data:`DEFAULT_PORTFOLIO_MEMBERS`; setting it on any other
        backend is a :class:`SpecError`.  Picking one engine is what
        the single-engine backends are for, so a one-member portfolio
        is a :class:`SpecWarning`.
    timeout, member_timeout:
        Wall-clock budgets (seconds) for the portfolio race: ``timeout``
        bounds the whole race, ``member_timeout`` each worker.  They
        require the portfolio's worker processes (an in-process
        fixpoint cannot be preempted), so setting either on another
        backend is a :class:`SpecError`; the serial degraded mode
        cannot enforce them and reports the members it let run.
    checkpoint_path, checkpoint_every, checkpoint_every_seconds:
        Durability: when ``checkpoint_path`` is set, the fixpoint state
        (reached + frontier, variable order, iteration count, spec/net
        hashes) is written atomically to that path every
        ``checkpoint_every`` iterations and/or
        ``checkpoint_every_seconds`` seconds (both unset: every
        iteration).  On the portfolio backend each member checkpoints
        to ``<checkpoint_path>.<member>`` and a crashed or timed-out
        member holding a checkpoint is restarted from it with bounded
        retries.  Cadence knobs without a path are a
        :class:`SpecError`.
    resume:
        Start from the checkpoint at ``checkpoint_path`` when one
        exists and its spec/net hashes match; otherwise (missing,
        corrupt, truncated or mismatched — any
        :class:`~repro.analysis.checkpoint.CheckpointError`) fall back
        to a cold start, recorded in ``extras["resume"]``.  Requires
        ``checkpoint_path``.
    node_budget, deadline:
        In-process resource budgets enforced at the manager's safe
        points: a live-node cap (force GC, then force a reorder pass,
        then give up — the degradation ladder) and a wall-clock
        allowance in seconds measured from session build.  Exhaustion
        raises :class:`~repro.dd.ResourceBudgetExceeded` inside the
        engine; the session converts it into a *partial*
        :class:`~repro.analysis.result.AnalysisResult`
        (``status="partial"``, telemetry in ``extras["budget"]``) and,
        when checkpointing, writes a final checkpoint first.  The
        portfolio backend rejects them (its members are whole worker
        processes — use ``timeout``/``member_timeout`` there).
    """

    scheme: str = "improved"
    backend: str = "bdd"
    form: Optional[str] = None
    engine: Optional[str] = None
    strategy: str = "saturation"
    use_toggle: bool = True
    reorder: bool = True
    reorder_threshold: int = DEFAULT_REORDER_THRESHOLD
    k_bound: Optional[int] = None
    max_iterations: Optional[int] = None
    portfolio_members: Optional[Tuple[str, ...]] = None
    timeout: Optional[float] = None
    member_timeout: Optional[float] = None
    checkpoint_path: Optional[str] = None
    checkpoint_every: Optional[int] = None
    checkpoint_every_seconds: Optional[float] = None
    resume: bool = False
    node_budget: Optional[int] = None
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        # JSON round trips hand lists back; normalize before validation
        # so from_dict(to_dict(spec)) == spec.
        if isinstance(self.portfolio_members, list):
            object.__setattr__(self, "portfolio_members",
                               tuple(self.portfolio_members))
        self._validate()

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------

    @property
    def resolved_form(self) -> str:
        """The image form, with the per-backend default applied."""
        if self.backend == "portfolio":
            return "portfolio"
        if self.k_bound is not None:
            return "relational"
        return self.form if self.form is not None \
            else DEFAULT_FORM[self.backend]

    @property
    def resolved_engine(self) -> str:
        """The image engine actually run.

        ``functional`` for the functional BDD path, ``classic`` for the
        functional ZDD path, one of :data:`RELATIONAL_ENGINES` (or
        :data:`ZDD_RELATIONAL_ENGINES`) for the relational form,
        ``kbounded`` under a ``k_bound``, ``portfolio`` for the racing
        backend (members resolve their own engines).
        """
        if self.backend == "portfolio":
            return "portfolio"
        if self.k_bound is not None:
            return "kbounded"
        if self.resolved_form == "functional":
            return "classic" if self.backend == "zdd" else "functional"
        return self.engine if self.engine is not None \
            else DEFAULT_RELATIONAL_ENGINE

    @property
    def resolved_members(self) -> Tuple[str, ...]:
        """The portfolio membership, defaulted when unset."""
        return self.portfolio_members if self.portfolio_members is not None \
            else DEFAULT_PORTFOLIO_MEMBERS

    @property
    def engine_id(self) -> str:
        """The result's engine identifier, e.g. ``zdd/chained``."""
        if self.backend == "portfolio":
            return "portfolio"
        if self.k_bound is not None:
            return f"kbounded/{self.k_bound}"
        if self.backend == "zdd":
            return f"zdd/{self.resolved_engine}"
        if self.resolved_form == "functional":
            return "functional"
        return f"relational/{self.resolved_engine}"

    # ------------------------------------------------------------------
    # Validation (errors) and applicability (warnings)
    # ------------------------------------------------------------------

    def _validate(self) -> None:
        def require(value, allowed, label):
            if value in allowed:
                return
            replacement = RETIRED_NAMES.get(label, {}).get(value)
            if replacement is not None:
                raise SpecError(
                    f"{label} {value!r} is retired: no benchmark row "
                    f"needs it (docs/api.md); use {replacement!r}")
            raise SpecError(f"unknown {label} {value!r}; expected one "
                            f"of {allowed}")

        require(self.scheme, SCHEMES, "scheme")
        require(self.backend, BACKEND_FAMILIES, "backend")
        if self.form is not None:
            require(self.form, FORMS, "form")
        require(self.strategy, STRATEGIES, "strategy")
        if self.backend == "portfolio":
            if self.form is not None or self.engine is not None:
                raise SpecError(
                    "the portfolio backend races its members' engines; "
                    "to force a single engine, run that backend "
                    "directly instead of setting form/engine on a "
                    "portfolio")
        if self.portfolio_members is not None:
            if self.backend != "portfolio":
                raise SpecError(
                    f"portfolio_members only applies to the portfolio "
                    f"backend, not backend={self.backend!r}")
            if not self.portfolio_members:
                raise SpecError("a portfolio needs at least one member")
            seen = set()
            for member in self.portfolio_members:
                require(member, PORTFOLIO_MEMBERS, "portfolio member")
                if member in seen:
                    raise SpecError(
                        f"duplicate portfolio member {member!r}")
                seen.add(member)
        for option in ("timeout", "member_timeout"):
            value = getattr(self, option)
            if value is None:
                continue
            if self.backend != "portfolio":
                raise SpecError(
                    f"{option} needs the portfolio's worker processes "
                    f"(an in-process fixpoint cannot be preempted); "
                    f"backend={self.backend!r} cannot enforce it")
            if value <= 0:
                raise SpecError(
                    f"{option} must be positive, got {value}")
        if self.engine is not None:
            require(self.engine, ZDD_RELATIONAL_ENGINES
                    if self.backend == "zdd" else RELATIONAL_ENGINES,
                    "engine")
            if self.resolved_form == "functional":
                raise SpecError(
                    f"engine={self.engine!r} is a relational image "
                    f"engine; it requires form='relational' (got "
                    f"form={self.form!r})")
        if self.reorder_threshold < 1:
            raise SpecError(
                f"reorder_threshold must be positive, got "
                f"{self.reorder_threshold}")
        if self.k_bound is not None:
            if self.k_bound < 1:
                raise SpecError(
                    f"k_bound must be at least one, got {self.k_bound}")
            if self.backend == "zdd":
                raise SpecError(
                    "k_bound is only supported on the BDD backend; the "
                    "sparse-ZDD representation is tied to safe nets "
                    "(one element per place)")
            if self.form is not None or self.engine is not None:
                raise SpecError(
                    "k_bound selects its own count-bit relational "
                    "engine; leave form and engine unset")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise SpecError(
                f"max_iterations must be positive, got "
                f"{self.max_iterations}")
        if self.checkpoint_path is not None and not self.checkpoint_path:
            raise SpecError("checkpoint_path must not be empty")
        for option in ("checkpoint_every", "checkpoint_every_seconds"):
            value = getattr(self, option)
            if value is None:
                continue
            if self.checkpoint_path is None:
                raise SpecError(
                    f"{option} is a checkpoint cadence; it needs "
                    f"checkpoint_path to be set")
            if value < 1 if option == "checkpoint_every" else value <= 0:
                raise SpecError(
                    f"{option} must be positive, got {value}")
        if self.resume and self.checkpoint_path is None:
            raise SpecError(
                "resume needs checkpoint_path: there is nothing to "
                "resume from")
        for option in ("node_budget", "deadline"):
            value = getattr(self, option)
            if value is None:
                continue
            if self.backend == "portfolio":
                raise SpecError(
                    f"{option} guards an in-process manager; portfolio "
                    f"members are whole worker processes — bound them "
                    f"with timeout/member_timeout instead")
            if value < 1 if option == "node_budget" else value <= 0:
                raise SpecError(
                    f"{option} must be positive, got {value}")

    def warnings(self) -> Tuple[SpecWarning, ...]:
        """Structured inapplicable-option warnings for this spec.

        Only options moved off their defaults warn; a default spec is
        silent on every backend.
        """
        collected = []

        def warn(option: str, reason: str) -> None:
            collected.append(SpecWarning(option, getattr(self, option),
                                         reason))

        functional_bdd = (self.backend == "bdd" and self.k_bound is None
                          and self.resolved_form == "functional")
        # The portfolio threads the functional knobs through to its
        # bdd-functional member, so they are only inapplicable when no
        # such member races.
        if self.backend == "portfolio":
            functional_bdd = "bdd-functional" in self.resolved_members
        if not functional_bdd:
            target = (f"k_bound={self.k_bound}" if self.k_bound is not None
                      else self.engine_id)
            default = self.__dataclass_fields__["strategy"].default
            if self.strategy != default:
                warn("strategy", f"the {target} engine uses its own "
                                 f"sweep order")
            if not self.use_toggle:
                warn("use_toggle", f"toggle firing only applies to the "
                                   f"functional BDD image, not "
                                   f"{target}")
        elif self.strategy == "saturation" and not self.use_toggle:
            warn("use_toggle", "saturation fires by force events; the "
                               "toggle/quantify-force choice does not "
                               "apply")
        if self.backend == "zdd":
            if self.scheme != "improved":
                warn("scheme", "the ZDD backend encodes token sets "
                               "directly (one element per place); "
                               "encoding schemes do not apply")
        if self.backend == "portfolio":
            members = self.resolved_members
            if len(members) == 1:
                warn("portfolio_members",
                     f"a one-member portfolio races nobody; run the "
                     f"{members[0]} configuration directly")
            if (self.scheme != "improved"
                    and not any(m.startswith("bdd-") for m in members)):
                warn("scheme", "no BDD member in the portfolio consumes "
                               "an encoding scheme")
            if self.k_bound is not None and "kbounded" not in members:
                warn("k_bound", "no kbounded member in the portfolio "
                                "to apply the bound to")
        if self.k_bound is not None and self.backend != "portfolio":
            if self.scheme != "improved":
                warn("scheme", "the k-bounded engine uses count-bit "
                               "encodings, not the safe-net schemes")
            if not self.reorder:
                warn("reorder", "the k-bounded engine keeps the fixed "
                                "interleaved count-bit order; there is "
                                "no reordering to disable")
        return tuple(collected)

    # ------------------------------------------------------------------
    # Construction / serialization
    # ------------------------------------------------------------------

    @classmethod
    def from_args(cls, args) -> "AnalysisSpec":
        """Build a spec from a CLI ``argparse`` namespace.

        Recognized attributes (all optional — absent ones keep the spec
        default): ``scheme``, ``engine`` (the backend family flag),
        ``image`` (``functional`` or a relational engine name; ``None``
        resolves per backend), ``strategy``, ``no_reorder``,
        ``k_bound``,
        ``portfolio_members`` (comma-separated member
        ids), ``timeout``, ``member_timeout``, ``checkpoint`` (the
        checkpoint path), ``checkpoint_every``, ``resume``,
        ``node_budget``, ``deadline``.
        """
        values: Dict[str, Any] = {}
        if getattr(args, "scheme", None) is not None:
            values["scheme"] = args.scheme
        if getattr(args, "engine", None) is not None:
            values["backend"] = args.engine
        image = getattr(args, "image", None)
        if image == "functional":
            values["form"] = "functional"
        elif image is not None:
            values["form"] = "relational"
            values["engine"] = image
        if getattr(args, "strategy", None) is not None:
            values["strategy"] = args.strategy
        if getattr(args, "no_reorder", False):
            values["reorder"] = False
        if getattr(args, "k_bound", None) is not None:
            values["k_bound"] = args.k_bound
        members = getattr(args, "portfolio_members", None)
        if members is not None:
            values["portfolio_members"] = tuple(
                m.strip() for m in members.split(",") if m.strip())
        if getattr(args, "timeout", None) is not None:
            values["timeout"] = args.timeout
        if getattr(args, "member_timeout", None) is not None:
            values["member_timeout"] = args.member_timeout
        if getattr(args, "checkpoint", None) is not None:
            values["checkpoint_path"] = args.checkpoint
        if getattr(args, "checkpoint_every", None) is not None:
            values["checkpoint_every"] = args.checkpoint_every
        if getattr(args, "resume", False):
            values["resume"] = True
        if getattr(args, "node_budget", None) is not None:
            values["node_budget"] = args.node_budget
        if getattr(args, "deadline", None) is not None:
            values["deadline"] = args.deadline
        return cls(**values)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable field dump (round-trips via
        :meth:`from_dict`)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def semantic_fields(self) -> Dict[str, Any]:
        """The fields that pick the analysis trajectory.

        The :meth:`to_dict` dump minus :data:`NONSEMANTIC_FIELDS` — the
        durability and budget knobs, which change how a run is
        supervised but never which states it visits — plus
        :data:`RETIRED_FIELD_DEFAULTS`, so retiring a field never moves
        a fingerprint.  The relational form records its resolved
        engine and the portfolio its resolved roster, so ``None`` shares
        the identity of what it runs, and moving
        :data:`DEFAULT_RELATIONAL_ENGINE` or
        :data:`DEFAULT_PORTFOLIO_MEMBERS` moves the default key.
        """
        semantic = {key: value for key, value in self.to_dict().items()
                    if key not in NONSEMANTIC_FIELDS}
        if self.backend == "portfolio":
            semantic["portfolio_members"] = self.resolved_members
        elif self.k_bound is None and self.resolved_form == "relational":
            semantic["engine"] = self.resolved_engine
        semantic.update((name, default) for name, (default, _)
                        in RETIRED_FIELD_DEFAULTS.items())
        return semantic

    def semantic_fingerprint(self) -> str:
        """Digest of :meth:`semantic_fields` — the spec's identity.

        This is the *single* definition of "the same analysis" for
        every layer that needs one: checkpoint headers
        (:func:`repro.analysis.checkpoint.spec_fingerprint` delegates
        here), the ``repro.service`` result cache key, and its
        in-flight request dedupe.  Two specs that differ only in
        non-semantic fields (checkpoint paths, budgets,
        ``max_iterations``) share a fingerprint by construction.
        """
        import hashlib
        blob = json.dumps(self.semantic_fields(), sort_keys=True,
                          default=list)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    @classmethod
    def from_dict(cls, data: Dict[str, Any],
                  ignore_unknown: bool = False) -> "AnalysisSpec":
        """Rebuild a spec from :meth:`to_dict` output.

        ``ignore_unknown=True`` drops (and logs) fields this build does
        not know instead of raising — the forward-compatibility mode
        :meth:`repro.analysis.result.AnalysisResult.from_dict` uses so
        a cached result written by a newer build, whose spec may carry
        new fields, does not poison an older reader.

        A retired field (:data:`RETIRED_FIELD_DEFAULTS`) loads only at
        its old default; any other value is a :class:`SpecError` in
        both modes, because the loaded spec would claim the wrong run.
        """
        data = dict(data)
        for name, (default, advice) in RETIRED_FIELD_DEFAULTS.items():
            if name in data and data.pop(name) != default:
                raise SpecError(
                    f"spec field {name!r} is retired, and only "
                    f"{name}={default!r} still loads: {advice}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            if not ignore_unknown:
                raise SpecError(f"unknown spec fields: {sorted(unknown)}")
            import logging
            logging.getLogger(__name__).warning(
                "ignoring unknown spec fields %s (written by a newer "
                "build?)", sorted(unknown))
            data = {key: value for key, value in data.items()
                    if key in known}
        return cls(**data)

    def replace(self, **changes) -> "AnalysisSpec":
        """A copy with the given fields changed (re-validated)."""
        values = self.to_dict()
        values.update(changes)
        return type(self)(**values)


def _check_field_classification() -> None:
    """Every spec field must be classified semantic or non-semantic.

    Runs at import so an unclassified (or doubly classified) field is a
    loud failure in *every* process, not just a test run — a field that
    slipped past the split would silently fracture or merge cache and
    checkpoint identity.
    """
    declared = set(SEMANTIC_FIELDS) | set(NONSEMANTIC_FIELDS)
    actual = {f.name for f in fields(AnalysisSpec)}
    overlap = set(SEMANTIC_FIELDS) & set(NONSEMANTIC_FIELDS)
    if overlap:
        raise RuntimeError(
            f"spec fields classified both semantic and non-semantic: "
            f"{sorted(overlap)}")
    if declared != actual:
        raise RuntimeError(
            f"spec fields missing a semantic/non-semantic "
            f"classification: {sorted(actual - declared)}; "
            f"classified but not on the spec: {sorted(declared - actual)}")


_check_field_classification()
