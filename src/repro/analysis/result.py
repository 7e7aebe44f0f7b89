"""The unified analysis result: one schema for every backend.

:class:`AnalysisResult` is the one result schema: a
common core every backend fills — marking count, iterations, variable
count, final and peak decision-diagram nodes, wall-clock seconds,
reorder count, the engine identifier and an echo of the spec that
produced it — plus a per-backend ``extras`` dict for everything that
only one backend can report.  Extras keys are documented per backend in
``docs/api.md``; every value must be JSON-serializable.

``to_dict()``/``from_dict()`` round-trip the result through plain JSON
(minus the in-memory ``reachable`` handle), so benchmarks, the CI
regression gate, table scripts and the ``repro.service`` result cache
all consume one schema instead of three.

Versioning is two-tier.  The **major** version (``schema``) changes
when the layout is reshaped incompatibly; ``from_dict`` refuses a
different major rather than misread it.  The **minor** version
(``schema_minor``) covers additive evolution — new extras keys, new
optional top-level fields — and is tolerated in *both* directions:
a payload from a newer minor build is read with a logged warning, its
unknown top-level fields preserved verbatim (``foreign``) and re-emitted
by ``to_dict``, and its unknown extras keys kept as-is.  A result cache
shared between builds (``repro.service``) must never let an entry
written by a newer build poison an older reader.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, Optional

from .spec import AnalysisSpec

__all__ = ["AnalysisResult", "SCHEMA_VERSION", "SCHEMA_MINOR"]

# Bumped when the serialized layout changes shape incompatibly;
# ``from_dict`` refuses other majors instead of silently misreading
# them.
SCHEMA_VERSION = 1
# Bumped on additive changes; newer minors are read with a logged
# warning and their unknown fields carried through untouched.
SCHEMA_MINOR = 1

#: Top-level keys ``from_dict`` consumes; anything else is foreign.
_KNOWN_KEYS = frozenset({
    "schema", "schema_minor", "spec", "engine", "markings", "iterations",
    "variables", "final_nodes", "peak_nodes", "seconds", "reorder_count",
    "status", "extras",
})


def _warn(message: str, *args: Any) -> None:
    """Log a warning; ``logging`` loads only when one is logged."""
    import logging
    logging.getLogger(__name__).warning(message, *args)


@dataclass
class AnalysisResult:
    """Statistics of one symbolic analysis, backend-independent.

    Attributes
    ----------
    spec:
        The :class:`~repro.analysis.spec.AnalysisSpec` that produced
        this result (echoed so a result is self-describing).
    engine:
        Engine identifier, e.g. ``functional``, ``relational/chained``,
        ``zdd/classic``, ``kbounded/3``.
    markings:
        Number of reachable markings.
    iterations:
        Fixpoint iterations until the frontier emptied.
    variables:
        State variables (encoding variables; places for the ZDD;
        count bits for the k-bounded engine).
    final_nodes:
        Decision-diagram nodes of the reachable set.
    peak_nodes:
        Peak live nodes in the manager during the analysis.
    seconds:
        Total wall-clock seconds, construction included (the breakdown
        lives in ``extras["build_seconds"]`` /
        ``extras["fixpoint_seconds"]``).
    reorder_count:
        Dynamic-reordering passes run (0 on the ZDD backend).
    status:
        ``"complete"`` (the fixpoint converged) or ``"partial"`` (a
        resource budget aborted the run at a safe point; ``markings``
        and ``reachable`` are then a genuine under-approximation of the
        reachable set, ``extras["budget"]`` carries the exhaustion
        telemetry and — when checkpointing — a final checkpoint is on
        disk to resume from).
    extras:
        Per-backend statistics (JSON-serializable values only).
        Unknown keys read from a newer build's payload are kept
        verbatim.
    foreign:
        Top-level keys from a newer minor schema this build does not
        know, preserved through :meth:`from_dict`/:meth:`to_dict` so
        re-serializing a foreign payload loses nothing.
    reachable:
        The reachable state set — a :class:`~repro.bdd.Function` on the
        BDD backends, a ZDD node id on the ZDD backend.  Not
        serialized; ``None`` after :meth:`from_dict`.
    """

    spec: AnalysisSpec
    engine: str
    markings: int
    iterations: int
    variables: int
    final_nodes: int
    peak_nodes: int
    seconds: float
    reorder_count: int
    extras: Dict[str, Any] = field(default_factory=dict)
    reachable: Optional[Any] = None
    status: str = "complete"
    foreign: Dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:
        partial = "" if self.status == "complete" \
            else f" status={self.status}"
        return (f"<AnalysisResult engine={self.engine} "
                f"markings={self.markings} V={self.variables} "
                f"nodes={self.final_nodes} iters={self.iterations} "
                f"t={self.seconds:.3f}s{partial}>")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable dump (drops the ``reachable`` handle)."""
        data = {
            "schema": SCHEMA_VERSION,
            "schema_minor": SCHEMA_MINOR,
            "spec": self.spec.to_dict(),
            "engine": self.engine,
            "markings": self.markings,
            "iterations": self.iterations,
            "variables": self.variables,
            "final_nodes": self.final_nodes,
            "peak_nodes": self.peak_nodes,
            "seconds": self.seconds,
            "reorder_count": self.reorder_count,
            "status": self.status,
            "extras": dict(self.extras),
        }
        for key, value in self.foreign.items():
            # A round-tripped foreign payload keeps its newer-minor
            # fields, but never clobbers a key this build owns.
            if key not in data:
                data[key] = value
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "AnalysisResult":
        """Rebuild a result from :meth:`to_dict` output.

        The in-memory ``reachable`` handle is gone after a JSON round
        trip, so it comes back as ``None``; everything else survives
        bit-exact.  A different *major* schema raises ``ValueError``
        (the layout may have been reshaped); a newer *minor* — and any
        unknown top-level or extras keys, or unknown spec fields — is
        tolerated with a logged warning, the foreign content kept so a
        later :meth:`to_dict` re-emits it.
        """
        schema = data.get("schema")
        if schema != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported AnalysisResult schema {schema!r} "
                f"(this build reads version {SCHEMA_VERSION})")
        minor = data.get("schema_minor", 0)
        if isinstance(minor, int) and minor > SCHEMA_MINOR:
            _warn(
                "AnalysisResult payload has schema minor %s (this build "
                "writes %s); reading it anyway and keeping unknown "
                "fields", minor, SCHEMA_MINOR)
        foreign = {key: value for key, value in data.items()
                   if key not in _KNOWN_KEYS}
        if foreign:
            _warn("AnalysisResult payload carries unknown fields %s "
                  "(written by a newer build?); kept verbatim",
                  sorted(foreign))
        return cls(
            spec=AnalysisSpec.from_dict(data["spec"],
                                        ignore_unknown=True),
            engine=data["engine"],
            markings=data["markings"],
            iterations=data["iterations"],
            variables=data["variables"],
            final_nodes=data["final_nodes"],
            peak_nodes=data["peak_nodes"],
            seconds=data["seconds"],
            reorder_count=data["reorder_count"],
            status=data.get("status", "complete"),
            extras=dict(data.get("extras", {})),
            foreign=foreign,
        )
