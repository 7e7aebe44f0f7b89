"""Shared experiment machinery for the Section 6 reproductions.

Runs one benchmark instance under a declarative
:class:`~repro.analysis.spec.AnalysisSpec` and collects the columns the
paper's tables report: number of boolean variables, reachable marking
count, final decision-diagram size, peak live nodes and CPU seconds.
Everything routes through :func:`repro.analysis.analyze`; the
spec-driven :func:`run` is the one entry point.

Both BDD schemes run with dynamic variable reordering enabled, as in
the paper, which reordered at each iteration but used "no special
initial order".  Here every manager starts from the structural FORCE
order of :mod:`repro.petri.order`; the paper's sparse-vs-improved
conclusions still hold on it (``benchmarks/bench_table3.py`` and
``bench_table4.py`` pass).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..analysis import AnalysisSpec, analyze
from ..petri.net import PetriNet


@dataclass
class ExperimentRow:
    """One table row: an instance measured under one engine.

    ``status`` mirrors the underlying result: ``"partial"`` rows come
    from budget-aborted runs, so their marking count is a lower bound
    and must not be compared against complete rows.
    """

    instance: str
    engine: str
    markings: int
    variables: int
    nodes: int
    seconds: float
    peak_nodes: int = 0
    status: str = "complete"

    def density(self) -> float:
        """Optimal bits over used variables (Section 3)."""
        bits = max(1, math.ceil(math.log2(self.markings)))
        return bits / self.variables


def full_scale() -> bool:
    """Paper-scale sizes when ``REPRO_FULL`` is set (hours in pure
    Python); harness-scale otherwise."""
    return bool(os.environ.get("REPRO_FULL"))


def engine_label(spec: AnalysisSpec) -> str:
    """The table-column label a spec reports under.

    ``sparse`` / ``covering`` / ``dense`` for the functional BDD
    schemes (``dense`` is the improved Section 4.4 encoding, the
    paper's table name for it; ``covering`` the intermediate
    covering-based one — they must not share a label or
    :func:`format_table` would silently overwrite one row with the
    other), ``rel-<engine>`` for the relational BDD engines, ``zdd`` /
    ``zdd-<engine>`` for the sparse-ZDD baseline and its relational
    form, ``k<bound>`` for the k-bounded extension.
    """
    if spec.backend == "portfolio":
        return "portfolio"
    if spec.k_bound is not None:
        return f"k{spec.k_bound}"
    if spec.backend == "zdd":
        if spec.resolved_engine == "classic":
            return "zdd"
        return f"zdd-{spec.resolved_engine}"
    if spec.resolved_form == "relational":
        return f"rel-{spec.resolved_engine}"
    return {"sparse": "sparse", "dense": "covering",
            "improved": "dense"}[spec.scheme]


def run(name: str, net: PetriNet, spec: AnalysisSpec,
        label: Optional[str] = None,
        encoding_factory: Optional[Callable] = None) -> ExperimentRow:
    """Measure one instance under one spec — the single entry point.

    Construction time (encoding, SMC discovery, relation building) is
    included in the reported seconds, as in the paper (where it is ~1 %
    of total); the breakdown lives in the underlying
    :class:`~repro.analysis.result.AnalysisResult` extras.  ``label``
    overrides the :func:`engine_label` column name;
    ``encoding_factory`` (``net -> Encoding``) the BDD backends' scheme
    lookup.  Durability comes with the spec (``checkpoint_path`` /
    ``resume``); cached solves go through :mod:`repro.service`.
    """
    result = analyze(net, spec, encoding_factory=encoding_factory)
    return ExperimentRow(instance=name,
                         engine=label or engine_label(spec),
                         markings=result.markings,
                         variables=result.variables,
                         nodes=result.final_nodes,
                         seconds=result.seconds,
                         peak_nodes=result.peak_nodes,
                         status=result.status)


def format_table(title: str, rows: Sequence[ExperimentRow],
                 engines: Sequence[str],
                 include_peak: bool = False) -> str:
    """Render rows grouped by instance, paper-table style.

    ``include_peak`` adds a per-engine peak-live-nodes column (the
    paper's Table 4 memory column).
    """
    by_instance: Dict[str, Dict[str, ExperimentRow]] = {}
    order: List[str] = []
    for row in rows:
        if row.instance not in by_instance:
            by_instance[row.instance] = {}
            order.append(row.instance)
        by_instance[row.instance][row.engine] = row

    header = f"{'PN':<14}{'markings':>12}"
    for engine in engines:
        header += f"{engine + ' V':>10}{engine + ' nodes':>13}" \
                  f"{engine + ' CPU':>12}"
        if include_peak:
            header += f"{engine + ' peak':>13}"
    lines = [title, "=" * len(header), header, "-" * len(header)]
    for instance in order:
        cells = by_instance[instance]
        any_row = next(iter(cells.values()))
        line = f"{instance:<14}{any_row.markings:>12}"
        for engine in engines:
            row = cells.get(engine)
            if row is None:
                line += f"{'-':>10}{'-':>13}{'-':>12}"
                if include_peak:
                    line += f"{'-':>13}"
            else:
                line += (f"{row.variables:>10}{row.nodes:>13}"
                         f"{row.seconds:>11.2f}s")
                if include_peak:
                    line += f"{row.peak_nodes:>13}"
        lines.append(line)
    lines.append("-" * len(header))
    return "\n".join(lines)


def compare_engines(rows: Sequence[ExperimentRow], base: str, other: str
                    ) -> Dict[str, Dict[str, float]]:
    """Per-instance ratios ``base / other`` for variables, nodes, time."""
    by_instance: Dict[str, Dict[str, ExperimentRow]] = {}
    for row in rows:
        by_instance.setdefault(row.instance, {})[row.engine] = row
    ratios: Dict[str, Dict[str, float]] = {}
    for instance, cells in by_instance.items():
        if base in cells and other in cells:
            left, right = cells[base], cells[other]
            ratios[instance] = {
                "variables": left.variables / right.variables,
                "nodes": left.nodes / right.nodes,
                "seconds": (left.seconds / right.seconds
                            if right.seconds > 0 else float("inf")),
            }
    return ratios
