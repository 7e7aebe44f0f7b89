"""Ablation studies for the encoding and image design choices.

Four questions, answered on the same mid-size generated instances (see
docs/encodings.md, "Generator substitutions"):

1. **Improved vs. covering-based vs. zero-var encoding** — how many
   variables does each refinement save (Sections 4.2 / 4.4 / extension)?
2. **Gray vs. arbitrary codes** — toggle activity per fired transition
   (Section 5.2).
3. **Quantify-force vs. toggle firing vs. saturation** — traversal
   time of the image implementations: BFS quantify-force and toggle
   firing, the saturation schedule, and the relational form's
   saturation, which fires the same events on the same net.
4. **Dynamic reordering on/off** — final BDD size and time, sifting
   from the structural initial order, not the paper's (see ``runner``).

Run with ``python -m repro.experiments.ablation``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from ..analysis import AnalysisSpec, analyze
from ..encoding import DenseEncoding, ImprovedEncoding, SparseEncoding
from ..petri.generators import figure4_net, muller, slotted_ring
from ..petri.smc import find_smcs

INSTANCES: List[Tuple[str, Callable[[], object]]] = [
    ("figure4", figure4_net),
    ("muller-6", lambda: muller(6)),
    ("slot-3", lambda: slotted_ring(3)),
]


@dataclass
class AblationRow:
    """One measurement: instance x configuration."""

    instance: str
    configuration: str
    value: float
    unit: str


def encoding_variable_ablation() -> List[AblationRow]:
    """Variables used by each encoding refinement."""
    rows = []
    for name, factory in INSTANCES:
        net = factory()
        components = find_smcs(net)
        for label, encoding in [
                ("sparse", SparseEncoding(net)),
                ("dense/covering", DenseEncoding(net,
                                                 components=components)),
                ("dense/improved", ImprovedEncoding(
                    net, components=components)),
                ("dense/zero-var", ImprovedEncoding(
                    net, components=components,
                    allow_zero_variable_components=True))]:
            rows.append(AblationRow(name, label,
                                    encoding.num_variables, "variables"))
    return rows


def gray_code_ablation() -> List[AblationRow]:
    """Average toggled variables per fired transition, Gray vs. binary."""
    rows = []
    for name, factory in INSTANCES:
        net = factory()
        components = find_smcs(net)
        for label, gray in (("gray", True), ("binary", False)):
            encoding = ImprovedEncoding(net, components=components,
                                        gray=gray)
            toggles = [len(encoding.transition_spec(t).toggle)
                       for t in net.transitions]
            rows.append(AblationRow(
                name, f"codes={label}",
                sum(toggles) / len(toggles), "toggles/transition"))
    return rows


#: The sifting trigger of the ablation's reordering rows: low enough
#: that every instance's live diagram crosses it (figure4 peaks at 168
#: nodes unsifted).  A trigger no instance reaches makes each row with
#: reordering on repeat the row with it off.
REORDER_ABLATION_THRESHOLD = 50

# Each configuration of ablation question 3 as a declarative spec — the
# whole grid routes through ``analyze()`` with one builder per row.
IMAGE_CONFIGURATIONS: List[Tuple[str, AnalysisSpec]] = [
    ("image=quantify-force",
     AnalysisSpec(strategy="bfs", use_toggle=False, reorder=False)),
    ("image=toggle",
     AnalysisSpec(strategy="bfs", use_toggle=True, reorder=False)),
    ("strategy=saturation",
     AnalysisSpec(strategy="saturation", reorder=False)),
    ("image=rel-saturation",
     AnalysisSpec(form="relational", engine="saturation", reorder=False)),
]


def image_implementation_ablation() -> List[AblationRow]:
    """Traversal seconds: quantify-force vs. toggle vs. saturation vs.
    relational."""
    rows = []
    for name, factory in INSTANCES:
        net = factory()
        components = find_smcs(net)

        def build(n, components=components):
            return ImprovedEncoding(n, components=components)

        for label, spec in IMAGE_CONFIGURATIONS:
            result = analyze(net, spec, encoding_factory=build)
            rows.append(AblationRow(name, label, result.seconds, "s"))
    return rows


def reordering_ablation() -> List[AblationRow]:
    """Final dense-BDD size with and without dynamic reordering."""
    rows = []
    for name, factory in INSTANCES:
        net = factory()
        components = find_smcs(net)
        for label, reorder in (("reorder=on", True), ("reorder=off", False)):
            result = analyze(
                net,
                AnalysisSpec(strategy="bfs", reorder=reorder,
                             reorder_threshold=REORDER_ABLATION_THRESHOLD),
                encoding_factory=lambda n, c=components: ImprovedEncoding(
                    n, components=c))
            rows.append(AblationRow(name, label,
                                    result.final_nodes, "BDD nodes"))
    return rows


def main() -> None:
    sections: Dict[str, Callable[[], List[AblationRow]]] = {
        "1. encoding refinements (variables)": encoding_variable_ablation,
        "2. code assignment (toggle activity)": gray_code_ablation,
        "3. image implementation (seconds)": image_implementation_ablation,
        "4. dynamic reordering (final BDD nodes)": reordering_ablation,
    }
    for title, runner in sections.items():
        print(title)
        print("-" * len(title))
        for row in runner():
            print(f"  {row.instance:<10} {row.configuration:<24} "
                  f"{row.value:>10.2f} {row.unit}")
        print()


if __name__ == "__main__":
    main()
