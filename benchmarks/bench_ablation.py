"""Ablation benchmarks for the encoding and image design choices.

The instances are generated nets (see docs/encodings.md, "Generator
substitutions").

Times the competing implementations directly against each other and
asserts the expected orderings where the effect is structural (variable
counts, toggle activity); time-based orderings are reported but not
asserted (they are machine-dependent).

Regenerate the printed study with ``python -m repro.experiments.ablation``.
"""

import pytest

from repro.analysis import AnalysisSpec, analyze
from repro.encoding import DenseEncoding, ImprovedEncoding, SparseEncoding
from repro.petri.generators import figure4_net, muller, slotted_ring
from repro.petri.smc import find_smcs

# Plain BFS quantify-and-force firing on a fixed variable order, and
# the relational engines on the same fixed order.
BFS = AnalysisSpec(strategy="bfs", use_toggle=False, reorder=False)
RELATIONAL = AnalysisSpec(form="relational", reorder=False)

INSTANCES = [("figure4", figure4_net),
             ("muller-6", lambda: muller(6)),
             ("slot-3", lambda: slotted_ring(3))]
IDS = [name for name, _ in INSTANCES]


@pytest.fixture(params=INSTANCES, ids=IDS)
def instance(request):
    name, factory = request.param
    net = factory()
    return name, net, find_smcs(net)


def analyze_improved(net, smcs, spec):
    """Analyse with the improved encoding over pre-computed SMCs."""
    return analyze(net, spec, encoding_factory=lambda n: ImprovedEncoding(
        n, components=smcs))


class TestEncodingRefinements:
    def test_improved_never_worse_than_covering(self, once, instance):
        _, net, smcs = instance
        improved = once(ImprovedEncoding, net, components=smcs)
        covering = DenseEncoding(net, components=smcs)
        sparse = SparseEncoding(net)
        assert improved.num_variables <= covering.num_variables
        assert covering.num_variables < sparse.num_variables

    def test_zero_var_extension_never_worse(self, instance):
        _, net, smcs = instance
        improved = ImprovedEncoding(net, components=smcs)
        extended = ImprovedEncoding(net, components=smcs,
                                    allow_zero_variable_components=True)
        assert extended.num_variables <= improved.num_variables


class TestGrayCodes:
    def test_gray_toggles_not_worse_than_binary(self, once, instance):
        _, net, smcs = instance
        gray = once(ImprovedEncoding, net, components=smcs, gray=True)
        binary = ImprovedEncoding(net, components=smcs, gray=False)
        gray_toggles = sum(len(gray.transition_spec(t).toggle)
                           for t in net.transitions)
        binary_toggles = sum(len(binary.transition_spec(t).toggle)
                             for t in net.transitions)
        assert gray_toggles <= binary_toggles


class TestImageImplementations:
    def test_quantify_force(self, once, instance):
        _, net, smcs = instance
        result = once(analyze_improved, net, smcs, BFS)
        assert result.markings > 0

    def test_toggle(self, once, instance):
        _, net, smcs = instance
        result = once(analyze_improved, net, smcs,
                      BFS.replace(use_toggle=True))
        assert result.markings > 0

    def test_relational_per_transition(self, once, instance):
        _, net, smcs = instance
        result = once(analyze_improved, net, smcs,
                      RELATIONAL.replace(engine="chained"))
        assert result.markings > 0

    def test_relational_monolithic(self, once, instance):
        _, net, smcs = instance
        result = once(analyze_improved, net, smcs,
                      RELATIONAL.replace(engine="monolithic"))
        assert result.markings > 0


class TestReordering:
    def test_reordering_shrinks_or_holds_final_bdd(self, once, instance):
        _, net, smcs = instance
        toggle = BFS.replace(use_toggle=True)
        with_reorder = once(analyze_improved, net, smcs, toggle.replace(
            reorder=True, reorder_threshold=1_000))
        without = analyze_improved(net, smcs, toggle)
        assert with_reorder.markings == without.markings
        assert with_reorder.final_nodes <= without.final_nodes * 1.1
