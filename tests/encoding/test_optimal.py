"""Unit tests for marking-level encodings (Section 3 / Figure 2.c-d)."""

import pytest

from repro.encoding.optimal import (MarkingEncoding,
                                    greedy_gray_marking_encoding,
                                    optimal_variable_count,
                                    random_marking_encoding)
from repro.petri import ReachabilityGraph
from repro.petri.generators import figure1_net


@pytest.fixture(scope="module")
def graph():
    return ReachabilityGraph(figure1_net())


class TestWidth:
    def test_figure1_needs_three_variables(self, graph):
        """8 markings -> 3 variables (Figure 2.c/d use three)."""
        assert optimal_variable_count(len(graph.markings)) == 3

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            optimal_variable_count(0)

    def test_single_marking(self):
        assert optimal_variable_count(1) == 1


class TestEncodings:
    def test_codes_are_injective(self, graph):
        enc = random_marking_encoding(graph, seed=0)
        assert len(set(enc.codes.values())) == len(graph.markings)

    def test_injectivity_enforced(self, graph):
        codes = {m: (False, False, False) for m in graph.markings}
        with pytest.raises(ValueError):
            MarkingEncoding(graph, codes)

    def test_all_markings_required(self, graph):
        codes = {graph.markings[0]: (False, False, False)}
        with pytest.raises(ValueError):
            MarkingEncoding(graph, codes)

    def test_toggle_cost_positive(self, graph):
        enc = random_marking_encoding(graph, seed=0)
        assert enc.toggle_cost() > 0
        assert enc.average_toggles() == enc.toggle_cost() / 11

    def test_greedy_beats_random(self, graph):
        """The Figure 2 point: a toggle-aware assignment (15/11) beats an
        arbitrary one (19/11)."""
        greedy = greedy_gray_marking_encoding(graph)
        worst = max(random_marking_encoding(graph, seed=s).toggle_cost()
                    for s in range(5))
        assert greedy.toggle_cost() < worst

    def test_greedy_reaches_paper_range(self, graph):
        """Figure 2.c achieves 15 toggled bits over the 11 edges; the
        greedy heuristic should do at least that well."""
        greedy = greedy_gray_marking_encoding(graph)
        assert greedy.toggle_cost() <= 15

    def test_some_assignment_is_as_bad_as_figure2d(self, graph):
        """Figure 2.d's arbitrary assignment costs 19; arbitrary orders
        do land in that region."""
        costs = [random_marking_encoding(graph, seed=s).toggle_cost()
                 for s in range(10)]
        assert max(costs) >= 19

    def test_random_is_deterministic_per_seed(self, graph):
        enc_a = random_marking_encoding(graph, seed=3)
        enc_b = random_marking_encoding(graph, seed=3)
        assert enc_a.codes == enc_b.codes
