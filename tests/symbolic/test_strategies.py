"""Unit tests for traversal strategies."""

import pytest

from repro.analysis import Analysis, AnalysisSpec, analyze
from repro.petri import ReachabilityGraph
from repro.petri.generators import figure4_net, muller, slotted_ring

# Quantify-and-force firing in net declaration order, fixed variable
# order; tests move single knobs off it.
PLAIN = AnalysisSpec(strategy="bfs", use_toggle=False, reorder=False)

FAMILIES = [
    ("figure4", figure4_net, 22),
    ("muller5", lambda: muller(5), 420),
    ("slot3", lambda: slotted_ring(3), 224),
]


@pytest.mark.parametrize("name,factory,expected", FAMILIES,
                         ids=[f[0] for f in FAMILIES])
@pytest.mark.parametrize("strategy", ["bfs", "saturation"])
def test_all_strategies_reach_same_fixpoint(name, factory, expected,
                                            strategy):
    result = analyze(factory(), PLAIN.replace(
        use_toggle=True, strategy=strategy))
    assert result.markings == expected


@pytest.mark.parametrize("name,factory,expected", FAMILIES,
                         ids=[f[0] for f in FAMILIES])
@pytest.mark.parametrize("strategy", ["bfs", "saturation"])
def test_strategies_reach_same_fixpoint_with_reordering(name, factory,
                                                        expected,
                                                        strategy):
    result = analyze(factory(), PLAIN.replace(
        use_toggle=True, strategy=strategy, reorder=True,
        reorder_threshold=500))
    assert result.markings == expected


def test_saturation_needs_fewer_iterations():
    """Saturation's two bands against one BFS image per iteration."""
    net = muller(6)
    bfs = analyze(net, PLAIN)
    saturation = analyze(net, PLAIN.replace(strategy="saturation",
                                            use_toggle=True))
    assert saturation.iterations == 2
    assert bfs.iterations > saturation.iterations
    assert saturation.markings == bfs.markings


def test_saturation_respects_transition_order_semantics():
    """Saturation fires every transition to a fixpoint per band but
    never invents states."""
    net = figure4_net()
    explicit = {m.support for m in ReachabilityGraph(net).markings}
    analysis = Analysis(net, PLAIN.replace(scheme="sparse",
                                           strategy="saturation",
                                           use_toggle=True))
    reached = analysis.symbolic_net.markings_of(analysis.reachable)
    assert {m.support for m in reached} == explicit


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError):
        PLAIN.replace(strategy="dfs")
