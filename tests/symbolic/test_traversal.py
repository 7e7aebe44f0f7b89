"""Cross-validation of every symbolic engine against explicit enumeration."""

import pytest

from repro.analysis import Analysis, AnalysisSpec, analyze
from repro.encoding import ImprovedEncoding, SparseEncoding
from repro.petri import ReachabilityGraph
from repro.petri.generators import figure1_net, figure4_net, slotted_ring

# Net instances come from the shared fixtures in tests/conftest.py
# (make_net builds them, explicit_counts is the enumeration oracle).
FAMILIES = ["figure1", "figure4", "muller3", "slot2", "phil3", "dme2",
            "jjreg-a2"]
SCHEMES = ["sparse", "dense", "improved"]

# The plain BFS quantify-and-force fixpoint on a fixed variable order.
BFS = AnalysisSpec(strategy="bfs", use_toggle=False, reorder=False)
# The per-transition chained relational fixpoint, fixed order.
PER_TRANSITION = AnalysisSpec(form="relational", engine="chained",
                              reorder=False)


@pytest.mark.parametrize("name", FAMILIES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_marking_count_matches_explicit(name, scheme, make_net,
                                        explicit_counts):
    result = analyze(make_net(name), BFS.replace(scheme=scheme))
    assert result.markings == explicit_counts[name]


@pytest.mark.parametrize("scheme", SCHEMES)
def test_toggle_firing_agrees(scheme, make_net, explicit_counts):
    """The Section 5.2 toggle path reaches the same fixpoint."""
    for name in FAMILIES[:5]:
        result = analyze(make_net(name),
                         BFS.replace(scheme=scheme, use_toggle=True))
        assert result.markings == explicit_counts[name]


@pytest.mark.parametrize("scheme", SCHEMES)
def test_relational_engine_agrees(scheme, explicit_counts):
    """The Eq. 3 relational path reaches the same fixpoint."""
    for name, factory in [("figure1", figure1_net),
                          ("figure4", figure4_net),
                          ("slot2", lambda: slotted_ring(2))]:
        result = analyze(factory(), PER_TRANSITION.replace(scheme=scheme))
        assert result.markings == explicit_counts[name]


def test_monolithic_relation_agrees(explicit_counts):
    result = analyze(figure4_net(), AnalysisSpec(
        form="relational", engine="monolithic", reorder=False))
    assert result.markings == explicit_counts["figure4"]


def test_reachable_sets_decode_identically():
    """BDD reachable set decodes to exactly the explicit marking set."""
    net = figure4_net()
    explicit = {m.support for m in ReachabilityGraph(net).markings}
    for scheme in SCHEMES:
        analysis = Analysis(net, BFS.replace(scheme=scheme))
        symbolic = {m.support for m in
                    analysis.symbolic_net.markings_of(analysis.reachable)}
        assert symbolic == explicit


def test_traversal_statistics_sane():
    result = analyze(figure4_net(), BFS)
    assert result.iterations > 0
    assert result.variables == 8
    assert result.final_nodes >= 3
    assert result.peak_nodes >= result.final_nodes
    assert result.seconds >= 0
    assert result.markings == 22


def test_max_iterations_guard():
    with pytest.raises(RuntimeError):
        analyze(figure4_net(), BFS.replace(scheme="sparse",
                                           max_iterations=1))


def test_traversal_with_dynamic_reordering():
    """Auto-reordering during traversal must not change the result."""
    net = slotted_ring(3)
    expected = len(ReachabilityGraph(net))
    result = analyze(net, BFS.replace(use_toggle=True, reorder=True,
                                      reorder_threshold=200))
    assert result.markings == expected
    assert result.reorder_count > 0


def test_dense_uses_fewer_variables_everywhere(make_net):
    for name in FAMILIES:
        net = make_net(name)
        sparse = SparseEncoding(net)
        improved = ImprovedEncoding(net)
        assert improved.num_variables < sparse.num_variables, name


def test_limit_error_carries_partial_state():
    """Satellite: the overrun raises TraversalLimitError (a
    RuntimeError subclass, so old except-clauses still catch it) whose
    partial reached set is a genuine under-approximation."""
    from repro.symbolic import TraversalLimitError
    net = figure4_net()
    spec = BFS.replace(scheme="sparse")
    analysis = Analysis(net, spec)
    with pytest.raises(TraversalLimitError) as excinfo:
        analysis.run(max_iterations=1)
    exc = excinfo.value
    assert isinstance(exc, RuntimeError)
    assert exc.iterations == 1
    assert exc.reached is not None
    variables = analysis.symbolic_net.encoding.num_variables
    partial = exc.reached.satcount(variables)
    total = Analysis(net, spec).reachable.satcount(variables)
    assert 0 < partial < total


def test_limit_error_from_relational_and_zdd_and_kbounded():
    from repro.symbolic import TraversalLimitError
    net = figure4_net()
    for spec in (PER_TRANSITION.replace(scheme="sparse"),
                 AnalysisSpec(backend="zdd", form="functional",
                              reorder=False),
                 AnalysisSpec(k_bound=1)):
        with pytest.raises(TraversalLimitError) as excinfo:
            analyze(net, spec.replace(max_iterations=1))
        assert excinfo.value.reached is not None, spec.engine_id
