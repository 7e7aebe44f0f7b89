"""Generated-net differential: every engine against the explicit oracle.

The generator families are nets this project wrote; these are not.
Hypothesis composes small safe nets (one to four one-token state
machines with free-choice branches and two-machine synchronisations,
:func:`net_strategies.safe_nets`) and every surviving backend × form ×
engine must reach exactly the marking set explicit enumeration finds:
the count, and the decoded markings themselves.
Every run sifts from a low threshold, so dynamic reordering and the
ZDD chained sweep's re-sort by the new order run on these nets too.

The checker's verdicts face the oracle too: the marking sets of
``ef(initial)`` and ``ag(not deadlock)`` and the ``find_deadlocks()``
verdict against a backward search over the explicit reachability
graph, and ``ef`` must return the same edge after the order moves.

The tier-1 profile draws a fixed-seed sample; the ``slow`` profile
(``-m slow``) draws many more.
"""

import pytest
from hypothesis import given, settings
from net_strategies import (backward_closure, compose_state_machines,
                            safe_nets)

from repro.analysis import Analysis, AnalysisSpec, analyze
from repro.bdd import Function
from repro.dd.reorder import sift
from repro.encoding import ImprovedEncoding
from repro.petri.reachability import (ReachabilityGraph,
                                      count_reachable_markings)
from repro.symbolic import RelationalNet

# Low enough that sifting (and with it the ZDD partition re-sort) fires
# on most generated nets, at the saturation band boundary too.
SIFTING = dict(reorder_threshold=20)

SPECS = {
    **{f"functional-{scheme}": AnalysisSpec(scheme=scheme, **SIFTING)
       for scheme in ("sparse", "dense", "improved")},
    "functional-chaining": AnalysisSpec(strategy="chaining", **SIFTING),
    "functional-quantify": AnalysisSpec(strategy="chaining",
                                        use_toggle=False, **SIFTING),
    "functional-bfs": AnalysisSpec(strategy="bfs", **SIFTING),
    "functional-bfs-quantify": AnalysisSpec(strategy="bfs",
                                            use_toggle=False, **SIFTING),
    **{f"relational-{scheme}": AnalysisSpec(
        scheme=scheme, form="relational", **SIFTING)
       for scheme in ("sparse", "dense", "improved")},
    # The relational and ZDD fixpoints on the order they were built
    # with: no sift between bands or sweeps.
    "relational-fixed": AnalysisSpec(form="relational", reorder=False),
    "zdd": AnalysisSpec(backend="zdd", **SIFTING),
    "zdd-fixed": AnalysisSpec(backend="zdd", reorder=False),
    "zdd-chained": AnalysisSpec(backend="zdd", engine="chained", **SIFTING),
    "zdd-chained-fixed": AnalysisSpec(backend="zdd", engine="chained",
                                      reorder=False),
    "zdd-classic": AnalysisSpec(backend="zdd", form="functional",
                                **SIFTING),
    "kbounded-1": AnalysisSpec(k_bound=1, **SIFTING),
}


def decoded_markings(analysis):
    """The reachable set of a finished analysis as supports of markings.

    ``RelationalNet`` has no decoder of its own; its current variables
    carry the encoding's names, so its minterms over them decode as the
    functional net's do."""
    symnet = analysis.symbolic_net
    reachable = analysis.reachable
    if hasattr(symnet, "markings_of"):
        markings = symnet.markings_of(reachable)
    else:
        bdd, encoding = symnet.bdd, symnet.encoding
        markings = [
            encoding.assignment_to_marking(
                {bdd.var_name(var): value
                 for var, value in assignment.items()})
            for assignment in bdd.iter_minterms(
                reachable.node,
                [bdd.var_index(name) for name in encoding.variables])]
    return {frozenset(marking.support) for marking in markings}


def assert_matches_oracle(net, spec):
    analysis = Analysis(net, spec)
    result = analysis.run()
    assert result.status == "complete"
    graph = ReachabilityGraph(net)
    assert result.markings == len(graph.markings)
    assert decoded_markings(analysis) == {
        frozenset(marking.support) for marking in graph.markings}


@pytest.mark.parametrize("label", sorted(SPECS))
@settings(max_examples=12, deadline=None, derandomize=True)
@given(net=safe_nets())
def test_generated_nets_match_explicit_count(label, net):
    assert_matches_oracle(net, SPECS[label])


@pytest.mark.slow
@pytest.mark.parametrize("label", sorted(SPECS))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(net=safe_nets())
def test_generated_nets_match_explicit_count_long(label, net):
    assert_matches_oracle(net, SPECS[label])


@settings(max_examples=12, deadline=None, derandomize=True)
@given(net=safe_nets())
def test_generated_nets_saturate_to_the_bfs_edge(net):
    """Both saturation bands, with a sift between them, land on the
    edge of the breadth-first fixpoint in the same manager."""
    analysis = Analysis(net, AnalysisSpec(strategy="bfs", reorder=False))
    symnet = analysis.symbolic_net
    bdd = symnet.bdd
    reachable = analysis.reachable
    events = symnet.saturation_events()
    lower = bdd.ref(bdd.saturate_post(symnet.initial.node, events,
                                      min_top=bdd.num_vars // 2))
    sift(bdd)
    assert bdd.saturate_post(lower, events) == reachable.node
    bdd.deref(lower)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(net=safe_nets())
def test_generated_nets_saturate_to_the_chained_edge(net):
    """The ZDD saturation bands, with a sift between them, land on the
    node of the chained fixpoint in the same manager."""
    analysis = Analysis(net, AnalysisSpec(backend="zdd", engine="chained",
                                          reorder=False))
    relnet = analysis.symbolic_net
    zdd = relnet.zdd
    events = relnet.saturation_events()
    lower = zdd.ref(zdd.saturate_post(relnet.initial, events,
                                      min_top=zdd.num_vars // 2))
    sift(zdd, groups=zdd.sift_groups)
    assert zdd.saturate_post(lower, events) == analysis.reachable
    zdd.deref(lower)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(net=safe_nets())
def test_generated_nets_saturate_relationally_across_a_sift(net):
    """The relational form's saturation bands, with a pair-grouped sift
    between them, land on the node one recursion over the whole order
    reaches in the same manager."""
    relnet = RelationalNet(ImprovedEncoding(net))
    bdd = relnet.bdd
    events = relnet.saturation_events()
    whole = bdd.ref(bdd.saturate_post(relnet.initial.node, events))
    lower = bdd.ref(bdd.saturate_post(relnet.initial.node, events,
                                      min_top=bdd.num_vars // 2))
    sift(bdd, groups=bdd.sift_groups)
    assert bdd.saturate_post(lower, events) == whole
    assert relnet.count_markings(Function(bdd, whole)) \
        == count_reachable_markings(net)
    bdd.deref(lower)
    bdd.deref(whole)


# The checker runs on the functional BDD backend only.
CHECKER_SPECS = {"default": AnalysisSpec(),
                 "sifting": AnalysisSpec(**SIFTING),
                 "dense-bfs": AnalysisSpec(scheme="dense", strategy="bfs")}


def assert_checker_matches_oracle(net, spec):
    analysis = Analysis(net, spec)
    checker = analysis.checker()
    symnet = analysis.symbolic_net
    graph = ReachabilityGraph(net)

    def markings(indices):
        return {graph.markings[i] for i in indices}

    home = checker.ef(symnet.initial)
    assert set(symnet.markings_of(home)) == markings(
        backward_closure(graph, [0]))
    dead = [graph.index[m] for m in graph.deadlocks()]
    safe = checker.ag(~symnet.deadlock_condition())
    assert set(symnet.markings_of(safe)) == (
        set(graph.markings) - markings(backward_closure(graph, dead)))
    deadlock = checker.find_deadlocks()
    assert deadlock.holds == bool(dead)
    if dead:
        assert deadlock.witness in graph.deadlocks()
    # The same query on a moved order returns the same edge.
    bdd = symnet.bdd
    sift(bdd)
    assert checker.ef(symnet.initial) == home
    bdd.set_order(list(reversed(bdd.order())))
    assert checker.ef(symnet.initial) == home


@pytest.mark.parametrize("label", sorted(CHECKER_SPECS))
@settings(max_examples=12, deadline=None, derandomize=True)
@given(net=safe_nets())
def test_generated_nets_checker_matches_explicit_oracle(label, net):
    assert_checker_matches_oracle(net, CHECKER_SPECS[label])


@pytest.mark.slow
@pytest.mark.parametrize("label", sorted(CHECKER_SPECS))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(net=safe_nets())
def test_generated_nets_checker_matches_explicit_oracle_long(label, net):
    assert_checker_matches_oracle(net, CHECKER_SPECS[label])


def four_machine_ring():
    """Four three-state machines, each with a free-choice branch, and a
    synchronisation between each neighbouring pair."""
    machine = (3, 0, [(0, 1), (0, 2), (1, 2), (2, 0)])
    syncs = [((i, 1, 0), ((i + 1) % 4, 2, 1)) for i in range(4)]
    return compose_state_machines([machine] * 4, syncs, name="ring4")


@pytest.mark.parametrize("label", ["zdd-chained"])
def test_generated_ring_sifts_and_refreshes_the_partition(label):
    """The threshold really does make the chained ZDD session sift on a
    generated net, and the re-sorted partition still lands on the
    oracle."""
    net = four_machine_ring()
    result = analyze(net, SPECS[label])
    assert result.reorder_count > 0
    assert result.markings == count_reachable_markings(net)


def test_generated_ring_sifts_between_saturation_bands():
    net = four_machine_ring()
    analysis = Analysis(net, SPECS["functional-improved"])
    assert analysis.step()  # the first band, then its safe point
    assert analysis.symbolic_net.bdd.reorder_count > 0
    result = analysis.run()
    assert result.extras["strategy"] == "saturation"
    assert result.markings == count_reachable_markings(net)


@pytest.mark.parametrize("label, manager", [("relational-improved", "bdd"),
                                            ("zdd", "zdd")],
                         ids=["relational-improved", "zdd"])
def test_generated_ring_sifts_between_relational_saturation_bands(label,
                                                                  manager):
    net = four_machine_ring()
    analysis = Analysis(net, SPECS[label])
    assert analysis.step()  # the first band, then its safe point
    assert getattr(analysis.symbolic_net, manager).reorder_count > 0
    result = analysis.run()
    assert result.engine.endswith("/saturation")
    assert result.markings == count_reachable_markings(net)


@pytest.mark.parametrize("label", sorted(CHECKER_SPECS))
def test_generated_ring_checker_matches_explicit_oracle(label):
    assert_checker_matches_oracle(four_machine_ring(), CHECKER_SPECS[label])
