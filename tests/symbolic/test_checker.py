"""Unit tests for the symbolic model checker."""

import pytest
from net_strategies import backward_closure, exclusive

from repro.analysis import Analysis, AnalysisSpec
from repro.bdd import true
from repro.encoding import SparseEncoding
from repro.petri import Marking, find_smcs, single_token_smcs
from repro.petri.generators import (dme_spec, figure1_net, figure4_net,
                                    jj_register, muller, philosophers,
                                    slotted_ring)
from repro.petri.reachability import ReachabilityGraph
from repro.symbolic import ModelChecker, SymbolicNet

# Plain BFS on a fixed variable order.
BFS = AnalysisSpec(strategy="bfs", use_toggle=False, reorder=False)


@pytest.fixture(scope="module")
def fig1():
    return Analysis(figure1_net(), BFS).checker()


@pytest.fixture(scope="module")
def fig4():
    return Analysis(figure4_net(), BFS).checker()


class TestReachability:
    def test_reachable_markings(self, fig1):
        for marking in (Marking(["p1"]), Marking(["p6", "p7"])):
            minterm = fig1.symnet.marking_function(marking)
            assert not (minterm & fig1.reachable).is_zero()

    def test_unreachable_marking(self, fig1):
        minterm = fig1.symnet.marking_function(Marking(["p2", "p5"]))
        assert (minterm & fig1.reachable).is_zero()

    def test_marking_count(self, fig1, fig4):
        assert fig1.marking_count() == 8
        assert fig4.marking_count() == 22


class TestDeadlocks:
    def test_figure1_deadlock_free(self, fig1):
        report = fig1.find_deadlocks()
        assert not report
        assert report.witness is None

    def test_figure4_deadlocks_found(self, fig4):
        report = fig4.find_deadlocks()
        assert report
        assert "2 deadlocked" in report.detail
        witness = report.witness
        # The witness is a real deadlock: both philosophers hold one fork.
        assert witness is not None
        assert (witness.support >= {"p6", "p12"}
                or witness.support >= {"p7", "p13"})

    def test_muller_deadlock_free(self):
        checker = Analysis(muller(3), BFS).checker()
        assert not checker.find_deadlocks()


class TestMutualExclusion:
    def test_smc_places_are_exclusive(self, fig1):
        """Places of one SMC can never be marked together (Theorem 2.1)."""
        assert exclusive(fig1, ["p1", "p2", "p4", "p6"])

    def test_concurrent_places_are_not_exclusive(self, fig1):
        assert not exclusive(fig1, ["p2", "p3"])

    def test_violation_among_many_places_pins_witness(self, fig1):
        """Four places, p7 concurrent with the other three (one SMC):
        the violating markings are exactly p7 with one of p2, p4, p6."""
        assert not exclusive(fig1, ["p2", "p4", "p6", "p7"])
        places = fig1.symnet.places
        two_at_once = fig1.reachable & (
            (places["p2"] | places["p4"] | places["p6"]) & places["p7"])
        assert set(fig1.symnet.markings_of(two_at_once)) == {
            Marking([place, "p7"]) for place in ("p2", "p4", "p6")}

    def test_philosophers_eating_places(self):
        """Three philosophers on a ring of three forks never eat
        together; on four, two opposite ones can."""
        three = Analysis(philosophers(3)).checker()
        assert exclusive(three, [f"ph{i}_eating" for i in range(3)])
        four = Analysis(philosophers(4)).checker()
        assert not exclusive(four, [f"ph{i}_eating" for i in range(4)])

    def test_dme_critical_sections_exclusive(self):
        checker = Analysis(dme_spec(3), BFS).checker()
        assert exclusive(checker, [f"c{i}_uc" for i in range(3)])


class TestInvariants:
    def test_tautological_invariant(self, fig1):
        """The reachable set is itself an invariant."""
        assert fig1.ag(fig1.reachable) == fig1.reachable

    def test_place_invariant(self, fig1):
        """p1 or p2 or p4 or p6: one place of SM1 is always marked."""
        places = fig1.symnet.places
        pred = places["p1"] | places["p2"] | places["p4"] | places["p6"]
        assert fig1.ag(pred) == fig1.reachable

    def test_violated_invariant_gives_witness(self, fig1):
        """AG not-p1 fails, and the initial marking is the only
        reachable marking that violates it."""
        not_p1 = ~fig1.symnet.places["p1"]
        assert fig1.ag(not_p1) != fig1.reachable
        assert fig1.symnet.markings_of(fig1.reachable - not_p1) \
            == [Marking(["p1"])]


class TestCtl:
    def test_ef_from_initial(self, fig1):
        """EF(p6 & p7) holds at the initial marking."""
        places = fig1.symnet.places
        target = places["p6"] & places["p7"]
        ef = fig1.ef(target)
        assert not (ef & fig1.symnet.initial).is_zero()

    def test_ef_of_unreachable_is_empty(self, fig1):
        places = fig1.symnet.places
        bad = places["p2"] & places["p5"]
        assert fig1.ef(bad).is_zero()

    def test_ag_of_reachable_true(self, fig1):
        assert fig1.ag(true(fig1.symnet.bdd)) == fig1.reachable

    def test_home_marking(self, fig1):
        """Figure 1's initial marking is a home marking (AG EF M0)."""
        assert fig1.can_always_recover(fig1.symnet.initial)

    def test_figure4_cannot_always_recover(self, fig4):
        """Deadlocks make the initial marking non-home."""
        report = fig4.can_always_recover(fig4.symnet.initial)
        assert not report
        assert report.witness is not None

    def test_live_transitions(self, fig1):
        """Every transition of Figure 1 is enabled in some reachable
        marking."""
        symnet = fig1.symnet
        assert all(not (fig1.reachable & symnet.enabling[t]).is_zero()
                   for t in symnet.net.transitions)

    def test_enabled_predicate(self, fig1):
        enabled = fig1.symnet.enabling["t1"]
        assert not (enabled & fig1.symnet.initial).is_zero()
        assert (fig1.symnet.enabling["t3"] & fig1.symnet.initial).is_zero()


class TestPrecomputedReachable:
    def test_reuse_reachable_set(self):
        analysis = Analysis(slotted_ring(2), BFS.replace(scheme="sparse"))
        checker = ModelChecker(analysis.symbolic_net,
                               reachable=analysis.reachable)
        assert checker.marking_count() == 40

    def test_reassigned_reachable_set_is_honoured(self, fig4):
        """``ef`` saturates inside ``reachable`` as it is now, not the
        first one it saw."""
        symnet = fig4.symnet
        checker = ModelChecker(symnet, fig4.reachable)
        assert checker.ef(symnet.initial) != symnet.initial
        checker.reachable = symnet.initial
        assert checker.ef(symnet.initial) == symnet.initial

    def test_checker_never_traverses_on_its_own(self):
        symnet = SymbolicNet(SparseEncoding(slotted_ring(2)))
        with pytest.raises(TypeError):
            ModelChecker(symnet)


# Small nets the explicit oracle enumerates in well under a second.
SMALL_NETS = {
    "figure1": figure1_net,
    "figure4": figure4_net,
    "phil-4": lambda: philosophers(4),
    "slot-3": lambda: slotted_ring(3),
    "muller-3": lambda: muller(3),
    "dme-3": lambda: dme_spec(3),
    "jjreg-a2": lambda: jj_register("a", bits=2),
}
SPECS = {"default": AnalysisSpec(), "bfs": BFS,
         "relational": AnalysisSpec(form="relational")}


@pytest.fixture(scope="module", params=list(SMALL_NETS))
def net_name(request):
    return request.param


@pytest.fixture(scope="module", params=list(SPECS))
def small_checker(request, net_name):
    return Analysis(SMALL_NETS[net_name](), SPECS[request.param]).checker()


def frontier_ef(checker, target):
    """Reference: breadth-first ``reachable AND EF target``, one
    ``preimage_all`` of the frontier per round."""
    reachable = checker.reachable
    current = frontier = target & reachable
    while not frontier.is_zero():
        frontier = (checker.symnet.preimage_all(frontier)
                    & reachable) - current
        current = current | frontier
    return current


def targets(checker):
    symnet = checker.symnet
    place = symnet.net.places[-1]
    return {"deadlock": checker.reachable & symnet.deadlock_condition(),
            "initial": symnet.initial,
            place: symnet.places[place]}


class TestChainedEfMatchesFrontierBfs:
    """``ef`` (constrained saturation) reaches the same least fixpoint
    as breadth-first ``EF``: the BDDs are edge-equal."""

    def test_ef(self, small_checker):
        for name, target in targets(small_checker).items():
            assert small_checker.ef(target) == frontier_ef(
                small_checker, target), name

    def test_ag(self, small_checker):
        reachable = small_checker.reachable
        for name, target in targets(small_checker).items():
            expected = reachable - frontier_ef(small_checker,
                                               reachable - target)
            assert small_checker.ag(target) == expected, name

    def test_can_always_recover(self, small_checker):
        initial = small_checker.symnet.initial
        stuck = small_checker.reachable - frontier_ef(small_checker,
                                                      initial)
        report = small_checker.can_always_recover(initial)
        assert report.holds == stuck.is_zero()


class TestVerdictsMatchExplicitOracle:
    """Backward search over the explicit reachability graph."""

    @pytest.fixture(scope="class")
    def graph(self, net_name):
        return ReachabilityGraph(SMALL_NETS[net_name]())

    def markings(self, graph, indices):
        return {graph.markings[i] for i in indices}

    def test_home_marking(self, small_checker, graph):
        recover = backward_closure(graph, [0])
        report = small_checker.can_always_recover(small_checker.symnet.initial)
        assert report.holds == (len(recover) == len(graph))
        ef = small_checker.ef(small_checker.symnet.initial)
        assert small_checker.symnet.count_markings(ef) == len(recover)
        assert set(small_checker.symnet.markings_of(ef)) == self.markings(
            graph, recover)

    def test_ag_not_deadlock(self, small_checker, graph):
        dead = [graph.index[m] for m in graph.deadlocks()]
        doomed = backward_closure(graph, dead)
        safe = small_checker.ag(~small_checker.symnet.deadlock_condition())
        assert small_checker.symnet.count_markings(safe) == (
            len(graph) - len(doomed))
        assert set(small_checker.symnet.markings_of(safe)) == (
            set(graph.markings) - self.markings(graph, doomed))
        holds_initially = not (safe & small_checker.symnet.initial).is_zero()
        assert holds_initially == (0 not in doomed)

    def test_relational_sets_equal_the_functional_ones(self, net_name):
        """The relational form's ``ef`` and ``ag`` marking sets are the
        functional form's, also after its order moves."""
        def marking_sets(checker):
            symnet = checker.symnet
            return [set(symnet.markings_of(states)) for states in (
                checker.ef(symnet.initial),
                checker.ag(~symnet.deadlock_condition()))]

        functional, relational = (
            Analysis(SMALL_NETS[net_name](), AnalysisSpec(form=form))
            .checker() for form in ("functional", "relational"))
        expected = marking_sets(functional)
        assert marking_sets(relational) == expected
        bdd = relational.symnet.bdd
        bdd.set_order(list(reversed(bdd.order())))
        assert marking_sets(relational) == expected


def test_phil6_query_peak_nodes_tripwire():
    """The three perfbench queries on default phil-6 stay small:
    saturation ``ef`` peaks at 1,220 nodes, the chained passes of fused
    ``or_cofactor_and`` steps it replaced at 6.3k, the composed chained
    step near 36k, breadth-first ``EF`` over ``preimage_all`` with
    frontier narrowing near 120k."""
    analysis = Analysis(philosophers(6))
    checker = analysis.checker()
    symnet = analysis.symbolic_net
    deadlock = checker.find_deadlocks()
    safe = checker.ag(~symnet.deadlock_condition())
    home = checker.can_always_recover(symnet.initial)
    symnet.bdd.live_nodes()  # fold the query phase into the peak
    assert symnet.bdd.peak_live_nodes <= 2_500
    assert deadlock.holds and deadlock.detail == "2 deadlocked marking(s)"
    assert (safe & symnet.initial).is_zero()
    assert symnet.count_markings(safe) == 0
    assert not home.holds


def test_each_query_starts_with_a_collection():
    """A query frees the previous query's garbage before it allocates,
    and the peak still counts the garbage it freed."""
    analysis = Analysis(philosophers(4))
    checker = analysis.checker()
    symnet = analysis.symbolic_net
    bdd = symnet.bdd
    checker.ag(~symnet.deadlock_condition())  # dropped: garbage
    occupancy = 2 + sum(map(len, bdd._unique))
    for query in (checker.find_deadlocks,
                  lambda: checker.ef(symnet.initial)):
        gcs = bdd.gc_count
        query()
        assert bdd.gc_count == gcs + 1
    assert bdd.peak_live_nodes >= occupancy


# ---------------------------------------------------------------------------
# Queries on every generator family, against the explicit graph


FAMILIES = ["figure1", "figure4", "muller3", "slot2", "phil3", "dme2",
            "dmecir2", "jjreg-a2"]


@pytest.fixture(scope="module")
def family_checkers(make_net):
    """Lazily built ``(net, checker, explicit graph)`` per family."""
    built = {}

    def get(name):
        if name not in built:
            net = make_net(name)
            built[name] = (net, Analysis(net, BFS).checker(),
                           ReachabilityGraph(net))
        return built[name]

    return get


@pytest.mark.parametrize("name", FAMILIES)
def test_smc_places_are_exclusive_and_covering(name, family_checkers):
    """Theorem 2.1 on every single-token SMC the encodings use: exactly
    one of its places is marked in every reachable marking."""
    net, checker, _ = family_checkers(name)
    components = single_token_smcs(find_smcs(net))
    assert components
    for component in components:
        assert exclusive(checker, component.places)
        some_marked = ~true(checker.symnet.bdd)
        for place in component.places:
            some_marked = some_marked | checker.symnet.places[place]
        assert checker.ag(some_marked) == checker.reachable


@pytest.mark.parametrize("name", FAMILIES)
def test_live_transitions_match_explicit_graph(name, family_checkers):
    net, checker, graph = family_checkers(name)
    symbolic = [t for t in net.transitions
                if not (checker.reachable
                        & checker.symnet.enabling[t]).is_zero()]
    explicit = {t for _, t, _ in graph.edges}
    assert symbolic == [t for t in net.transitions if t in explicit]


@pytest.mark.parametrize("name", FAMILIES)
def test_deadlocks_match_explicit_graph(name, family_checkers):
    _, checker, graph = family_checkers(name)
    symnet = checker.symnet
    dead = checker.reachable & symnet.deadlock_condition()
    assert set(symnet.markings_of(dead)) == set(graph.deadlocks())
    report = checker.find_deadlocks()
    assert bool(report) == bool(graph.deadlocks())
