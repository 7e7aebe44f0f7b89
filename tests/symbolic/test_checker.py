"""Unit tests for the symbolic model checker."""

import pytest
from net_strategies import backward_closure

from repro.analysis import Analysis, AnalysisSpec
from repro.encoding import SparseEncoding
from repro.petri import Marking
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
        assert fig1.is_reachable(Marking(["p1"]))
        assert fig1.is_reachable(Marking(["p6", "p7"]))

    def test_unreachable_marking(self, fig1):
        assert not fig1.is_reachable(Marking(["p2", "p5"]))

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
        assert fig1.check_mutual_exclusion(["p1", "p2", "p4", "p6"])

    def test_concurrent_places_are_not_exclusive(self, fig1):
        report = fig1.check_mutual_exclusion(["p2", "p3"])
        assert not report
        assert report.witness == Marking(["p2", "p3"])

    def test_violation_among_many_places_pins_witness(self, fig1):
        """Four places, one concurrent pair: the union of the pairs is
        intersected with the reachable set once, and the witness is the
        one the per-pair union gave."""
        report = fig1.check_mutual_exclusion(["p2", "p4", "p6", "p7"])
        assert not report
        assert report.witness == Marking(["p2", "p7"])
        assert report.detail == "simultaneously marked"

    def test_philosophers_eating_places(self):
        """Three philosophers on a ring of three forks never eat
        together; on four, two opposite ones can."""
        three = Analysis(philosophers(3)).checker()
        eating = [f"ph{i}_eating" for i in range(3)]
        report = three.check_mutual_exclusion(eating)
        assert report and report.witness is None
        assert report.detail == f"places {eating} mutually exclusive"
        four = Analysis(philosophers(4)).checker()
        report = four.check_mutual_exclusion(
            [f"ph{i}_eating" for i in range(4)])
        assert not report
        assert report.witness == Marking(
            ["ph0_idle", "ph1_eating", "ph2_idle", "ph3_eating"])

    def test_dme_critical_sections_exclusive(self):
        net = dme_spec(3)
        checker = Analysis(net, BFS).checker()
        critical = [f"c{i}_uc" for i in range(3)]
        assert checker.check_mutual_exclusion(critical)


class TestInvariants:
    def test_tautological_invariant(self, fig1):
        from repro.bdd import true
        assert fig1.check_invariant(true(fig1.symnet.bdd))

    def test_place_invariant(self, fig1):
        """p1 or p6 or ... : one place of SM1 is always marked."""
        pred = (fig1.place_predicate("p1") | fig1.place_predicate("p2")
                | fig1.place_predicate("p4") | fig1.place_predicate("p6"))
        assert fig1.check_invariant(pred)

    def test_violated_invariant_gives_witness(self, fig1):
        report = fig1.check_invariant(~fig1.place_predicate("p1"))
        assert not report
        assert report.witness == Marking(["p1"])


class TestCtl:
    def test_ef_from_initial(self, fig1):
        """EF(p6 & p7) holds at the initial marking."""
        target = fig1.place_predicate("p6") & fig1.place_predicate("p7")
        ef = fig1.ef(target)
        assert not (ef & fig1.symnet.initial).is_zero()

    def test_ef_of_unreachable_is_empty(self, fig1):
        bad = fig1.place_predicate("p2") & fig1.place_predicate("p5")
        assert fig1.ef(bad).is_zero()

    def test_ag_of_reachable_true(self, fig1):
        from repro.bdd import true
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
        assert fig1.live_transitions() == list(
            fig1.symnet.net.transitions)

    def test_enabled_predicate(self, fig1):
        enabled = fig1.enabled_predicate("t1")
        assert not (enabled & fig1.symnet.initial).is_zero()


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
SPECS = {"default": AnalysisSpec(), "bfs": BFS}


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
            place: checker.place_predicate(place)}


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


def test_phil6_query_peak_nodes_tripwire():
    """The three perfbench queries on default phil-6 stay small:
    saturation ``ef`` peaks at 1,250 nodes, the chained passes of fused
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
