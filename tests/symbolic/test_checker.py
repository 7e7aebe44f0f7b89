"""Unit tests for the symbolic model checker."""

import pytest

from repro.analysis import Analysis, AnalysisSpec
from repro.encoding import SparseEncoding
from repro.petri import Marking
from repro.petri.generators import (dme_spec, figure1_net, figure4_net,
                                    muller, slotted_ring)
from repro.symbolic import ModelChecker, SymbolicNet

# Plain BFS on a fixed variable order.
BFS = AnalysisSpec(strategy="bfs", chain_order="net", use_toggle=False,
                   reorder=False)


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

    def test_checker_never_traverses_on_its_own(self):
        symnet = SymbolicNet(SparseEncoding(slotted_ring(2)))
        with pytest.raises(TypeError):
            ModelChecker(symnet)
