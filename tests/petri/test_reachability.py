"""Unit tests for explicit reachability analysis."""

import pytest

from repro.petri import (Marking, PetriNet, ReachabilityGraph,
                         StateExplosion, UnsafeNet, count_reachable_markings)
from repro.petri.generators import FIGURE1_MARKINGS, figure1_net, figure4_net


class TestFigure1:
    def test_eight_markings(self):
        assert count_reachable_markings(figure1_net()) == 8

    def test_marking_supports_match_paper(self):
        rg = ReachabilityGraph(figure1_net())
        assert {m.support for m in rg.markings} == set(FIGURE1_MARKINGS)

    def test_no_deadlocks(self):
        assert ReachabilityGraph(figure1_net()).deadlocks() == []

    def test_successors_of_initial(self):
        rg = ReachabilityGraph(figure1_net())
        succ = dict(rg.successors(rg.initial))
        assert succ == {"t1": Marking(["p2", "p3"]),
                        "t2": Marking(["p4", "p5"])}

    def test_contains(self):
        rg = ReachabilityGraph(figure1_net())
        assert Marking(["p6", "p7"]) in rg
        assert Marking(["p2", "p5"]) not in rg

    def test_is_safe(self):
        assert ReachabilityGraph(figure1_net()).is_safe()

    def test_eleven_arcs(self):
        rg = ReachabilityGraph(figure1_net())
        assert len(rg.markings) == 8
        assert len(rg.edges) == 11  # Figure 1.b has 11 arcs


class TestFigure4:
    def test_twentytwo_markings(self):
        """The paper states the Figure 4 net has 22 reachable markings."""
        assert count_reachable_markings(figure4_net()) == 22

    def test_deadlock_exists(self):
        """Classic dining philosophers: both grab their right fork."""
        dead = ReachabilityGraph(figure4_net()).deadlocks()[0]
        # In the deadlock every philosopher holds exactly one fork (both
        # right forks p6/p12, or both left forks p7/p13).
        assert (dead.support >= {"p6", "p12"}
                or dead.support >= {"p7", "p13"})


class TestBudgetsAndSafety:
    def test_state_explosion(self):
        with pytest.raises(StateExplosion):
            ReachabilityGraph(figure4_net(), max_markings=5)

    def test_unsafe_net_detected(self):
        net = PetriNet()
        net.add_place("a", tokens=1)
        net.add_place("b")
        net.add_transition("t1", pre=["a"], post=["a", "b"])
        net.add_transition("t2", pre=["b"], post=["b", "b"])
        with pytest.raises(UnsafeNet):
            ReachabilityGraph(net)

    def test_unsafe_initial_marking_detected(self):
        net = PetriNet()
        net.add_place("a", tokens=2)
        net.add_transition("t", pre=["a"], post=["a"])
        with pytest.raises(UnsafeNet):
            ReachabilityGraph(net)

    def test_unsafe_allowed_when_not_required(self):
        net = PetriNet()
        net.add_place("a", tokens=1)
        net.add_place("b", tokens=1)
        net.add_transition("t", pre=["a"], post=["b"])
        rg = ReachabilityGraph(net, max_markings=10, require_safe=False)
        assert not rg.is_safe()
        assert max(marking["b"] for marking in rg.markings) == 2

    def test_empty_net_single_marking(self):
        net = PetriNet()
        net.add_place("a", tokens=1)
        rg = ReachabilityGraph(net)
        assert len(rg) == 1
        assert rg.deadlocks() == [Marking(["a"])]
