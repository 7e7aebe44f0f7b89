"""Unit tests for structural net classes."""

from repro.petri import PetriNet
from repro.petri.classes import (classify, is_extended_free_choice,
                                 is_free_choice, is_marked_graph,
                                 is_state_machine)
from repro.petri.generators import (figure1_net, figure4_net, muller,
                                    philosophers, slotted_ring)


def cycle_net():
    net = PetriNet("cycle")
    net.add_place("a", tokens=1)
    net.add_place("b")
    net.add_transition("t1", pre=["a"], post=["b"])
    net.add_transition("t2", pre=["b"], post=["a"])
    return net


class TestStateMachine:
    def test_cycle_is_state_machine(self):
        assert is_state_machine(cycle_net())

    def test_figure1_is_not(self):
        assert not is_state_machine(figure1_net())


class TestMarkedGraph:
    def test_cycle_is_marked_graph(self):
        assert is_marked_graph(cycle_net())

    def test_figure1_is_not(self):
        # p1 has two output transitions (a choice).
        assert not is_marked_graph(figure1_net())

    def test_muller_is_not_marked_graph(self):
        # Read arcs give places several output transitions.
        assert not is_marked_graph(muller(2))


class TestFreeChoice:
    def test_figure1_is_free_choice(self):
        """The running example's choices (p1 -> t1/t2) are free: both
        transitions have p1 as their only input."""
        assert is_free_choice(figure1_net())
        assert is_extended_free_choice(figure1_net())

    def test_philosophers_are_not_free_choice(self):
        """Fork competition is a non-free choice (confusion)."""
        assert not is_free_choice(figure4_net())
        assert not is_extended_free_choice(figure4_net())

    def test_free_choice_implies_extended(self):
        for factory in (figure1_net, figure4_net, lambda: muller(2),
                        lambda: slotted_ring(2)):
            net = factory()
            if is_free_choice(net):
                assert is_extended_free_choice(net)

    def test_efc_but_not_fc(self):
        """Two transitions with identical two-place presets: extended
        free choice but not free choice."""
        net = PetriNet()
        net.add_place("a", tokens=1)
        net.add_place("b", tokens=1)
        net.add_transition("t1", pre=["a", "b"], post=["a", "b"])
        net.add_transition("t2", pre=["a", "b"], post=["a", "b"])
        assert not is_free_choice(net)
        assert is_extended_free_choice(net)


class TestClassify:
    def test_report_keys(self):
        report = classify(figure1_net())
        assert set(report) == {"state_machine", "marked_graph",
                               "free_choice", "extended_free_choice"}

    def test_smc_subnet_classifies_as_state_machine(self):
        """The subnet SM1 generates (Figure 1.b) is a State Machine."""
        sub = PetriNet("sm1")
        sub.add_place("p1", 1)
        for place in ("p2", "p4", "p6"):
            sub.add_place(place)
        for name, pre, post in (("t1", "p1", "p2"), ("t2", "p1", "p4"),
                                ("t3", "p2", "p6"), ("t5", "p4", "p6"),
                                ("t7", "p6", "p1")):
            sub.add_transition(name, pre=[pre], post=[post])
        report = classify(sub)
        assert report["state_machine"]
        assert report["free_choice"]
