"""Unit tests for the k-bounded (non-safe) symbolic engine."""

import pytest

from repro.analysis import Analysis, AnalysisSpec, analyze
from repro.petri import Marking, PetriNet, ReachabilityGraph
from repro.petri.generators import figure1_net, figure4_net
from repro.symbolic.kbounded import KBoundedNet


def two_token_cycle():
    """A cycle with two tokens: 2-bounded, never safe."""
    net = PetriNet("two-token")
    net.add_place("a", tokens=2)
    net.add_place("b")
    net.add_place("c")
    net.add_transition("t1", pre=["a"], post=["b"])
    net.add_transition("t2", pre=["b"], post=["c"])
    net.add_transition("t3", pre=["c"], post=["a"])
    return net


def producer_consumer(buffer_bound):
    """Unbounded producer throttled only by the engine's bound."""
    net = PetriNet("prodcons")
    net.add_place("idle", tokens=1)
    net.add_place("buffer")
    net.add_transition("produce", pre=["idle"], post=["idle", "buffer"])
    net.add_transition("consume", pre=["buffer"], post=[])
    return net


class TestConstruction:
    def test_bit_width(self):
        knet = KBoundedNet(two_token_cycle(), bound=2)
        assert knet.bits == 2
        assert len(knet.current_vars) == 3 * 2

    def test_safe_bound_single_bit(self):
        knet = KBoundedNet(figure1_net(), bound=1)
        assert knet.bits == 1
        assert len(knet.current_vars) == 7

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            KBoundedNet(two_token_cycle(), bound=0)

    def test_initial_exceeding_bound_rejected(self):
        with pytest.raises(ValueError):
            KBoundedNet(two_token_cycle(), bound=1)

    def test_fresh_manager_required(self):
        from repro.bdd import BDD
        bdd = BDD(var_names=["stale"])
        with pytest.raises(ValueError):
            KBoundedNet(two_token_cycle(), bound=2, bdd=bdd)


class TestPredicates:
    def test_count_equals_on_initial(self):
        knet = KBoundedNet(two_token_cycle(), bound=2)
        assert not (knet.initial & knet.count_equals("a", 2)).is_zero()
        assert (knet.initial & knet.count_equals("a", 1)).is_zero()

    def test_count_at_least(self):
        knet = KBoundedNet(two_token_cycle(), bound=2)
        assert not (knet.initial & knet.count_at_least("a", 1)).is_zero()
        assert (knet.initial & knet.count_at_least("b", 1)).is_zero()

    def test_count_out_of_range(self):
        knet = KBoundedNet(two_token_cycle(), bound=2)
        with pytest.raises(ValueError):
            knet.count_equals("a", 9)


class TestImage:
    def test_single_step(self):
        knet = KBoundedNet(two_token_cycle(), bound=2)
        successors = knet.image(knet.initial, "t1")
        assert knet.markings_of(successors) == [Marking({"a": 1, "b": 1})]

    def test_disabled_transition(self):
        knet = KBoundedNet(two_token_cycle(), bound=2)
        assert knet.image(knet.initial, "t2").is_zero()

    def test_image_respects_bound(self):
        """The producer cannot exceed the configured buffer bound."""
        analysis = Analysis(producer_consumer(3), AnalysisSpec(k_bound=3))
        knet = analysis.symbolic_net
        for marking in knet.markings_of(analysis.reachable):
            assert marking["buffer"] <= 3


class TestMarkingFunction:
    def test_initial_marking_is_the_initial_state(self):
        knet = KBoundedNet(two_token_cycle(), bound=2)
        assert knet.marking_function(Marking({"a": 2})) == knet.initial

    def test_every_explicit_marking_is_reachable(self):
        analysis = Analysis(two_token_cycle(), AnalysisSpec(k_bound=2))
        knet = analysis.symbolic_net
        for marking in ReachabilityGraph(two_token_cycle(),
                                         require_safe=False).markings:
            minterm = knet.marking_function(marking)
            assert knet.markings_of(minterm) == [marking]
            assert (minterm & analysis.reachable) == minterm

    def test_count_above_the_bound_is_rejected(self):
        knet = KBoundedNet(two_token_cycle(), bound=2)
        with pytest.raises(ValueError):
            knet.marking_function(Marking({"a": 3}))


class TestTraversal:
    def test_two_token_cycle_counts(self):
        """Token counts over 3 places summing to 2: C(4,2) = 6 markings."""
        result = analyze(two_token_cycle(), AnalysisSpec(k_bound=2))
        explicit = ReachabilityGraph(two_token_cycle(), require_safe=False)
        assert result.markings == len(explicit) == 6

    def test_matches_explicit_markings(self):
        analysis = Analysis(two_token_cycle(), AnalysisSpec(k_bound=2))
        explicit = ReachabilityGraph(two_token_cycle(), require_safe=False)
        assert set(analysis.symbolic_net.markings_of(analysis.reachable)) \
            == set(explicit.markings)

    @pytest.mark.parametrize("factory,expected", [
        (figure1_net, 8), (figure4_net, 22)])
    def test_safe_nets_at_bound_one(self, factory, expected):
        """With k = 1 the engine reproduces the safe engines' counts."""
        result = analyze(factory(), AnalysisSpec(k_bound=1))
        assert result.markings == expected

    def test_safe_net_at_higher_bound_same_counts(self):
        """A safe net stays safe under a looser bound."""
        result = analyze(figure1_net(), AnalysisSpec(k_bound=3))
        assert result.markings == 8

    def test_producer_consumer_buffer_levels(self):
        result = analyze(producer_consumer(2), AnalysisSpec(k_bound=2))
        # idle always 1; buffer in {0, 1, 2}: three markings.
        assert result.markings == 3

    def test_statistics(self):
        result = analyze(two_token_cycle(), AnalysisSpec(k_bound=2))
        assert result.iterations > 0
        assert result.variables == 6
        assert result.markings == 6

    def test_max_iterations_guard(self):
        with pytest.raises(RuntimeError):
            analyze(two_token_cycle(),
                    AnalysisSpec(k_bound=2, max_iterations=1))
