"""Unit tests for P-invariant computation (Farkas elimination)."""

import pytest

from repro.petri import PetriNet
from repro.petri.generators import figure1_net, figure4_net, muller
from repro.petri.invariants import (InvariantExplosion, _prune_supersets,
                                    invariant_support, invariant_token_sum,
                                    is_semipositive_invariant,
                                    minimal_semipositive_invariants)


class TestFigure1:
    def test_finds_both_paper_invariants(self):
        net = figure1_net()
        invariants = minimal_semipositive_invariants(net)
        as_sets = {invariant_support(net, inv) for inv in invariants}
        assert ("p1", "p2", "p4", "p6") in as_sets
        assert ("p1", "p3", "p5", "p7") in as_sets

    def test_exactly_two_minimal_invariants(self):
        assert len(minimal_semipositive_invariants(figure1_net())) == 2

    def test_weights_are_unit(self):
        net = figure1_net()
        for inv in minimal_semipositive_invariants(net):
            assert set(inv) <= {0, 1}

    def test_all_results_are_invariants(self):
        net = figure1_net()
        for inv in minimal_semipositive_invariants(net):
            assert is_semipositive_invariant(net, inv)

    def test_token_sum(self):
        net = figure1_net()
        for inv in minimal_semipositive_invariants(net):
            assert invariant_token_sum(net, inv) == 1


class TestFigure4:
    def test_six_smc_invariants(self):
        """Figure 3 shows six SMCs; each support is a minimal invariant."""
        net = figure4_net()
        invariants = minimal_semipositive_invariants(net)
        supports = {frozenset(invariant_support(net, inv))
                    for inv in invariants}
        assert frozenset({"p1", "p2", "p6", "p8"}) in supports
        assert frozenset({"p9", "p11", "p13", "p14"}) in supports
        assert frozenset({"p4", "p6", "p8", "p13", "p14"}) in supports


class TestGeneralNets:
    def test_pure_cycle_single_invariant(self):
        net = PetriNet()
        net.add_place("a", tokens=1)
        net.add_place("b")
        net.add_transition("t1", pre=["a"], post=["b"])
        net.add_transition("t2", pre=["b"], post=["a"])
        invariants = minimal_semipositive_invariants(net)
        assert invariants == [(1, 1)]

    def test_source_place_has_no_invariant(self):
        net = PetriNet()
        net.add_place("a", tokens=1)
        net.add_place("b")
        net.add_transition("t", pre=["a"], post=["a", "b"])
        invariants = minimal_semipositive_invariants(net)
        supports = {invariant_support(net, inv) for inv in invariants}
        assert ("b",) not in supports
        assert all("b" not in sup for sup in supports)

    def test_fork_join_minimal_invariants(self):
        """For a fork/join, {a,b} and {a,c} are minimal; the weighted sum
        2a + b + c is an invariant but not support-minimal."""
        net = PetriNet()
        net.add_place("a", tokens=1)
        net.add_place("b")
        net.add_place("c")
        net.add_transition("t1", pre=["a"], post=["b", "c"])
        net.add_transition("t2", pre=["b", "c"], post=["a"])
        invariants = minimal_semipositive_invariants(net)
        assert sorted(invariants) == [(1, 0, 1), (1, 1, 0)]
        assert is_semipositive_invariant(net, (2, 1, 1))

    def test_muller_pairs_are_invariants(self):
        net = muller(2)
        invariants = minimal_semipositive_invariants(net)
        supports = {frozenset(invariant_support(net, inv))
                    for inv in invariants}
        for i in range(4):
            assert frozenset({f"y{i}_0", f"y{i}_1"}) in supports

    def test_is_semipositive_rejects_zero_and_negative(self):
        net = figure1_net()
        assert not is_semipositive_invariant(net, [0] * 7)
        assert not is_semipositive_invariant(net, [-1, 1, 0, 1, 0, 1, 0])

    def test_is_semipositive_wrong_length(self):
        with pytest.raises(ValueError):
            is_semipositive_invariant(figure1_net(), [1, 1])

    def test_explosion_guard(self):
        with pytest.raises(InvariantExplosion):
            minimal_semipositive_invariants(figure4_net(), max_rows=1)


class TestPruneSupersets:
    """The support-minimality filter run between elimination steps.
    Rows are ``[C-part | place part]``; only the place part counts."""

    def test_strict_superset_is_dropped(self):
        assert _prune_supersets([(1, 1, 1), (1, 0, 1)], 0) == [(1, 0, 1)]

    def test_equal_supports_keep_one_of_proportional_rows(self):
        assert _prune_supersets([(1, 2, 0), (2, 4, 0)], 0) == [(1, 2, 0)]

    def test_equal_supports_keep_independent_rows(self):
        rows = [(1, 2, 0), (2, 1, 0)]
        assert _prune_supersets(rows, 0) == rows

    def test_support_skips_the_offset_columns(self):
        """The C-part differs, yet the place supports nest."""
        rows = [(5, 1, 0), (0, 1, 1)]
        assert _prune_supersets(rows, 1) == [(5, 1, 0)]
