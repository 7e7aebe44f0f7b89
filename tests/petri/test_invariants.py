"""Unit tests for P-invariant computation (Farkas elimination)."""

import pytest
from hypothesis import given, settings, strategies as st

from net_strategies import safe_nets
from repro.petri import PetriNet
from repro.petri.generators import (figure1_net, figure4_net, muller,
                                    slotted_ring)
from repro.petri.invariants import (InvariantExplosion, _minimal_rows,
                                    _normalize, _proportional,
                                    _prune_supersets, _support_mask,
                                    _TransposedNet,
                                    incidence_rows, invariant_support,
                                    invariant_token_sum,
                                    is_semipositive_invariant,
                                    minimal_semipositive_invariants,
                                    minimal_semipositive_t_invariants)


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


def support(row, offset):
    return frozenset(i for i, value in enumerate(row[offset:])
                     if value != 0)


def full_prune(rows, offset):
    """The support-minimality filter as it was before rows carried
    their supports: every pair of rows compared on frozensets."""
    supports = [support(row, offset) for row in rows]
    keep = []
    for i, row in enumerate(rows):
        if not any(other < supports[i]
                   or (other == supports[i] and j < i
                       and _proportional(row, rows[j]))
                   for j, other in enumerate(supports) if j != i):
            keep.append(row)
    return keep


def full_prune_invariants(net, max_rows=50_000):
    """The elimination as it was before rows carried their supports:
    every pass runs :func:`full_prune` over every row.  The reference
    the incremental pass must reproduce row for row."""
    num_places = len(net.places)
    num_transitions = len(net.transitions)
    rows = []
    for i, incidence in enumerate(incidence_rows(net)):
        identity = [0] * num_places
        identity[i] = 1
        rows.append(tuple(incidence) + tuple(identity))
    for col in range(num_transitions):
        combined = {}
        for row_p in (row for row in rows if row[col] > 0):
            for row_n in (row for row in rows if row[col] < 0):
                combined[_normalize(tuple(
                    -row_n[col] * a + row_p[col] * b
                    for a, b in zip(row_p, row_n)))] = None
        rows = [row for row in rows if row[col] == 0] + list(combined)
        if len(rows) > max_rows:
            raise InvariantExplosion(f"column {col}")
        rows = full_prune(rows, num_transitions)
    invariants = {}
    for row in rows:
        weights = _normalize(row[num_transitions:])
        if any(w > 0 for w in weights) and not any(w < 0 for w in weights):
            invariants[weights] = None
    items = list(invariants)
    supports = [support(inv, 0) for inv in items]
    return [inv for i, inv in enumerate(items)
            if not any(other < supports[i] for other in supports)]


#: Rows of one C-column and four places, entries in -2..2.
ROWS = st.tuples(*[st.integers(-2, 2)] * 5)


class TestIncrementalPruning:
    """Rows carry their supports as bitmasks, and a pass compares only
    pairs holding a new row; the output must stay the same list, in
    the same order, as the full pairwise prune's."""

    @pytest.mark.parametrize("name", [
        "figure1", "figure4", "muller3", "muller5", "phil4", "phil6",
        "slot3", "slot4", "dme3", "dmecir2", "jjreg-a3", "jjreg-b2"])
    def test_families_match_the_full_prune(self, make_net, name):
        net = make_net(name)
        assert minimal_semipositive_invariants(net) \
            == full_prune_invariants(net)

    @settings(max_examples=60, deadline=None)
    @given(net=safe_nets())
    def test_generated_nets_match_the_full_prune(self, net):
        assert minimal_semipositive_invariants(net) \
            == full_prune_invariants(net)

    @settings(max_examples=200, deadline=None)
    @given(settled=st.lists(ROWS, max_size=8),
           fresh=st.lists(ROWS, max_size=8))
    def test_settled_rows_are_compared_only_with_new_ones(self, settled,
                                                          fresh):
        """A prefix that already passed the filter plus new rows: the
        incremental filter keeps exactly what the full one keeps."""
        rows = full_prune(settled, 1) + fresh
        masks = [_support_mask(row, 1) for row in rows]
        kept = _minimal_rows(rows, masks, len(rows) - len(fresh))
        assert [rows[i] for i in kept] == full_prune(rows, 1)

    @pytest.mark.parametrize("name", ["figure4", "muller3", "slot3"])
    def test_t_invariants_match_the_full_prune(self, make_net, name):
        net = make_net(name)
        assert minimal_semipositive_t_invariants(net) \
            == full_prune_invariants(_TransposedNet(net))

    def test_slot9_still_exceeds_the_default_row_budget(self):
        """SMC discovery on slot-9 falls back to the LP path because the
        elimination passes the default 50,000-row budget, at the same
        column as the full prune."""
        with pytest.raises(InvariantExplosion,
                           match=r"exceeded 50000 rows at transition "
                                 r"column 35$"):
            minimal_semipositive_invariants(slotted_ring(9))
