"""Unit tests for the sparse, dense and improved encodings."""

import pytest

from repro.encoding import (DenseEncoding, EncodingError, ImprovedEncoding,
                            SparseEncoding)
from repro.petri import Marking, ReachabilityGraph, find_smcs
from repro.petri.generators import (figure1_net, figure4_net, muller,
                                    slotted_ring)

ALL_SCHEMES = [SparseEncoding, DenseEncoding, ImprovedEncoding]


class TestSparse:
    def test_one_variable_per_place(self):
        net = figure1_net()
        enc = SparseEncoding(net)
        assert enc.variables == net.places
        assert enc.num_variables == 7

    def test_owner_code_is_place_literal(self):
        enc = SparseEncoding(figure1_net())
        assert enc.owner_code("p3") == (("p3", True),)
        assert enc.partners("p3") == ()

    def test_owner_code_unknown_place(self):
        enc = SparseEncoding(figure1_net())
        with pytest.raises(KeyError):
            enc.owner_code("zzz")

    def test_transition_spec_figure1(self):
        enc = SparseEncoding(figure1_net())
        spec = enc.transition_spec("t1")  # p1 -> p2, p3
        assert set(spec.quantify) == {"p1", "p2", "p3"}
        assert dict(spec.force) == {"p1": False, "p2": True, "p3": True}
        assert set(spec.toggle) == {"p1", "p2", "p3"}

    def test_self_loop_untouched(self):
        net = muller(2)
        enc = SparseEncoding(net)
        spec = enc.transition_spec("t_y0_up")
        # Read arcs (self-loops) must not appear in the update.
        forced = dict(spec.force)
        assert "y1_1" not in forced and "y7_1" not in forced
        assert forced == {"y0_0": False, "y0_1": True}

    def test_assignment_roundtrip(self):
        net = figure1_net()
        enc = SparseEncoding(net)
        marking = Marking(["p2", "p3"])
        assignment = enc.marking_to_assignment(marking)
        assert assignment["p2"] and assignment["p3"]
        assert not assignment["p1"]
        assert enc.assignment_to_marking(assignment) == marking


class TestDense:
    def test_figure4_needs_ten_variables(self):
        """Section 4.3: the covering-based scheme uses 10 variables."""
        assert DenseEncoding(figure4_net()).num_variables == 10

    def test_figure1_needs_four_variables(self):
        """Two 4-place SMCs cover the net: 2 + 2 variables."""
        enc = DenseEncoding(figure1_net())
        assert enc.num_variables == 4
        assert not enc.free_places

    def test_injective_codes_within_component(self):
        enc = DenseEncoding(figure4_net())
        for comp in enc.components:
            codes = [comp.codes[p] for p in comp.component.places]
            assert len(set(codes)) == len(codes)

    def test_no_partners_in_basic_scheme(self):
        enc = DenseEncoding(figure4_net())
        for place in enc.net.places:
            assert enc.partners(place) == ()

    def test_muller_halves_variables(self):
        net = muller(3)
        enc = DenseEncoding(net)
        assert enc.num_variables == len(net.places) // 2

    def test_explicit_components_respected(self):
        net = figure1_net()
        comps = find_smcs(net)[:1]
        enc = DenseEncoding(net, components=comps)
        assert len(enc.components) == 1
        assert len(enc.free_places) == 3  # the other SMC's own places


class TestImproved:
    def test_figure4_needs_eight_variables(self):
        """Table 1: the improved scheme uses 8 variables."""
        assert ImprovedEncoding(figure4_net()).num_variables == 8

    def test_zero_variable_extension(self):
        """Allowing zero-variable components drops two more variables."""
        enc = ImprovedEncoding(figure4_net(),
                               allow_zero_variable_components=True)
        assert enc.num_variables == 6
        assert not enc.free_places
        zero_var = [c for c in enc.components if not c.variables]
        assert len(zero_var) == 2

    def test_new_places_have_unique_codes(self):
        enc = ImprovedEncoding(figure4_net())
        for comp in enc.components:
            owned_codes = [comp.codes[p] for p in comp.owned]
            assert len(set(owned_codes)) == len(owned_codes)

    def test_partners_are_owned_earlier(self):
        enc = ImprovedEncoding(figure4_net())
        position = {comp: i for i, comp in enumerate(enc.components)}
        owner = {place: comp for comp in enc.components
                 for place in comp.owned}
        for place in enc.net.places:
            for partner in enc.partners(place):
                assert position[owner[partner]] < position[owner[place]]

    def test_slotted_ring_five_variables_per_station(self):
        """Table 3 shape: slot-n uses half the sparse variables."""
        for stations in (2, 3):
            net = slotted_ring(stations)
            enc = ImprovedEncoding(net)
            assert enc.num_variables == 5 * stations

    def test_disabled_gray_still_valid(self):
        net = figure4_net()
        enc = ImprovedEncoding(net, gray=False)
        rg = ReachabilityGraph(net)
        for marking in rg.markings:
            assignment = enc.marking_to_assignment(marking)
            assert enc.assignment_to_marking(assignment) == marking


class TestRoundTripAllSchemes:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @pytest.mark.parametrize("factory", [figure1_net, figure4_net,
                                         lambda: muller(2),
                                         lambda: slotted_ring(2)])
    def test_all_reachable_markings_roundtrip(self, scheme, factory):
        net = factory()
        enc = scheme(net)
        for marking in ReachabilityGraph(net).markings:
            assignment = enc.marking_to_assignment(marking)
            assert set(assignment) == set(enc.variables)
            assert enc.assignment_to_marking(assignment) == marking

    @pytest.mark.parametrize("scheme", [DenseEncoding, ImprovedEncoding])
    def test_unreachable_marking_rejected(self, scheme):
        """A marking violating an SMC invariant has no encoding."""
        net = figure1_net()
        enc = scheme(net)
        with pytest.raises(EncodingError):
            enc.marking_to_assignment(Marking(["p2", "p4", "p3", "p5"]))
        with pytest.raises(EncodingError):
            enc.marking_to_assignment(Marking([]))

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_describe_mentions_every_place(self, scheme):
        net = figure1_net()
        text = scheme(net).describe()
        for place in net.places:
            assert place in text
