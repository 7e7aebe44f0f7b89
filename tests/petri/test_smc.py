"""Unit tests for State Machine Component extraction."""

import pytest
from hypothesis import given, settings, strategies as st

from net_strategies import safe_nets, small_nets
from repro.petri import (PetriNet, PetriNetError, find_smcs,
                         single_token_smcs, smc_from_places,
                         smcs_from_invariants)
from repro.petri.generators import (FIGURE1_SMC_PLACES, FIGURE3_SMC_PLACES,
                                    figure1_net, figure4_net, muller,
                                    slotted_ring)
from repro.petri.smc import smc_covering_place_lp


def covered(components):
    """The places the components cover."""
    return {place for component in components for place in component.places}


def generated_subnet_is_smc(net, places):
    """The Section 2.2 definition, by brute force: the subnet ``places``
    generates is a State Machine and the transitive closure of its arcs
    (places and transitions alike) relates every node to every node."""
    chosen = set(places)
    transitions = [t for t in net.transitions
                   if (net.preset(t) | net.postset(t)) & chosen]
    if any(len(net.preset(t) & chosen) != 1
           or len(net.postset(t) & chosen) != 1 for t in transitions):
        return False
    nodes = list(chosen) + transitions
    reach = {(node, node) for node in nodes}
    reach |= {(p, t) for t in transitions for p in net.preset(t) & chosen}
    reach |= {(t, p) for t in transitions for p in net.postset(t) & chosen}
    for middle in nodes:
        for start in nodes:
            for end in nodes:
                if (start, middle) in reach and (middle, end) in reach:
                    reach.add((start, end))
    return len(reach) == len(nodes) ** 2


class TestValidation:
    def test_figure1_smcs_validate(self):
        net = figure1_net()
        for places in FIGURE1_SMC_PLACES:
            smc = smc_from_places(net, places)
            assert smc is not None
            assert smc.token_count == 1
            assert smc.place_set == set(places)

    def test_not_state_machine_rejected(self):
        net = figure1_net()
        # p6, p7 join at t7 (two inputs): not an SM inside {p6, p7, p1}.
        assert smc_from_places(net, ["p1", "p6", "p7"]) is None

    def test_not_strongly_connected_rejected(self):
        net = figure1_net()
        assert smc_from_places(net, ["p2", "p6"]) is None

    def test_empty_subset(self):
        assert smc_from_places(figure1_net(), []) is None

    def test_unknown_place(self):
        with pytest.raises(PetriNetError):
            smc_from_places(figure1_net(), ["p1", "zzz"])

    def test_state_machine_that_is_not_strongly_connected(self):
        net = PetriNet()
        net.add_place("a", tokens=1)
        net.add_place("b")
        net.add_transition("t", pre=["a"], post=["b"])
        assert net.is_state_machine()
        assert smc_from_places(net, ["a", "b"]) is None

    def test_transitions_recorded(self):
        net = figure1_net()
        smc = smc_from_places(net, ("p1", "p2", "p4", "p6"))
        assert set(smc.transitions) == {"t1", "t2", "t3", "t5", "t7"}

    def test_len_and_repr(self):
        smc = smc_from_places(figure1_net(), ("p1", "p2", "p4", "p6"))
        assert len(smc) == 4
        assert "p1" in repr(smc)

    @settings(max_examples=200, deadline=None)
    @given(net=st.one_of(small_nets(), safe_nets()), data=st.data())
    def test_agrees_with_the_generated_subnet(self, net, data):
        """The check read off pre- and post-sets accepts exactly the
        subsets whose generated subnet is a strongly connected State
        Machine, and counts the subset's initial tokens."""
        places = data.draw(st.lists(st.sampled_from(net.places), unique=True)
                           if net.places else st.just([]))
        smc = smc_from_places(net, places)
        assert (smc is not None) == (bool(places) and
                                     generated_subnet_is_smc(net, places))
        if smc is not None:
            initial = net.initial_marking
            assert smc.token_count == sum(initial[p] for p in places)


class TestDiscovery:
    def test_figure1_discovery(self):
        components = smcs_from_invariants(figure1_net())
        assert {c.place_set for c in components} == {
            frozenset(places) for places in FIGURE1_SMC_PLACES}

    def test_figure3_decomposition(self):
        """All six SMCs of Figure 3 are discovered."""
        components = find_smcs(figure4_net(), strategy="farkas")
        assert {c.place_set for c in components} == {
            frozenset(places) for places in FIGURE3_SMC_PLACES}

    def test_figure4_decomposable(self):
        net = figure4_net()
        components = find_smcs(net)
        assert covered(components) == set(net.places)

    def test_single_token_filter(self):
        net = figure4_net()
        components = find_smcs(net, strategy="farkas")
        assert single_token_smcs(components) == components

    def test_muller_pair_smcs(self):
        net = muller(3)
        components = find_smcs(net, strategy="farkas")
        assert covered(components) == set(net.places)
        assert all(len(c) == 2 for c in components)

    def test_slotted_ring_decomposition(self):
        net = slotted_ring(2)
        components = find_smcs(net, strategy="farkas")
        assert covered(components) == set(net.places)
        supports = {c.place_set for c in components}
        # The designed decomposition (controller cycles + wire pairs) must
        # be among the discovered SMCs; Farkas may find further ones (e.g.
        # mixed offer/ack/controller cycles), which is correct.
        for i in range(2):
            assert frozenset({f"s{i}_c0", f"s{i}_c1",
                              f"s{i}_c2", f"s{i}_c3"}) in supports
            for wire in ("p", "a", "b"):
                assert frozenset({f"s{i}_{wire}0", f"s{i}_{wire}1"}) \
                    in supports

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            find_smcs(figure1_net(), strategy="magic")


class TestLPExtraction:
    def test_lp_covers_each_figure1_place(self):
        net = figure1_net()
        for place in net.places:
            smc = smc_covering_place_lp(net, place)
            assert smc is not None
            assert place in smc.place_set
            assert smc.token_count == 1

    def test_lp_unknown_place(self):
        from repro.petri import PetriNetError
        with pytest.raises(PetriNetError):
            smc_covering_place_lp(figure1_net(), "zzz")

    def test_lp_returns_none_when_impossible(self):
        net = PetriNet()
        net.add_place("a", tokens=1)
        net.add_place("b")
        net.add_transition("t", pre=["a"], post=["a", "b"])
        assert smc_covering_place_lp(net, "b") is None

    def test_lp_strategy_on_figure4(self):
        net = figure4_net()
        components = find_smcs(net, strategy="lp")
        assert covered(components) == set(net.places)


# ---------------------------------------------------------------------------
# Every generator family

FAMILIES = ["figure1", "figure4", "muller3", "slot2", "phil3", "dme2",
            "dmecir2", "jjreg-a2"]

# sha256 prefix of ``repr`` of the ``(name, places, transitions,
# token_count)`` tuples of ``find_smcs(net)``, in the returned order.
# The dense and improved encodings assign variables in this order, so a
# change to it changes every encoded net.
PINNED_SMCS = {
    "figure1": (2, "12bd0adbf056220f"),
    "figure4": (6, "147ef89d7427cfbc"),
    "muller3": (6, "376c04b1e2fe9090"),
    "slot2": (10, "db6cbb9ca9985c17"),
    "phil3": (9, "11cbc297ba8a8e6e"),
    "dme2": (20, "915508817bc0c07d"),
    "dmecir2": (28, "7c8aceaaa0e45bb5"),
    "jjreg-a2": (11, "557abd09bd00b0e1"),
}


class TestFamilies:
    @pytest.mark.parametrize("name", FAMILIES)
    def test_find_smcs_order_is_pinned(self, name, make_net):
        import hashlib
        components = find_smcs(make_net(name))
        text = repr([(c.name, c.places, c.transitions, c.token_count)
                     for c in components])
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        assert (len(components), digest) == PINNED_SMCS[name]

    @pytest.mark.parametrize("name", FAMILIES)
    def test_components_match_the_definition(self, name, make_net):
        """Each component is a single-token SMC by the brute-force
        definition, lists its places and the transitions touching them
        in net order, and validates to itself."""
        net = make_net(name)
        components = find_smcs(net)
        assert covered(components) == set(net.places)
        for component in components:
            chosen = component.place_set
            assert component.places == tuple(
                p for p in net.places if p in chosen)
            assert component.transitions == tuple(
                t for t in net.transitions
                if (net.preset(t) | net.postset(t)) & chosen)
            assert component.token_count == 1
            assert generated_subnet_is_smc(net, component.places)
            assert smc_from_places(net, reversed(component.places)) \
                == component

    @pytest.mark.parametrize("name", FAMILIES[:5])
    def test_lp_strategy_finds_valid_covering_smcs(self, name, make_net):
        net = make_net(name)
        components = find_smcs(net, strategy="lp")
        assert covered(components) == set(net.places)
        for component in components:
            assert component.token_count == 1
            assert generated_subnet_is_smc(net, component.places)
