"""Tests for the structural FORCE variable orders (repro.petri.order)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from net_strategies import safe_nets
from repro.analysis import analyze
from repro.encoding import ImprovedEncoding, SparseEncoding, variable_order
from repro.encoding.characteristic import order_hyperedges
from repro.petri import PetriNet, force_order, place_order
from repro.petri.generators import (dme_circuit, dme_spec, figure1_net,
                                    jj_register, muller, philosophers,
                                    slotted_ring)
from repro.symbolic import KBoundedNet, ZddRelationalNet

SRC = Path(__file__).resolve().parents[2] / "src"


def total_span(order, hyperedges):
    position = {item: i for i, item in enumerate(order)}
    return sum(max(position[v] for v in edge) - min(position[v] for v in edge)
               for edge in hyperedges if len(set(edge)) >= 2)


@pytest.mark.parametrize("factory", [
    figure1_net, lambda: philosophers(4), lambda: slotted_ring(3),
    lambda: muller(3), lambda: dme_spec(2)])
def test_orders_are_permutations(factory):
    net = factory()
    assert sorted(place_order(net)) == sorted(net.places)
    for scheme in (SparseEncoding, ImprovedEncoding):
        encoding = scheme(net)
        assert sorted(variable_order(encoding)) == sorted(encoding.variables)


def test_orders_do_not_depend_on_the_hash_seed():
    script = (
        "from repro.petri.generators import (dme_spec, muller,\n"
        "    philosophers, slotted_ring)\n"
        "from repro.petri import place_order\n"
        "from repro.encoding import ImprovedEncoding, variable_order\n"
        "for net in (philosophers(8), dme_spec(4), slotted_ring(4),\n"
        "            muller(6)):\n"
        "    print(place_order(net))\n"
        "    print(variable_order(ImprovedEncoding(net)))\n")
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        outputs.append(subprocess.run(
            [sys.executable, "-c", script], env=env, check=True,
            capture_output=True, text=True, timeout=120).stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("\n") == 8


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.tuples(
        st.permutations([f"v{i}" for i in range(n)]),
        st.lists(st.lists(st.sampled_from([f"v{i}" for i in range(n)]),
                          max_size=5), max_size=10))))
def test_force_never_increases_the_total_span(case):
    items, hyperedges = case
    result = force_order(items, hyperedges)
    assert sorted(result) == sorted(items)
    assert total_span(result, hyperedges) <= total_span(items, hyperedges)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.tuples(
        st.permutations([f"v{i}" for i in range(n)]),
        st.permutations([f"v{i}" for i in range(n)]),
        st.lists(st.lists(st.sampled_from([f"v{i}" for i in range(n)]),
                          max_size=5), max_size=10))))
def test_force_keeps_the_start_of_smallest_span(case):
    items, other, hyperedges = case
    result = force_order(items, hyperedges, alternatives=[other])
    from_items = force_order(items, hyperedges)
    from_other = force_order(other, hyperedges)
    assert result == (from_items if total_span(from_items, hyperedges)
                      <= total_span(from_other, hyperedges) else from_other)


def test_force_keeps_the_order_when_nothing_improves():
    assert force_order(["a", "b", "c"], [["a", "b"], ["b", "c"]]) \
        == ("a", "b", "c")
    assert force_order(["a", "b", "c"], []) == ("a", "b", "c")


def test_force_pulls_hyperedge_members_together():
    # Centres of gravity: {a, b} 1.5 and {x, b} 2; the unconnected y
    # keeps its position and ties break by the previous one.
    assert force_order(["a", "x", "y", "b"], [["a", "b"], ["x", "b"]]) \
        == ("a", "b", "x", "y")


# Every generator family at the sizes the suite runs.
FAMILIES = {
    "figure1": figure1_net,
    "phil4": lambda: philosophers(4),
    "slot3": lambda: slotted_ring(3),
    "muller3": lambda: muller(3),
    "dme3": lambda: dme_spec(3),
    "dmecir2": lambda: dme_circuit(2, wire_depth=1),
    "jjreg-a3": lambda: jj_register("a", bits=3),
}


def assert_span_at_most_naming_force(net):
    for scheme in (SparseEncoding, ImprovedEncoding):
        encoding = scheme(net)
        edges = order_hyperedges(encoding)
        naming = force_order(encoding.variables, edges)
        assert total_span(variable_order(encoding), edges) \
            <= total_span(naming, edges)


@pytest.mark.parametrize("name", FAMILIES)
def test_variable_order_span_is_at_most_force_from_naming(name):
    assert_span_at_most_naming_force(FAMILIES[name]())


@settings(max_examples=60, deadline=None)
@given(safe_nets())
def test_variable_order_span_is_at_most_force_from_naming_on_safe_nets(net):
    assert_span_at_most_naming_force(net)


def test_dme_keeps_each_cells_code_bits_together():
    """FORCE from the naming order groups DME's code bits by role
    across cells; the place-order start wins the span, and the fixed
    order peaks at 2,918 nodes under the role-grouped order."""
    net = dme_spec(6)
    encoding = ImprovedEncoding(net)
    edges = order_hyperedges(encoding)
    assert total_span(variable_order(encoding), edges) \
        < total_span(force_order(encoding.variables, edges), edges)
    result = analyze(net, reorder=False)
    assert result.markings == 10_206
    assert result.peak_nodes <= 2_000


class TestDegenerateNets:
    def test_no_transitions(self):
        net = PetriNet("idle")
        net.add_place("p", tokens=1)
        net.add_place("q")
        assert place_order(net) == ("p", "q")
        assert variable_order(SparseEncoding(net)) == ("p", "q")

    def test_single_place(self):
        net = PetriNet("one")
        net.add_place("p", tokens=1)
        net.add_transition("t", pre=["p"], post=["p"])
        assert place_order(net) == ("p",)
        assert variable_order(SparseEncoding(net)) == ("p",)

    def test_hyperedges_with_fewer_than_two_members(self):
        net = PetriNet("small-edges")
        net.add_place("p", tokens=1)
        net.add_place("q")
        net.add_place("r")
        net.add_transition("nothing")
        net.add_transition("loop", pre=["q"], post=["q"])
        net.add_transition("sink", pre=["r"])
        assert place_order(net) == ("p", "q", "r")
        assert variable_order(SparseEncoding(net)) == ("p", "q", "r")


class TestPairsStayAdjacent:
    def test_relational_net(self):
        """The relational BDD form saturates in place: its manager is
        the functional one, the structural order with no copies."""
        net = philosophers(4)
        order = analyze(net, form="relational",
                        reorder=False).reachable.bdd.order()
        assert order == list(variable_order(ImprovedEncoding(net)))

    def test_zdd_relational_net(self):
        net = philosophers(4)
        order = ZddRelationalNet(net).zdd.order()
        assert order[0::2] == list(place_order(net))
        assert order[1::2] == [name + "'" for name in order[0::2]]

    def test_kbounded_net(self):
        net = philosophers(3)
        kbounded = KBoundedNet(net, bound=3)
        order = kbounded.bdd.order()
        assert kbounded.bits == 2
        expected = [f"{place}#{bit}{suffix}"
                    for place in place_order(net)
                    for bit in range(2) for suffix in ("", "'")]
        assert order == expected


# Node counts are deterministic, so peak nodes make a machine-independent
# gate on the structural order.  Under the naming order these runs peak
# at 52,315 (BDD), 60,921 (relational) and 43,407 (ZDD) nodes.
@pytest.mark.parametrize("overrides, bound", [
    ({}, 10_000),
    ({"form": "relational"}, 15_000),
    ({"backend": "zdd"}, 15_000),
], ids=["bdd", "relational", "zdd"])
def test_phil8_peak_nodes_tripwire(overrides, bound):
    result = analyze(philosophers(8), **overrides)
    assert result.markings == 216_994
    assert result.peak_nodes <= bound
