"""Unit and consistency tests for the benchmark net generators."""

import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

from repro.petri import (ReachabilityGraph, count_reachable_markings,
                         find_smcs)
from repro.petri.generators import (dme_circuit, dme_spec, figure1_net,
                                    figure4_net, jj_register, muller,
                                    muller_ring, philosophers, slotted_ring)


def check_family(net, max_markings=300_000):
    """Shared liveness/safety/decomposability checks for every family."""
    net.validate()
    rg = ReachabilityGraph(net, max_markings=max_markings)
    assert rg.is_safe()
    components = find_smcs(net)
    assert {p for c in components for p in c.places} == set(net.places)
    return rg, components


class TestFigure1:
    def test_counts(self):
        net = figure1_net()
        assert len(net.places) == 7
        assert len(net.transitions) == 7
        assert count_reachable_markings(net) == 8


class TestPhilosophers:
    def test_figure4_is_paper_net(self):
        net = figure4_net()
        assert len(net.places) == 14
        assert len(net.transitions) == 10
        assert count_reachable_markings(net) == 22

    def test_paper_names_arcs(self):
        net = figure4_net()
        assert net.preset("t2") == {"p2", "p4"}
        assert net.postset("t5") == {"p1", "p4", "p5"}
        assert net.preset("t9") == {"p12", "p13"}

    @pytest.mark.parametrize("count", [2, 3, 4])
    def test_scaling(self, count):
        net = philosophers(count)
        assert len(net.places) == 7 * count
        assert len(net.transitions) == 5 * count
        rg, _ = check_family(net)
        # Philosophers deadlock (every one holds one fork): n ring deadlocks.
        assert len(rg.deadlocks()) == 2 if count == 2 else True

    def test_generic_names_match_paper_structure(self):
        generic = philosophers(2)
        paper = figure4_net()
        assert count_reachable_markings(generic) == \
            count_reachable_markings(paper)

    def test_too_few_philosophers(self):
        with pytest.raises(ValueError):
            philosophers(1)

    def test_paper_names_require_two(self):
        with pytest.raises(ValueError):
            philosophers(3, paper_names=True)


def muller_marking_count(stages):
    """Closed-form reachable-marking count of :func:`muller`: a
    C-element ring with ``n`` signals and ``t`` initially-high signals
    reaches exactly ``2 * C(n, 2t)`` markings."""
    num_signals = 2 * stages
    high_signals = max(1, num_signals // 3)
    return 2 * comb(num_signals, 2 * high_signals)


class TestMuller:
    @pytest.mark.parametrize("stages", [2, 3, 4, 5])
    def test_marking_count_closed_form(self, stages):
        net = muller(stages)
        assert len(net.places) == 4 * stages
        assert (count_reachable_markings(net)
                == muller_marking_count(stages))

    def test_family_checks(self):
        rg, components = check_family(muller(3))
        assert len(rg.deadlocks()) == 0
        assert all(len(c) == 2 for c in components)

    def test_state_space_is_proper_subset(self):
        """The reachable set must not be the whole product space, or the
        dense reachability BDD would be trivial."""
        stages = 4
        assert muller_marking_count(stages) < 2 ** (2 * stages)

    def test_ring_rejects_degenerate_parameters(self):
        with pytest.raises(ValueError):
            muller_ring(2)
        with pytest.raises(ValueError):
            muller(1)


class TestSlottedRing:
    @pytest.mark.parametrize("stations", [2, 3])
    def test_scaling(self, stations):
        net = slotted_ring(stations)
        assert len(net.places) == 10 * stations
        assert len(net.transitions) == 5 * stations
        rg, _ = check_family(net)
        assert len(rg.deadlocks()) == 0

    def test_smc_structure(self):
        _, components = check_family(slotted_ring(3))
        supports = {c.place_set for c in components}
        for i in range(3):
            assert frozenset({f"s{i}_c0", f"s{i}_c1",
                              f"s{i}_c2", f"s{i}_c3"}) in supports
            for wire in ("p", "a", "b"):
                assert frozenset({f"s{i}_{wire}0", f"s{i}_{wire}1"}) \
                    in supports

    def test_too_small(self):
        with pytest.raises(ValueError):
            slotted_ring(1)


class TestDME:
    @pytest.mark.parametrize("cells", [2, 3])
    def test_spec_scaling(self, cells):
        net = dme_spec(cells)
        assert len(net.places) == 12 * cells
        rg, _ = check_family(net)
        assert len(rg.deadlocks()) == 0

    def test_spec_mutual_exclusion(self):
        """At most one user is in its critical section, ever."""
        rg = ReachabilityGraph(dme_spec(3), max_markings=300_000)
        for marking in rg.markings:
            critical = [p for p in marking.support if p.endswith("_uc")]
            assert len(critical) <= 1

    def test_circuit_scaling(self):
        net = dme_circuit(2, wire_depth=2)
        assert len(net.places) == 2 * (12 + 4 * 2)
        rg, _ = check_family(net)
        assert len(rg.deadlocks()) == 0

    def test_circuit_is_larger_than_spec(self):
        """The gate-level expansion must blow up the state count — the
        Table 4 effect."""
        spec_count = count_reachable_markings(dme_spec(2))
        cir_count = count_reachable_markings(dme_circuit(2, wire_depth=1))
        assert cir_count > 10 * spec_count

    def test_too_small(self):
        with pytest.raises(ValueError):
            dme_spec(1)
        with pytest.raises(ValueError):
            dme_circuit(2, wire_depth=-1)


class TestJJRegister:
    def test_default_size_matches_jjreg_regime(self):
        net = jj_register("a")
        assert len(net.places) == 8 + 6 * 40  # 248, the paper's regime

    @pytest.mark.parametrize("variant", ["a", "b"])
    def test_small_instance(self, variant):
        net = jj_register(variant, bits=2)
        rg, _ = check_family(net)
        assert len(rg.deadlocks()) == 0

    def test_variant_b_strictly_smaller(self):
        """The ring-driven inputs of variant b must cut the reachable
        set (the paper's JJreg-b has far fewer markings than JJreg-a)."""
        count_a = count_reachable_markings(jj_register("a", bits=3))
        count_b = count_reachable_markings(jj_register("b", bits=3))
        assert count_b < count_a

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            jj_register("c")
        with pytest.raises(ValueError):
            jj_register("a", bits=0)


def test_generators_shadowing_their_submodules_stay_callable():
    """``philosophers``, ``muller`` and ``slotted_ring`` name both a
    function and the submodule defining it.  Importing the submodules
    first, in a fresh interpreter, must leave the package attributes
    the functions (the package imports them eagerly for this reason)."""
    names = ("philosophers", "muller", "slotted_ring")
    script = ("import importlib\n"
              f"for name in {names!r}:\n"
              "    importlib.import_module(f'repro.petri.generators.{name}')\n"
              "import repro.petri.generators as generators\n"
              f"for name in {names!r}:\n"
              "    print(len(getattr(generators, name)(3).places))\n")
    src = Path(__file__).resolve().parents[2] / "src"
    out = subprocess.run([sys.executable, "-c", script],
                         env=dict(os.environ, PYTHONPATH=str(src)),
                         check=True, capture_output=True, text=True,
                         timeout=120).stdout
    assert out.split() == [str(len(philosophers(3).places)),
                           str(len(muller(3).places)),
                           str(len(slotted_ring(3).places))]
