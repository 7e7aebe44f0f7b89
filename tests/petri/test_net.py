"""Unit tests for PetriNet structure and token game."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.petri import Marking, PetriNet, PetriNetError
from repro.petri.generators import figure1_net

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture
def simple():
    """p1 -> t1 -> p2 -> t2 -> p1 (a two-place cycle)."""
    net = PetriNet("simple")
    net.add_place("p1", tokens=1)
    net.add_place("p2")
    net.add_transition("t1", pre=["p1"], post=["p2"])
    net.add_transition("t2", pre=["p2"], post=["p1"])
    return net


class TestConstruction:
    def test_places_and_transitions_ordered(self, simple):
        assert simple.places == ("p1", "p2")
        assert simple.transitions == ("t1", "t2")

    def test_duplicate_place_rejected(self, simple):
        with pytest.raises(PetriNetError):
            simple.add_place("p1")

    def test_place_transition_name_clash_rejected(self, simple):
        with pytest.raises(PetriNetError):
            simple.add_transition("p1")
        with pytest.raises(PetriNetError):
            simple.add_place("t1")

    def test_negative_tokens_rejected(self):
        net = PetriNet()
        with pytest.raises(PetriNetError):
            net.add_place("p", tokens=-1)

    def test_arc_must_be_bipartite(self, simple):
        with pytest.raises(PetriNetError):
            simple.add_arc("p1", "p2")
        with pytest.raises(PetriNetError):
            simple.add_arc("t1", "t2")

    def test_arc_unknown_node(self, simple):
        with pytest.raises(PetriNetError):
            simple.add_arc("p1", "nope")

    def test_validate_isolated_transition(self):
        net = PetriNet()
        net.add_transition("t")
        with pytest.raises(PetriNetError):
            net.validate()

    def test_validate_ok(self, simple):
        simple.validate()


class TestStructureQueries:
    def test_preset_postset_of_transition(self):
        net = figure1_net()
        assert net.preset("t7") == {"p6", "p7"}
        assert net.postset("t7") == {"p1"}

    def test_preset_postset_of_place(self):
        net = figure1_net()
        assert net.preset("p1") == {"t7"}
        assert net.postset("p1") == {"t1", "t2"}

    def test_preset_unknown_node(self, simple):
        with pytest.raises(PetriNetError):
            simple.preset("zzz")

    def test_arcs_enumeration(self, simple):
        assert set(simple.arcs()) == {
            ("p1", "t1"), ("t1", "p2"), ("p2", "t2"), ("t2", "p1")}

    def test_copy_is_independent(self, simple):
        dup = simple.copy("dup")
        dup.add_place("p3")
        assert "p3" not in simple.places
        assert dup.initial_marking == simple.initial_marking


class TestTokenGame:
    def test_enabled_at_initial(self, simple):
        m = simple.initial_marking
        assert simple.is_enabled(m, "t1")
        assert not simple.is_enabled(m, "t2")
        assert simple.enabled_transitions(m) == ["t1"]

    def test_fire_moves_token(self, simple):
        m = simple.fire(simple.initial_marking, "t1")
        assert m == Marking(["p2"])

    def test_fire_disabled_raises(self, simple):
        with pytest.raises(PetriNetError):
            simple.fire(simple.initial_marking, "t2")

    def test_fire_unknown_transition(self, simple):
        with pytest.raises(PetriNetError):
            simple.fire(simple.initial_marking, "zzz")

    def test_fire_sequence(self, simple):
        m = simple.initial_marking
        for transition in ["t1", "t2", "t1"]:
            m = simple.fire(m, transition)
        assert m == Marking(["p2"])

    def test_figure1_feasible_sequence(self):
        net = figure1_net()
        m = net.initial_marking
        for transition in ["t1", "t3", "t4", "t7"]:
            m = net.fire(m, transition)
        assert m == net.initial_marking

    def test_fork_join(self):
        net = figure1_net()
        m = net.fire(net.initial_marking, "t1")
        assert m == Marking(["p2", "p3"])
        assert set(net.enabled_transitions(m)) == {"t3", "t4"}


class TestStructuralClasses:
    def test_full_net_not_state_machine(self):
        assert not figure1_net().is_state_machine()


def test_analysis_and_checker_do_not_import_numpy():
    """numpy serves the incidence matrix and scipy the LP fallback of
    SMC enumeration; the Farkas elimination behind ``analyze()`` runs on
    plain ints, so building, solving and querying a net load neither."""
    script = ("import sys\n"
              "from repro.analysis import Analysis\n"
              "from repro.petri.generators import philosophers\n"
              "analysis = Analysis(philosophers(4))\n"
              "analysis.checker().ef(analysis.symbolic_net.initial)\n"
              "print(sorted({'numpy', 'scipy'} & set(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         check=True, capture_output=True, text=True,
                         timeout=120).stdout
    assert out.strip() == "[]"


#: Modules a default run never calls: the other sessions' nets, the
#: ZDD manager, checkpoints and their wire format, the portfolio and its
#: process supervisor, explicit reachability, the ``.pnet`` parser, and
#: the stdlib modules only those (or a logged warning) need.
OPTIONAL_MODULES = (
    "repro.bdd.zdd", "repro.bdd.io",
    "repro.analysis.checkpoint", "repro.analysis.portfolio",
    "repro.analysis.workers",
    "repro.symbolic.zdd_relational",
    "repro.symbolic.zdd_traversal", "repro.symbolic.kbounded",
    "repro.petri.reachability", "repro.petri.parser",
    "hashlib", "logging", "multiprocessing",
)


def test_default_analysis_loads_no_optional_module():
    """A default fixpoint and a checker query, after importing the CLI
    too, load only what they run: every optional backend module loads
    on first use, so a cold start pays only for the spec it runs."""
    script = ("import sys\n"
              "import repro.cli\n"
              "from repro.analysis import Analysis\n"
              "from repro.petri.generators import philosophers\n"
              "analysis = Analysis(philosophers(4))\n"
              "analysis.checker().ef(analysis.symbolic_net.initial)\n"
              f"print(sorted(set({OPTIONAL_MODULES!r}) & set(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         check=True, capture_output=True, text=True,
                         timeout=120).stdout
    assert out.strip() == "[]"


def test_zdd_default_loads_no_chained_net():
    """The ZDD default saturates on the classic engine's net, so only
    the chained sweep loads the paired-element module."""
    script = ("import sys\n"
              "from repro.analysis import analyze\n"
              "from repro.petri.generators import philosophers\n"
              "print(analyze(philosophers(4), backend='zdd').markings,\n"
              "      'repro.symbolic.zdd_relational' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         check=True, capture_output=True, text=True,
                         timeout=120).stdout
    assert out.split() == ["466", "False"]
