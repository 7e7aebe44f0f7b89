"""The protocol each benchmark family stands for, checked on its states.

``test_generators.py`` pins sizes, safety and decomposability.  This
file checks behaviour: the C-element rule of the Muller ring, the
privilege token of the DME ring, the four-phase handshake and latch
phases of the JJreg register, slot conservation in the slotted ring and
the two circular-wait deadlocks of the philosophers.  Small instances
are checked on the explicit reachability graph (every edge, every
marking); larger ones through the symbolic checker, which must agree.
"""

import pytest

from repro.analysis import Analysis, AnalysisSpec
from repro.petri import ReachabilityGraph
from repro.petri.generators import (dme_spec, jj_register, muller,
                                    philosophers, slotted_ring)

# The default pipeline: beyond explicit reach in a fraction of a second.
DEFAULT = AnalysisSpec()


def fired(graph):
    """Every edge of ``graph`` as ``(marking, transition)``."""
    for src, transition, _dst in graph.edges:
        yield graph.markings[src], transition


def exactly_one(checker, places):
    """The predicate "exactly one of ``places`` is marked"."""
    marked = [checker.place_predicate(place) for place in places]
    none = ~marked[0]
    one = marked[0]
    for predicate in marked[1:]:
        one = (one & ~predicate) | (none & predicate)
        none = none & ~predicate
    return one


# ---------------------------------------------------------------------------
# Muller C-element ring


def ring_boundaries(marking, signals):
    """Neighbouring signal pairs that differ: the ring's wavefronts."""
    high = [f"y{i}_1" in marking for i in range(signals)]
    return sum(high[i] != high[(i + 1) % signals] for i in range(signals))


class TestMullerRing:
    @pytest.mark.parametrize("stages", [2, 3])
    def test_c_element_rule(self, stages):
        """``y[i]`` rises only with its left neighbour high and its right
        neighbour low, and falls only in the dual situation."""
        signals = 2 * stages
        graph = ReachabilityGraph(muller(stages))
        for marking, transition in fired(graph):
            index, direction = transition[len("t_y"):].split("_")
            i = int(index)
            left = f"y{(i - 1) % signals}"
            right = f"y{(i + 1) % signals}"
            if direction == "up":
                assert f"{left}_1" in marking and f"{right}_0" in marking
            else:
                assert f"{left}_0" in marking and f"{right}_1" in marking

    @pytest.mark.parametrize("stages", [2, 3])
    def test_wavefronts_are_conserved(self, stages):
        """Every firing moves a wavefront; none is created or lost, so
        each marking keeps the initial ``2 * max(1, 2 * stages // 3)``."""
        signals = 2 * stages
        graph = ReachabilityGraph(muller(stages))
        expected = 2 * max(1, signals // 3)
        assert {ring_boundaries(marking, signals)
                for marking in graph.markings} == {expected}

    @pytest.mark.parametrize("stages", [2, 3])
    def test_every_transition_fires(self, stages):
        net = muller(stages)
        graph = ReachabilityGraph(net)
        assert {transition for _, transition in fired(graph)} \
            == set(net.transitions)

    def test_symbolic_checker_sees_every_transition_live(self):
        checker = Analysis(muller(6), DEFAULT).checker()
        assert checker.live_transitions() \
            == list(checker.symnet.net.transitions)


# ---------------------------------------------------------------------------
# DME ring


def privilege_places(cells):
    """Where the ring's single privilege can be: on the token slot, or
    held by a cell that grabbed it (granted or releasing)."""
    return [f"c{i}_{state}" for i in range(cells)
            for state in ("tk", "cg", "cr")]


class TestDME:
    @pytest.mark.parametrize("cells", [2, 3])
    def test_privilege_is_unique(self, cells):
        places = privilege_places(cells)
        graph = ReachabilityGraph(dme_spec(cells), max_markings=300_000)
        for marking in graph.markings:
            assert sum(marking[place] for place in places) == 1

    @pytest.mark.parametrize("cells", [2, 3])
    def test_critical_user_holds_the_privilege(self, cells):
        """A user in its critical section has a cell that granted it and
        has not released yet."""
        graph = ReachabilityGraph(dme_spec(cells), max_markings=300_000)
        for marking in graph.markings:
            for i in range(cells):
                if f"c{i}_uc" in marking:
                    assert f"c{i}_cr" in marking

    def test_token_passes_only_from_idle_cells(self):
        graph = ReachabilityGraph(dme_spec(3), max_markings=300_000)
        passes = 0
        for marking, transition in fired(graph):
            if transition.endswith("_t_pass"):
                cell = transition[:-len("_t_pass")]
                assert f"{cell}_ci" in marking
                passes += 1
        assert passes > 0

    def test_symbolic_privilege_is_unique(self):
        cells = 4
        checker = Analysis(dme_spec(cells), DEFAULT).checker()
        report = checker.check_invariant(
            exactly_one(checker, privilege_places(cells)))
        assert report, report.detail

    def test_symbolic_critical_sections_exclude(self):
        cells = 4
        checker = Analysis(dme_spec(cells), DEFAULT).checker()
        assert checker.check_mutual_exclusion(
            [f"c{i}_uc" for i in range(cells)])


# ---------------------------------------------------------------------------
# JJreg register control


class TestJJRegister:
    @pytest.mark.parametrize("variant", ["a", "b"])
    def test_acknowledge_high_exactly_while_done(self, variant):
        """``ack`` rises leaving the pass phase and falls on returning
        to idle, so it is high exactly in the ``ctl_done`` phase."""
        graph = ReachabilityGraph(jj_register(variant, bits=3))
        for marking in graph.markings:
            assert ("ack_1" in marking) == ("ctl_done" in marking)

    @pytest.mark.parametrize("variant", ["a", "b"])
    def test_latches_move_only_in_their_phase(self, variant):
        """Masters follow the inputs only while capturing; slaves follow
        the masters only while passing."""
        graph = ReachabilityGraph(jj_register(variant, bits=3))
        moved = set()
        for marking, transition in fired(graph):
            if transition[0] in "ms" and transition[1].isdigit():
                phase = "ctl_cap" if transition[0] == "m" else "ctl_pass"
                assert phase in marking
                moved.add(transition[0])
        assert moved == {"m", "s"}

    def test_variant_b_inputs_follow_the_c_element_rule(self):
        bits = 3
        graph = ReachabilityGraph(jj_register("b", bits=bits))
        for marking, transition in fired(graph):
            if transition.startswith("d"):
                index, direction = transition[1:].split("_")
                j = int(index)
                left, right = f"d{(j - 1) % bits}", f"d{(j + 1) % bits}"
                if direction == "up":
                    assert {f"{left}_1", f"{right}_0"} <= marking.support
                else:
                    assert {f"{left}_0", f"{right}_1"} <= marking.support

    def test_symbolic_handshake_invariant(self):
        checker = Analysis(jj_register("a", bits=6), DEFAULT).checker()
        report = checker.check_invariant(
            checker.place_predicate("ack_1").iff(
                checker.place_predicate("ctl_done")))
        assert report, report.detail


# ---------------------------------------------------------------------------
# Slotted ring


def slots_in_flight(marking, stations):
    """Slots on an offer wire plus slots held by a station."""
    return sum(marking[f"s{i}_p1"] + marking[f"s{i}_c1"] + marking[f"s{i}_c2"]
               for i in range(stations))


class TestSlottedRing:
    @pytest.mark.parametrize("stations", [2, 3])
    def test_slots_are_conserved(self, stations):
        """Each station starts by offering one slot; taking, processing
        and offering move slots but never make or drop one."""
        graph = ReachabilityGraph(slotted_ring(stations))
        assert {slots_in_flight(marking, stations)
                for marking in graph.markings} == {stations}

    def test_station_resets_only_after_acknowledge(self):
        graph = ReachabilityGraph(slotted_ring(3))
        for marking, transition in fired(graph):
            if transition.endswith("_reset"):
                station = transition[:-len("_reset")]
                assert f"{station}_a1" in marking


# ---------------------------------------------------------------------------
# Dining philosophers


class TestPhilosophers:
    @pytest.mark.parametrize("count", [2, 3, 4])
    def test_exactly_the_two_circular_waits_deadlock(self, count):
        """The only deadlocks: everyone holds the left fork and needs
        the right one, or the mirror image.  No fork is free in either."""
        net = philosophers(count)
        deadlocks = ReachabilityGraph(net).deadlocks()
        expected = [
            {f"ph{i}_{held}" for i in range(count)}
            | {f"ph{i}_{needed}" for i in range(count)}
            for held, needed in (("has_l", "need_r"), ("has_r", "need_l"))
        ]
        assert sorted(map(sorted, (d.support for d in deadlocks))) \
            == sorted(map(sorted, expected))

    def test_symbolic_checker_counts_the_same_deadlocks(self):
        report = Analysis(philosophers(5), DEFAULT).checker().find_deadlocks()
        assert report
        assert "2 deadlocked" in report.detail
        assert not any(place.startswith("fork")
                       for place in report.witness.support)
