"""Unit tests for SymbolicNet image/preimage operators."""

import pytest

from repro.analysis import Analysis, AnalysisSpec
from repro.encoding import SparseEncoding, variable_order
from repro.petri import Marking, ReachabilityGraph
from repro.petri.generators import figure1_net, figure4_net
from repro.symbolic import SymbolicNet

ALL_SCHEMES = ["sparse", "dense", "improved"]
# Plain BFS on a fixed variable order.
BFS = AnalysisSpec(strategy="bfs", use_toggle=False, reorder=False)


@pytest.fixture(params=ALL_SCHEMES)
def analysis(request):
    """A not-yet-run session; its reachable set runs on first use."""
    return Analysis(figure1_net(), BFS.replace(scheme=request.param))


@pytest.fixture
def symnet(analysis):
    return analysis.symbolic_net


class TestConstruction:
    def test_fresh_manager_required(self):
        from repro.bdd import BDD
        bdd = BDD(var_names=["stale"])
        with pytest.raises(ValueError):
            SymbolicNet(SparseEncoding(figure1_net()), bdd=bdd)

    def test_variables_declared_in_order(self, symnet):
        """The manager declares the encoding's variables in the
        structural FORCE order, not the naming order."""
        assert tuple(symnet.bdd.order()) == variable_order(symnet.encoding)

    def test_initial_is_single_minterm(self, symnet):
        assert symnet.count_markings(symnet.initial) == 1
        markings = symnet.markings_of(symnet.initial)
        assert markings == [Marking(["p1"])]


class TestImage:
    def test_image_of_initial(self, symnet):
        for trans, expected in [("t1", Marking(["p2", "p3"])),
                                ("t2", Marking(["p4", "p5"]))]:
            successors = symnet.image(symnet.initial, trans)
            assert symnet.markings_of(successors) == [expected]

    def test_image_of_disabled_transition_is_empty(self, symnet):
        assert symnet.image(symnet.initial, "t7").is_zero()

    def test_image_all_is_union(self, symnet):
        union = symnet.image_all(symnet.initial)
        expected = (symnet.image(symnet.initial, "t1")
                    | symnet.image(symnet.initial, "t2"))
        assert union == expected

    def test_image_toggle_agrees(self, symnet):
        for trans in symnet.net.transitions:
            assert (symnet.image(symnet.initial, trans)
                    == symnet.image_toggle(symnet.initial, trans))

    def test_image_of_set(self, symnet):
        both = (symnet.marking_function(Marking(["p2", "p3"]))
                | symnet.marking_function(Marking(["p4", "p5"])))
        successors = symnet.image(both, "t3") | symnet.image(both, "t5")
        supports = {m.support for m in symnet.markings_of(successors)}
        assert supports == {frozenset({"p6", "p3"}),
                            frozenset({"p6", "p5"})}


class TestPreimage:
    """Preimages follow the Eq. 2 semantics exactly, which maps unsafe
    assignments too; restricting to the reachable set gives the
    token-game predecessors."""

    @pytest.fixture
    def reachable(self, analysis):
        return analysis.reachable

    def test_preimage_inverts_image(self, symnet, reachable):
        target = symnet.marking_function(Marking(["p2", "p3"]))
        pre = symnet.preimage(target, "t1") & reachable
        assert symnet.markings_of(pre) == [Marking(["p1"])]

    def test_preimage_of_unreachable_target(self, symnet, reachable):
        target = symnet.marking_function(Marking(["p6", "p7"]))
        assert (symnet.preimage(target, "t1") & reachable).is_zero()

    def test_preimage_all(self, symnet, reachable):
        target = symnet.marking_function(Marking(["p6", "p7"]))
        pre = symnet.preimage_all(target) & reachable
        supports = {m.support for m in symnet.markings_of(pre)}
        assert supports == {frozenset({"p6", "p3"}),
                            frozenset({"p2", "p7"}),
                            frozenset({"p6", "p5"}),
                            frozenset({"p4", "p7"})}

    def test_preimage_is_exact_inverse_of_image(self, symnet):
        """Even off the reachable set: S & pre(img(S)) == S when S maps
        somewhere."""
        states = symnet.initial
        image = symnet.image(states, "t1")
        pre = symnet.preimage(image, "t1")
        assert (states & pre) == states

    def test_image_preimage_galois(self, symnet):
        """img(S) & T nonempty iff S & pre(T) nonempty, per transition."""
        states = symnet.initial
        for trans in symnet.net.transitions:
            forward = symnet.image(states, trans)
            for marking in [Marking(["p2", "p3"]), Marking(["p4", "p5"])]:
                target = symnet.marking_function(marking)
                lhs = not (forward & target).is_zero()
                rhs = not (states & symnet.preimage(target, trans)).is_zero()
                assert lhs == rhs


class TestDeadlockCondition:
    def test_figure1_has_no_deadlock_state(self, symnet, analysis):
        # Every reachable marking enables something; the deadlock condition
        # itself is not empty over the whole boolean space, though.
        reached = analysis.reachable
        assert (reached & symnet.deadlock_condition()).is_zero()

    def test_figure4_deadlock_detected(self):
        analysis = Analysis(figure4_net(), BFS)
        symnet = analysis.symbolic_net
        reached = analysis.reachable
        dead = reached & symnet.deadlock_condition()
        assert symnet.count_markings(dead) == 2


class TestEnablingFunctions:
    def test_enabling_requires_all_preset_places(self, symnet):
        assignment = symnet.encoding.marking_to_assignment(
            Marking(["p6", "p7"]))
        assert symnet.enabling["t7"](assignment)
        assignment2 = symnet.encoding.marking_to_assignment(
            Marking(["p6", "p3"]))
        assert not symnet.enabling["t7"](assignment2)


class TestForceCubes:
    """Only the quantify-force image reads the cubes of forced values,
    so a net builds them on that image's first call and keeps them;
    saturation and the toggle images leave them unbuilt."""

    @pytest.mark.parametrize("spec", [
        AnalysisSpec(reorder=False),
        AnalysisSpec(form="relational", reorder=False),
        AnalysisSpec(strategy="bfs", reorder=False)],
        ids=["saturation", "relational", "toggle"])
    def test_other_fixpoints_build_none(self, spec):
        analysis = Analysis(figure4_net(), spec)
        analysis.run()
        assert analysis.symbolic_net._force_cubes is None

    @pytest.mark.parametrize("name", ["figure1", "figure4", "muller4",
                                      "slot2", "phil3"])
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @pytest.mark.parametrize("reorder", [False, True],
                             ids=["fixed", "sifted"])
    def test_quantify_force_bfs_reaches_the_explicit_fixpoint(
            self, name, scheme, reorder, make_net, explicit_counts):
        net = make_net(name)
        analysis = Analysis(net, BFS.replace(
            scheme=scheme, reorder=reorder, reorder_threshold=20))
        result = analysis.run()
        assert result.markings == explicit_counts[name]
        assert {m.support for m in analysis.symbolic_net.markings_of(
            result.reachable)} == {
            m.support for m in ReachabilityGraph(net).markings}
        symnet = analysis.symbolic_net
        cubes = symnet._force_cubes
        assert set(cubes) == set(net.transitions)
        for transition in net.transitions:
            symnet.image(result.reachable, transition)
        assert symnet._force_cubes is cubes
