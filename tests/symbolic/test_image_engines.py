"""Tests for the relational BDD form and the fused relational product.

Covers ``and_exists`` on real transition relations over an interleaved
current/next manager (it agrees with, but never materialises, the
conjunction), breadth-first iteration of the Eq. 3 per-transition
image union up to the relational session's saturation set, and the
relational engine reaching the explicit fixpoint on the generator
nets, on every scheme and with sifting.  The relational session itself
declares no next-state copy; the interleaved manager is built here
(:mod:`interleaved`).
"""

import pytest
from hypothesis import given, settings, strategies as st
from interleaved import (InterleavedNet, bfs_through, monolithic_relation,
                         transfer, transition_relation)

from repro.analysis import (RELATIONAL_ENGINES, Analysis, AnalysisSpec,
                            SpecError, analyze)
from repro.encoding import ImprovedEncoding, SparseEncoding
from repro.petri import ReachabilityGraph
from repro.petri.generators import (figure1_net, figure4_net, muller,
                                    philosophers, slotted_ring)
from repro.symbolic import SymbolicNet

# Net instances come from the shared fixtures in tests/conftest.py
# (make_net builds them, explicit_counts is the enumeration oracle).
FAMILIES = ["figure1", "figure4", "muller4", "slot2", "phil3"]
SCHEMES = ["sparse", "dense", "improved"]
# Every family on every scheme; the default (improved) scheme keeps the
# bare family name as its id.
SCHEME_CASES = [pytest.param(name, scheme, id=name if scheme == "improved"
                             else f"{name}-{scheme}")
                for name in FAMILIES for scheme in SCHEMES]


def relational(engine="saturation", **changes):
    """A relational spec on a fixed variable order unless overridden."""
    return AnalysisSpec(form="relational", engine=engine,
                        **dict(dict(reorder=False), **changes))


# ---------------------------------------------------------------------
# The fused relational product
# ---------------------------------------------------------------------

class TestAndExists:
    def test_agrees_with_materialised_composition(self, make_net):
        """``and_exists(S, R, cube)`` == ``exists(S AND R, cube)`` on the
        real relation BDDs of every generator family."""
        for name in FAMILIES:
            relnet = InterleavedNet(ImprovedEncoding(make_net(name)))
            bdd = relnet.bdd
            states = relnet.initial
            for transition in relnet.net.transitions:
                relation = transition_relation(relnet, transition)
                fused = bdd.and_exists(states.node, relation.node,
                                       relnet.current)
                materialised = bdd.exists(
                    bdd.apply_and(states.node, relation.node),
                    relnet.current)
                assert fused == materialised

    def test_never_builds_the_full_conjunction(self):
        """The one-pass product must not conjoin the operands wholesale;
        only strict subproblems may reach ``apply_and`` (via the
        below-quantification fallback)."""
        analysis = Analysis(muller(4), relational())
        relnet = InterleavedNet(analysis.symbolic_net.encoding)
        bdd = relnet.bdd
        relation = monolithic_relation(relnet)
        states = transfer(analysis.reachable, relnet)
        bdd.clear_caches()
        conjoined = []
        original = bdd.apply_and

        def spy(u, v):
            conjoined.append(frozenset((u, v)))
            return original(u, v)

        bdd.apply_and = spy
        try:
            bdd.and_exists(states.node, relation.node, relnet.current)
        finally:
            bdd.apply_and = original
        assert frozenset((states.node, relation.node)) not in conjoined

    def test_empty_cube_degenerates_to_and(self):
        relnet = InterleavedNet(SparseEncoding(figure1_net()))
        bdd = relnet.bdd
        relation = monolithic_relation(relnet)
        assert bdd.and_exists(relnet.initial.node, relation.node, ()) \
            == bdd.apply_and(relnet.initial.node, relation.node)

    def test_dedicated_cache_survives_and_clears(self):
        relnet = InterleavedNet(ImprovedEncoding(figure4_net()))
        bdd = relnet.bdd
        relation = monolithic_relation(relnet)
        bdd.and_exists(relnet.initial.node, relation.node, relnet.current)
        assert bdd.ae_calls > 0 and bdd.ae_recursions > 0
        before = bdd.ae_cache_hits
        bdd.and_exists(relnet.initial.node, relation.node, relnet.current)
        assert bdd.ae_cache_hits > before
        bdd.clear_caches()
        assert not bdd._ae_cache


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_randomized_state_sets_image_equivalence(seed):
    """Random reachable-subset images: fused == materialised."""
    import random

    rng = random.Random(seed)
    net = muller(3) if seed % 2 else slotted_ring(2)
    relnet = InterleavedNet(ImprovedEncoding(net))
    bdd = relnet.bdd
    graph = ReachabilityGraph(net)
    markings = sorted(graph.markings, key=lambda m: sorted(m.support))
    chosen = rng.sample(markings, rng.randint(1, len(markings)))
    states = relnet.initial
    from repro.bdd import cube
    for marking in chosen:
        assignment = relnet.encoding.marking_to_assignment(marking)
        states = states | cube(bdd, assignment)

    # fused vs materialised, through the monolithic relation
    relation = monolithic_relation(relnet)
    fused = bdd.and_exists(states.node, relation.node, relnet.current)
    materialised = bdd.exists(bdd.apply_and(states.node, relation.node),
                              relnet.current)
    assert fused == materialised


# ---------------------------------------------------------------------
# Engines
# ---------------------------------------------------------------------

class TestImageEngines:
    @pytest.mark.parametrize("name, scheme", SCHEME_CASES)
    @pytest.mark.parametrize("engine", RELATIONAL_ENGINES)
    def test_engines_reach_explicit_fixpoint(self, name, engine, scheme,
                                             make_net, explicit_counts):
        result = analyze(make_net(name), relational(engine, scheme=scheme))
        assert result.markings == explicit_counts[name]
        assert result.engine == f"relational/{engine}"

    @pytest.mark.parametrize("name, scheme", SCHEME_CASES)
    def test_per_transition_union_reaches_explicit_fixpoint(
            self, name, scheme, make_net, explicit_counts):
        """Breadth-first iteration of the Eq. 3 reference image (the
        union of the per-transition images through ``R_t``) reaches the
        explicit fixpoint: the relational session's reached set, and
        the saturation set of the interleaved manager itself."""
        analysis = Analysis(make_net(name), relational(scheme=scheme))
        relnet = InterleavedNet(analysis.symbolic_net.encoding)
        reached = bfs_through(relnet, [
            transition_relation(relnet, transition)
            for transition in relnet.net.transitions])
        assert relnet.count_markings(reached) == explicit_counts[name]
        assert reached == transfer(analysis.reachable, relnet) \
            == relnet.saturate()

    @pytest.mark.parametrize("name", FAMILIES)
    def test_monolithic_relation_reaches_explicit_fixpoint(
            self, name, make_net, explicit_counts):
        """The textbook image through the one relation ``OR_t R_t``
        lands on the same node."""
        analysis = Analysis(make_net(name), relational())
        relnet = InterleavedNet(analysis.symbolic_net.encoding)
        reached = bfs_through(relnet, [monolithic_relation(relnet)])
        assert relnet.count_markings(reached) == explicit_counts[name]
        assert reached == transfer(analysis.reachable, relnet) \
            == relnet.saturate()

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("reorder", [False, True],
                             ids=["fixed", "sifted"])
    def test_engines_agree_across_schemes(self, scheme, reorder, make_net,
                                          explicit_counts):
        for name in ("figure4", "slot2"):
            counts = {
                analyze(make_net(name),
                        relational(engine, scheme=scheme, reorder=reorder,
                                   reorder_threshold=20)).markings
                for engine in RELATIONAL_ENGINES}
            assert counts == {explicit_counts[name]}

    def test_engines_match_functional_traversal(self, make_net,
                                                explicit_counts):
        for name in FAMILIES:
            functional = analyze(make_net(name),
                                 AnalysisSpec(reorder=False))
            saturated = analyze(make_net(name), relational())
            assert functional.markings == saturated.markings \
                == explicit_counts[name]

    def test_unknown_engine_rejected(self):
        with pytest.raises(SpecError, match="saturation"):
            relational("quantum")

    def test_max_iterations_guard(self):
        with pytest.raises(RuntimeError):
            analyze(slotted_ring(2), relational(None, max_iterations=1))


# ---------------------------------------------------------------------
# Adaptive traversal: reordering
# ---------------------------------------------------------------------

class TestAdaptiveTraversal:
    @pytest.mark.parametrize("name, scheme", SCHEME_CASES)
    @pytest.mark.parametrize("engine", RELATIONAL_ENGINES)
    def test_engines_agree_with_reordering_enabled(self, name, engine,
                                                   scheme, make_net,
                                                   explicit_counts):
        """Acceptance: identical reachable sets with dynamic reordering
        (pair-grouped sifting at the band boundaries), on every
        scheme."""
        result = analyze(make_net(name), relational(
            engine, scheme=scheme, reorder=True, reorder_threshold=20))
        assert result.markings == explicit_counts[name]

    def test_auto_reorder_honored_on_supplied_manager(self):
        from repro.bdd import BDD
        symnet = SymbolicNet(ImprovedEncoding(philosophers(3)),
                             bdd=BDD(), auto_reorder=True,
                             reorder_threshold=100)
        assert symnet.bdd.auto_reorder
        assert symnet.bdd.reorder_threshold == 100

    def test_reordering_actually_happens(self, explicit_counts):
        result = analyze(philosophers(3), relational(
            reorder=True, reorder_threshold=20))
        assert result.reorder_count > 0
        assert result.markings == explicit_counts["phil3"]

    def test_pairs_stay_adjacent_after_traversal_reorder(self):
        """The chained ZDD sweep is what still declares next-state
        copies; its traversal sifts each current/next pair as one
        block."""
        analysis = Analysis(slotted_ring(2), AnalysisSpec(
            backend="zdd", engine="chained", reorder=True,
            reorder_threshold=20))
        analysis.run()
        znet = analysis.symbolic_net
        assert znet.zdd.reorder_count > 0
        for name in znet.net.places:
            current = znet.zdd.level_of_var(name)
            nxt = znet.zdd.level_of_var(name + "'")
            assert nxt == current + 1


# ---------------------------------------------------------------------
# The functional default: saturation by force events
# ---------------------------------------------------------------------

class TestFunctionalDefault:
    def test_saturation_events_are_the_transitions_in_net_order(self):
        symnet = SymbolicNet(ImprovedEncoding(philosophers(3)))
        assert symnet.saturation_events() == [
            (dict(symnet.specs[t].force), symnet.enabling[t].node)
            for t in symnet.net.transitions]

    def test_default_reaches_fixpoint(self, make_net, explicit_counts):
        for name in FAMILIES:
            result = analyze(make_net(name), AnalysisSpec(reorder=False))
            assert result.markings == explicit_counts[name]
            assert result.iterations == 2
