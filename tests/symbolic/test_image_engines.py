"""Tests for partitioned transition relations and the image engines.

Covers the three acceptance properties of the relational-product layer:
``and_exists`` agrees with (but never materialises) the conjunction, the
partition blocks compose to exactly the per-transition image union, and
all image engines reach the same fixpoint on the generator nets.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (RELATIONAL_ENGINES, Analysis, AnalysisSpec,
                            SpecError, analyze)
from repro.dd import sift
from repro.encoding import ImprovedEncoding, SparseEncoding
from repro.petri import ReachabilityGraph
from repro.petri.generators import (figure1_net, figure4_net, muller,
                                    philosophers, slotted_ring)
from repro.symbolic import RelationalNet, SymbolicNet, sort_by_support

# Net instances come from the shared fixtures in tests/conftest.py
# (make_net builds them, explicit_counts is the enumeration oracle).
FAMILIES = ["figure1", "figure4", "muller4", "slot2", "phil3"]
SCHEMES = ["sparse", "dense", "improved"]


def reversed_pair_order(relnet):
    """The relational net's current/next pairs, last pair on top."""
    pairs = [(name, name + "'") for name in relnet.current]
    return [v for pair in reversed(pairs) for v in pair]


def relational(engine="monolithic", **changes):
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
            relnet = RelationalNet(ImprovedEncoding(make_net(name)))
            bdd = relnet.bdd
            states = relnet.initial
            for transition in relnet.net.transitions:
                relation = relnet.relations[transition]
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
        analysis = Analysis(muller(4), relational("chained"))
        relnet = analysis.symbolic_net
        bdd = relnet.bdd
        relation = relnet.monolithic_relation()
        states = analysis.reachable
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
        relnet = RelationalNet(SparseEncoding(figure1_net()))
        bdd = relnet.bdd
        relation = relnet.monolithic_relation()
        assert bdd.and_exists(relnet.initial.node, relation.node, ()) \
            == bdd.apply_and(relnet.initial.node, relation.node)

    def test_dedicated_cache_survives_and_clears(self):
        relnet = RelationalNet(ImprovedEncoding(figure4_net()))
        bdd = relnet.bdd
        relation = relnet.monolithic_relation()
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
    """Random reachable-subset images: fused == materialised, and the
    sparse partition blocks union to the per-transition image union."""
    import random

    rng = random.Random(seed)
    net = muller(3) if seed % 2 else slotted_ring(2)
    relnet = RelationalNet(ImprovedEncoding(net))
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
    relation = relnet.monolithic_relation()
    fused = bdd.and_exists(states.node, relation.node, relnet.current)
    materialised = bdd.exists(bdd.apply_and(states.node, relation.node),
                              relnet.current)
    assert fused == materialised

    # partition blocks vs per-transition images
    assert relnet.image_partitioned(states, relnet.partitions()) \
        == relnet.image_all(states)


# ---------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------

class TestPartitions:
    def test_every_transition_in_exactly_one_block(self):
        relnet = RelationalNet(ImprovedEncoding(philosophers(3)))
        seen = [block.transition for block in relnet.partitions()]
        assert sorted(seen) == sorted(relnet.net.transitions)

    def test_blocks_are_support_sorted(self):
        relnet = RelationalNet(ImprovedEncoding(slotted_ring(3)))
        tops = [relnet.top_level(block) for block in relnet.partitions()]
        assert tops == sorted(tops)

    def test_partition_is_built_once(self):
        relnet = RelationalNet(ImprovedEncoding(figure4_net()))
        assert relnet.partitions() is relnet.partitions()

    def test_sparse_block_support_is_local(self):
        """Per-transition sparse relations must not mention every
        variable the way the identity-complete relations do."""
        relnet = RelationalNet(ImprovedEncoding(philosophers(4)))
        full_width = 2 * len(relnet.current)
        widths = [len(block.support) for block in relnet.partitions()]
        assert max(widths) < full_width

    def test_sort_by_support_orders_by_top_level(self):
        supports = {"a": frozenset({3}), "b": frozenset({0}),
                    "c": frozenset({1}), "d": frozenset()}
        assert sort_by_support(["a", "b", "c", "d"], supports.__getitem__,
                               lambda v: v) == ["b", "c", "a", "d"]


# ---------------------------------------------------------------------
# Engines
# ---------------------------------------------------------------------

class TestImageEngines:
    @pytest.mark.parametrize("name", FAMILIES)
    @pytest.mark.parametrize("engine", RELATIONAL_ENGINES)
    def test_engines_reach_explicit_fixpoint(self, name, engine, make_net,
                                             explicit_counts):
        result = analyze(make_net(name), relational(engine))
        assert result.markings == explicit_counts[name]
        assert result.engine == f"relational/{engine}"

    @pytest.mark.parametrize("name", FAMILIES)
    def test_per_transition_union_reaches_explicit_fixpoint(
            self, name, make_net, explicit_counts):
        """Breadth-first iteration of the Eq. 3 reference image (the
        union of the per-transition images) reaches the explicit
        fixpoint."""
        relnet = RelationalNet(ImprovedEncoding(make_net(name)))
        blocks = relnet.partitions()
        reached = frontier = relnet.initial
        while not relnet.state_is_empty(frontier):
            image = relnet.image_partitioned(frontier, blocks)
            frontier = relnet.state_diff(image, reached)
            reached = relnet.state_union(reached, frontier)
        assert relnet.count_markings(reached) == explicit_counts[name]

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
                                 AnalysisSpec(strategy="chaining",
                                              reorder=False))
            chained = analyze(make_net(name), relational("chained"))
            assert functional.markings == chained.markings \
                == explicit_counts[name]

    def test_chained_cuts_iterations(self):
        bfs = analyze(slotted_ring(3), relational("monolithic"))
        chained = analyze(slotted_ring(3), relational("chained"))
        assert chained.iterations < bfs.iterations
        assert chained.markings == bfs.markings

    def test_unknown_engine_rejected(self):
        with pytest.raises(SpecError, match="monolithic"):
            relational("quantum")

    def test_max_iterations_guard(self):
        with pytest.raises(RuntimeError):
            analyze(slotted_ring(2), relational(None, max_iterations=1))


# ---------------------------------------------------------------------
# Adaptive traversal: reordering
# ---------------------------------------------------------------------

class TestAdaptiveTraversal:
    @pytest.mark.parametrize("name", FAMILIES)
    @pytest.mark.parametrize("engine", RELATIONAL_ENGINES)
    def test_engines_agree_with_reordering_enabled(self, name, engine,
                                                   make_net,
                                                   explicit_counts):
        """Acceptance: identical reachable sets with dynamic reordering
        (pair-grouped sifting; the chained sweep re-sorts the
        per-transition partition by the order it finds)."""
        result = analyze(make_net(name), relational(
            engine, reorder=True, reorder_threshold=200))
        assert result.markings == explicit_counts[name]

    @pytest.mark.parametrize("name", FAMILIES)
    def test_per_transition_chained_agrees_with_reordering_enabled(
            self, name, make_net, explicit_counts):
        """With one block per transition, every sweep after a reorder
        re-sorts the whole per-transition partition; the fixpoint must
        not move and the partition follows the final order."""
        analysis = Analysis(make_net(name), relational(
            "chained", reorder=True, reorder_threshold=200))
        assert analysis.run().markings == explicit_counts[name]
        relnet = analysis.symbolic_net
        tops = [relnet.top_level(block) for block in relnet.partitions()]
        assert tops == sorted(tops)

    def test_auto_reorder_honored_on_supplied_manager(self,
                                                      explicit_counts):
        from repro.bdd import BDD
        relnet = RelationalNet(ImprovedEncoding(philosophers(3)),
                               bdd=BDD(), auto_reorder=True,
                               reorder_threshold=100)
        assert relnet.bdd.auto_reorder
        # Step the chained sweep by hand: the fixpoint runs on this
        # net's own manager, with its safe point after every step.
        reached = frontier = relnet.initial
        while not frontier.is_zero():
            swept = relnet.image_chained(frontier, reached=reached)
            reached, frontier = reached | swept, swept - reached
            del swept
            relnet.bdd.checkpoint()
        assert relnet.bdd.reorder_count > 0
        assert relnet.count_markings(reached) == explicit_counts["phil3"]

    def test_reordering_actually_happens(self, explicit_counts):
        result = analyze(philosophers(3), relational(
            "chained", reorder=True, reorder_threshold=100))
        assert result.reorder_count > 0
        assert result.markings == explicit_counts["phil3"]

    def test_pairs_stay_adjacent_after_traversal_reorder(self):
        analysis = Analysis(slotted_ring(2), relational(
            "chained", reorder=True, reorder_threshold=100))
        analysis.run()
        relnet = analysis.symbolic_net
        assert relnet.bdd.reorder_count > 0
        for name in relnet.current:
            current = relnet.bdd.level_of_var(name)
            nxt = relnet.bdd.level_of_var(name + "'")
            assert nxt == current + 1

    def test_partition_image_equals_per_transition_union(self):
        relnet = RelationalNet(ImprovedEncoding(muller(4)))
        states = relnet.initial
        assert relnet.image_partitioned(states, relnet.partitions()) \
            == relnet.image_all(states)

    def test_sparse_relations_survive_reorder(self):
        """Building the partition and re-sorting it after a reorder
        must reuse the sparse relations and supports instead of
        re-walking them."""
        relnet = RelationalNet(ImprovedEncoding(philosophers(3)))
        first = relnet.sparse_relations()
        relnet.partitions()
        relnet.bdd.set_order(reversed_pair_order(relnet))
        relnet.partitions()
        assert relnet.sparse_relations() is first
        transition = relnet.net.transitions[0]
        assert relnet.transition_support(transition) \
            is relnet.transition_support(transition)


class TestSweepFollowsOrder:
    def test_blocks_follow_set_order(self):
        """After an explicit set_order the partition is sorted by every
        block's top level under the new order; the blocks, their
        relations and their quantified variables stay as built."""
        relnet = RelationalNet(ImprovedEncoding(slotted_ring(2)))
        bdd = relnet.bdd
        before = list(relnet.partitions())
        bdd.set_order(reversed_pair_order(relnet))
        after = relnet.partitions()
        tops = [relnet.top_level(block) for block in after]
        assert tops == sorted(tops)
        assert tops != [relnet.top_level(block) for block in before]
        assert sorted(after, key=id) == sorted(before, key=id)
        for block in after:
            assert relnet.top_level(block) == min(
                bdd.level_of_var(v) for v in block.support)

    def test_blocks_follow_sift(self):
        """A sifting pass moves the order; the next partitions() call
        sorts the blocks by it."""
        relnet = RelationalNet(ImprovedEncoding(slotted_ring(3)))
        bdd = relnet.bdd
        relnet.partitions()
        version = bdd.order_version
        sift(bdd, groups=bdd.sift_groups)
        assert bdd.order_version != version
        tops = [relnet.top_level(block) for block in relnet.partitions()]
        assert tops == sorted(tops)

    def test_images_correct_after_set_order(self, explicit_counts):
        analysis = Analysis(slotted_ring(2), relational("chained"))
        relnet = analysis.symbolic_net
        relnet.partitions()
        expected = relnet.image_all(relnet.initial)
        relnet.bdd.set_order(reversed_pair_order(relnet))
        blocks = relnet.partitions()
        assert relnet.image_partitioned(relnet.initial, blocks) == expected
        assert analysis.result.markings == explicit_counts["slot2"]


# ---------------------------------------------------------------------
# Functional-path support ordering
# ---------------------------------------------------------------------

class TestFunctionalClusters:
    def test_support_sorted_transitions_is_permutation(self):
        symnet = SymbolicNet(ImprovedEncoding(philosophers(3)))
        assert sorted(symnet.support_sorted_transitions()) \
            == sorted(symnet.net.transitions)

    def test_support_chain_order_reaches_fixpoint(self, make_net,
                                                  explicit_counts):
        for name in FAMILIES:
            result = analyze(make_net(name), AnalysisSpec(
                strategy="chaining", use_toggle=False, reorder=False))
            assert result.markings == explicit_counts[name]
