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
from repro.encoding import ImprovedEncoding, SparseEncoding
from repro.petri import ReachabilityGraph
from repro.petri.generators import (figure1_net, figure4_net, muller,
                                    philosophers, slotted_ring)
from repro.symbolic import RelationalNet, SymbolicNet, cluster_by_support

# Net instances come from the shared fixtures in tests/conftest.py
# (make_net builds them, explicit_counts is the enumeration oracle).
FAMILIES = ["figure1", "figure4", "muller4", "slot2", "phil3"]
SCHEMES = ["sparse", "dense", "improved"]


def relational(engine="monolithic", cluster_size=1, **changes):
    """A relational spec on a fixed variable order unless overridden."""
    return AnalysisSpec(form="relational", engine=engine,
                        cluster_size=cluster_size,
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

    # partition blocks vs per-transition images, at several granularities
    per_transition = relnet.image_all(states)
    for cluster_size in (1, 2, 8):
        blocks = relnet.partitions(cluster_size)
        assert relnet.image_partitioned(states, blocks) == per_transition


# ---------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------

class TestPartitions:
    def test_every_transition_in_exactly_one_block(self):
        relnet = RelationalNet(ImprovedEncoding(philosophers(3)))
        for cluster_size in (1, 2, 5, 100):
            blocks = relnet.partitions(cluster_size)
            seen = [t for block in blocks for t in block.transitions]
            assert sorted(seen) == sorted(relnet.net.transitions)
            assert all(len(block.transitions) <= max(1, cluster_size)
                       for block in blocks)

    def test_blocks_are_support_sorted(self):
        relnet = RelationalNet(ImprovedEncoding(slotted_ring(3)))
        blocks = relnet.partitions(4)
        tops = [block.top_level for block in blocks]
        assert tops == sorted(tops)

    def test_partition_cache_by_granularity(self):
        relnet = RelationalNet(ImprovedEncoding(figure4_net()))
        assert relnet.partitions(2) is relnet.partitions(2)
        assert relnet.partitions(2) is not relnet.partitions(3)

    def test_invalid_cluster_size_rejected(self):
        relnet = RelationalNet(ImprovedEncoding(figure4_net()))
        with pytest.raises(ValueError):
            relnet.partitions(0)

    def test_sparse_block_support_is_local(self):
        """Per-transition sparse relations must not mention every
        variable the way the identity-complete relations do."""
        relnet = RelationalNet(ImprovedEncoding(philosophers(4)))
        full_width = 2 * len(relnet.current)
        widths = [len(block.support) for block in relnet.partitions(1)]
        assert max(widths) < full_width

    def test_cluster_by_support_chunks_in_order(self):
        supports = {"a": frozenset({3}), "b": frozenset({0}),
                    "c": frozenset({1}), "d": frozenset()}
        clusters = cluster_by_support(["a", "b", "c", "d"],
                                      supports.__getitem__, lambda v: v, 2)
        assert clusters == [["b", "c"], ["a", "d"]]
        singletons = cluster_by_support(["a", "b", "c", "d"],
                                        supports.__getitem__, lambda v: v, 1)
        assert singletons == [["b"], ["c"], ["a"], ["d"]]


# ---------------------------------------------------------------------
# Engines
# ---------------------------------------------------------------------

class TestImageEngines:
    @pytest.mark.parametrize("name", FAMILIES)
    @pytest.mark.parametrize("engine", RELATIONAL_ENGINES)
    def test_engines_reach_explicit_fixpoint(self, name, engine, make_net,
                                             explicit_counts):
        result = analyze(make_net(name), relational(engine, 3))
        assert result.markings == explicit_counts[name]
        assert result.engine == f"relational/{engine}"

    @pytest.mark.parametrize("name", FAMILIES)
    def test_per_transition_union_reaches_explicit_fixpoint(
            self, name, make_net, explicit_counts):
        """Breadth-first iteration of the Eq. 3 reference image (the
        union of the per-transition images) reaches the explicit
        fixpoint."""
        relnet = RelationalNet(ImprovedEncoding(make_net(name)))
        blocks = relnet.partitions(1)
        reached = frontier = relnet.initial
        while not relnet.state_is_empty(frontier):
            image = relnet.image_partitioned(frontier, blocks)
            frontier = relnet.state_diff(image, reached)
            reached = relnet.state_union(reached, frontier)
        assert relnet.count_markings(reached) == explicit_counts[name]

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("cluster_size", [1, 4])
    def test_engines_agree_across_schemes(self, scheme, cluster_size,
                                          make_net, explicit_counts):
        for name in ("figure4", "slot2"):
            counts = {
                analyze(make_net(name),
                        relational(engine, cluster_size,
                                   scheme=scheme)).markings
                for engine in RELATIONAL_ENGINES}
            assert counts == {explicit_counts[name]}

    def test_engines_match_functional_traversal(self, make_net,
                                                explicit_counts):
        for name in FAMILIES:
            functional = analyze(make_net(name),
                                 AnalysisSpec(strategy="chaining",
                                              reorder=False))
            chained = analyze(make_net(name), relational("chained", 2))
            assert functional.markings == chained.markings \
                == explicit_counts[name]

    def test_chained_cuts_iterations(self):
        bfs = analyze(slotted_ring(3), relational("monolithic", None))
        chained = analyze(slotted_ring(3), relational("chained"))
        assert chained.iterations < bfs.iterations
        assert chained.markings == bfs.markings

    def test_unknown_engine_rejected(self):
        with pytest.raises(SpecError, match="monolithic"):
            relational("quantum")

    def test_max_iterations_guard(self):
        with pytest.raises(RuntimeError):
            analyze(slotted_ring(2), relational(None, max_iterations=1))

    @pytest.mark.parametrize("junk", [0, -3, 2.5, "junk", None, True])
    def test_bad_cluster_size_rejected_up_front(self, junk):
        """partitions() fails fast with a message naming the valid
        values before it clusters anything."""
        relnet = RelationalNet(ImprovedEncoding(figure4_net()))
        with pytest.raises(ValueError, match="auto"):
            relnet.partitions(junk)


# ---------------------------------------------------------------------
# Adaptive traversal: reordering and auto clusters
# ---------------------------------------------------------------------

class TestAdaptiveTraversal:
    @pytest.mark.parametrize("name", FAMILIES)
    @pytest.mark.parametrize("engine", RELATIONAL_ENGINES)
    def test_engines_agree_with_reordering_enabled(self, name, engine,
                                                   make_net,
                                                   explicit_counts):
        """Acceptance: identical reachable sets with dynamic reordering
        (pair-grouped sifting + partition refresh) and auto clustering."""
        result = analyze(make_net(name), relational(
            engine, "auto", reorder=True, reorder_threshold=200))
        assert result.markings == explicit_counts[name]

    @pytest.mark.parametrize("name", FAMILIES)
    def test_per_transition_chained_agrees_with_reordering_enabled(
            self, name, make_net, explicit_counts):
        """With one block per transition, every reorder refreshes the
        whole per-transition partition; the fixpoint must not move."""
        result = analyze(make_net(name), relational(
            "chained", 1, reorder=True, reorder_threshold=200))
        assert result.markings == explicit_counts[name]

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
            swept = relnet.image_chained(frontier, relnet.partitions(1),
                                         reached=reached)
            reached, frontier = reached | swept, swept - reached
            del swept
            relnet.bdd.checkpoint()
        assert relnet.bdd.reorder_count > 0
        assert relnet.count_markings(reached) == explicit_counts["phil3"]

    def test_reordering_actually_happens(self, explicit_counts):
        result = analyze(philosophers(3), relational(
            "chained", 2, reorder=True, reorder_threshold=100))
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

    def test_auto_clusters_cover_all_transitions(self):
        relnet = RelationalNet(ImprovedEncoding(philosophers(3)))
        blocks = relnet.partitions("auto")
        seen = [t for block in blocks for t in block.transitions]
        assert sorted(seen) == sorted(relnet.net.transitions)
        tops = [block.top_level for block in blocks]
        assert tops == sorted(tops)

    def test_auto_partitions_cached(self):
        relnet = RelationalNet(ImprovedEncoding(figure4_net()))
        assert relnet.partitions("auto") is relnet.partitions("auto")

    def test_auto_image_equals_per_transition_union(self):
        relnet = RelationalNet(ImprovedEncoding(muller(4)))
        states = relnet.initial
        blocks = relnet.partitions("auto")
        assert relnet.image_partitioned(states, blocks) \
            == relnet.image_all(states)

    def test_sparse_relations_cached_across_granularities(self):
        """Building partitions at several granularities (ablation
        sweeps) must reuse the sparse relations and supports instead of
        re-walking them."""
        relnet = RelationalNet(ImprovedEncoding(philosophers(3)))
        first = relnet.sparse_relations()
        relnet.partitions(1)
        relnet.partitions(4)
        relnet.partitions("auto")
        assert relnet.sparse_relations() is first
        transition = relnet.net.transitions[0]
        assert relnet.transition_support(transition) \
            is relnet.transition_support(transition)


class TestPartitionRefresh:
    def reversed_pair_order(self, relnet):
        pairs = [(name, name + "'") for name in relnet.current]
        return [v for pair in reversed(pairs) for v in pair]

    def test_metadata_refreshed_after_set_order(self):
        """Satellite: an explicit set_order must refresh every cached
        block's top_level/quantify and re-sort the block list."""
        relnet = RelationalNet(ImprovedEncoding(slotted_ring(2)))
        bdd = relnet.bdd
        before = relnet.partitions(2)
        relations_before = {b.label: b.relation for b in before}
        bdd.set_order(self.reversed_pair_order(relnet))
        after = relnet.partitions(2)
        tops = [block.top_level for block in after]
        assert tops == sorted(tops)
        for block in after:
            assert block.top_level == min(
                bdd.level_of_var(v) for v in block.support)
            levels = [bdd.level_of_var(v) for v in block.quantify]
            assert levels == sorted(levels)
            # Relations themselves are stable handles, never rebuilt.
            assert block.relation is relations_before[block.label]

    def test_images_correct_after_set_order(self, explicit_counts):
        analysis = Analysis(slotted_ring(2), relational("chained", 2))
        relnet = analysis.symbolic_net
        blocks = relnet.partitions(2)
        expected = relnet.image_all(relnet.initial)
        relnet.bdd.set_order(self.reversed_pair_order(relnet))
        blocks = relnet.partitions(2)
        assert relnet.image_partitioned(relnet.initial, blocks) == expected
        assert analysis.result.markings == explicit_counts["slot2"]

    def test_refresh_fires_for_every_cached_granularity(self):
        relnet = RelationalNet(ImprovedEncoding(figure4_net()))
        relnet.partitions(1)
        relnet.partitions(3)
        relnet.partitions("auto")
        relnet.bdd.set_order(self.reversed_pair_order(relnet))
        for key in (1, 3, "auto"):
            for block in relnet.partitions(key):
                assert block.top_level == min(
                    relnet.bdd.level_of_var(v) for v in block.support)


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
