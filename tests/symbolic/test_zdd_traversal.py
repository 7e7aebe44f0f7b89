"""Unit tests for the sparse-ZDD engines (Table 4 baseline + relational).

Net instances come from the shared fixtures in ``tests/conftest.py``;
the cross-engine set-identity matrix lives in ``test_engine_diff.py``.
"""

import pytest

from repro.analysis import Analysis, AnalysisSpec, SpecError, analyze
from repro.dd import sift
from repro.petri import Marking, ReachabilityGraph, place_order
from repro.petri.generators import figure1_net, figure4_net
from repro.symbolic import ZddNet, ZddRelationalNet

# The classic per-transition rewrite and the chained relational engine,
# both on a fixed element order.
CLASSIC = AnalysisSpec(backend="zdd", form="functional", reorder=False)
CHAINED = AnalysisSpec(backend="zdd", engine="chained", reorder=False)


class TestZddNet:
    def test_fresh_manager_required(self):
        from repro.bdd import ZDD
        zdd = ZDD(var_names=["stale"])
        with pytest.raises(ValueError):
            ZddNet(figure1_net(), zdd=zdd)

    def test_initial_family(self):
        zddnet = ZddNet(figure1_net())
        assert zddnet.markings_of(zddnet.initial) == [Marking(["p1"])]

    def test_image_single_transition(self):
        zddnet = ZddNet(figure1_net())
        successors = zddnet.image(zddnet.initial, "t1")
        assert zddnet.markings_of(successors) == [Marking(["p2", "p3"])]

    def test_image_disabled_is_empty(self):
        zddnet = ZddNet(figure1_net())
        assert zddnet.image(zddnet.initial, "t7") == zddnet.zdd.empty()

    def test_image_with_self_loops(self, make_net):
        """Read arcs must survive firing (muller uses them heavily)."""
        net = make_net("muller3")
        zddnet = ZddNet(net)
        rg = ReachabilityGraph(net)
        for trans, successor in rg.successors(rg.initial):
            image = zddnet.image(zddnet.initial, trans)
            assert zddnet.markings_of(image) == [successor]

    def test_image_all_matches_explicit_successors(self):
        net = figure1_net()
        zddnet = ZddNet(net)
        rg = ReachabilityGraph(net)
        successors = zddnet.image_all(zddnet.initial)
        expected = {m.support for _, m in rg.successors(rg.initial)}
        assert {m.support for m in zddnet.markings_of(successors)} \
            == expected


class TestZddRelationalNet:
    def test_fresh_manager_required(self):
        from repro.bdd import ZDD
        zdd = ZDD(var_names=["stale"])
        with pytest.raises(ValueError):
            ZddRelationalNet(figure1_net(), zdd=zdd)

    def test_paired_interleaved_elements(self):
        """Pair *k* of the structural place order sits at levels 2k
        (current) and 2k+1 (next)."""
        relnet = ZddRelationalNet(figure1_net())
        zdd = relnet.zdd
        assert zdd.num_vars == 2 * len(relnet.net.places)
        order = zdd.order()
        for index, place in enumerate(place_order(relnet.net)):
            assert order[2 * index] == place
            assert order[2 * index + 1] == place + "'"

    def test_initial_family_over_current_elements(self):
        relnet = ZddRelationalNet(figure1_net())
        assert relnet.markings_of(relnet.initial) == [Marking(["p1"])]

    def test_sparse_relation_shape(self):
        """Each sparse relation is the single set ``I ∪ O'`` and its
        support stays local to the touched places."""
        relnet = ZddRelationalNet(figure4_net())
        zdd = relnet.zdd
        full_width = 2 * len(relnet.net.places)
        for transition, sparse in relnet.sparse_relations().items():
            pre = relnet.net.preset(transition)
            post = relnet.net.postset(transition)
            sets = zdd.to_name_sets(sparse.relation)
            assert sets == [frozenset(pre)
                            | frozenset(p + "'" for p in post)]
            assert len(sparse.support) < full_width
            assert sparse.support == relnet.transition_support(transition)

    def test_image_all_matches_classic(self, make_net):
        """The relational per-transition image equals the classic
        subset1/change rewrite on the same family."""
        for name in ("figure1", "muller3", "slot2"):
            net = make_net(name)
            classic = ZddNet(net)
            relational = ZddRelationalNet(make_net(name))
            reached = classic.initial
            rel_states = relational.initial
            for _ in range(3):
                classic_img = classic.image_all(reached)
                relational_img = relational.image_all(rel_states)
                classic_sets = {m.support
                                for m in classic.markings_of(classic_img)}
                relational_sets = {
                    m.support
                    for m in relational.markings_of(relational_img)}
                assert classic_sets == relational_sets, name
                reached = classic.zdd.union(reached, classic_img)
                rel_states = relational.zdd.union(rel_states,
                                                  relational_img)

    def test_partition_blocks_cover_all_transitions(self):
        relnet = ZddRelationalNet(figure4_net())
        seen = [block.transition for block in relnet.partitions()]
        assert sorted(seen) == sorted(relnet.net.transitions)

    def test_blocks_are_support_sorted(self, make_net):
        relnet = ZddRelationalNet(make_net("slot2"))
        tops = [relnet.top_level(block) for block in relnet.partitions()]
        assert tops == sorted(tops)

    def test_blocks_follow_set_order(self, make_net):
        relnet = ZddRelationalNet(make_net("slot2"))
        relnet.partitions()
        zdd = relnet.zdd
        elements = [zdd.var_at_level(level) for level in range(zdd.num_vars)]
        pairs = [elements[i:i + 2] for i in range(0, len(elements), 2)]
        zdd.set_order([v for pair in pairs[::-1] for v in pair])
        tops = [relnet.top_level(block) for block in relnet.partitions()]
        assert tops == sorted(tops)

    def test_blocks_follow_sift(self, make_net):
        relnet = ZddRelationalNet(make_net("slot2"))
        relnet.partitions()
        zdd = relnet.zdd
        version = zdd.order_version
        sift(zdd, groups=zdd.sift_groups)
        assert zdd.order_version != version
        tops = [relnet.top_level(block) for block in relnet.partitions()]
        assert tops == sorted(tops)

    def test_partition_is_built_once(self):
        relnet = ZddRelationalNet(figure4_net())
        assert relnet.partitions() is relnet.partitions()

    @pytest.mark.parametrize("name", ["muller4", "phil3", "slot2"])
    def test_partitioned_image_equals_per_transition_union(self, name,
                                                           make_net):
        relnet = ZddRelationalNet(make_net(name))
        states = relnet.initial
        assert relnet.image_partitioned(states, relnet.partitions()) \
            == relnet.image_all(states)

    def test_rename_maps_are_order_monotone(self):
        relnet = ZddRelationalNet(figure4_net())
        for block in relnet.partitions():
            pairs = sorted(block.rename.items())
            targets = [dst for _, dst in pairs]
            assert targets == sorted(targets)
            for src, dst in pairs:
                assert src == dst + 1  # next element right below current


class TestTraversal:
    @pytest.mark.parametrize("name,expected", [
        ("figure1", 8),
        ("figure4", 22),
        ("muller3", 30),
        ("slot2", 40),
    ])
    @pytest.mark.parametrize("spec", [
        CLASSIC, CHAINED, CHAINED.replace(reorder=True, reorder_threshold=20)],
        ids=["classic", "chained", "chained-sifted"])
    def test_counts_match_explicit(self, name, expected, spec, make_net):
        result = analyze(make_net(name), spec)
        assert result.markings == expected
        assert result.engine == spec.engine_id

    def test_reachable_family_decodes_exactly(self):
        net = figure4_net()
        analysis = Analysis(net, CLASSIC)
        explicit = {m.support for m in ReachabilityGraph(net).markings}
        symbolic = {m.support for m in
                    analysis.symbolic_net.markings_of(analysis.reachable)}
        assert symbolic == explicit

    def test_statistics(self):
        result = analyze(figure1_net(), CLASSIC)
        assert result.variables == 7
        assert result.final_nodes > 2
        assert result.iterations > 0
        assert result.engine == "zdd/classic"
        assert result.markings == 8

    def test_chained_cuts_iterations(self, make_net):
        classic = analyze(make_net("slot2"), CLASSIC)
        chained = analyze(make_net("slot2"), CHAINED)
        assert chained.iterations < classic.iterations
        assert chained.markings == classic.markings

    def test_unknown_engine_rejected(self):
        with pytest.raises(SpecError, match="chained"):
            CHAINED.replace(engine="quantum")

    def test_max_iterations_guard(self):
        with pytest.raises(RuntimeError):
            analyze(figure4_net(), CLASSIC.replace(max_iterations=1))
        with pytest.raises(RuntimeError):
            analyze(figure4_net(), CHAINED.replace(max_iterations=1))

    def test_fused_cache_counters_exposed(self, make_net):
        analysis = Analysis(make_net("phil3"), CHAINED)
        analysis.run()
        zdd = analysis.symbolic_net.zdd
        assert zdd.ae_calls > 0
        assert zdd.ae_cache_hits > 0

    def test_zdd_smaller_than_place_count_blowup(self, make_net):
        """ZDD nodes stay near-linear for these structured families —
        the Yoneda effect that motivates Table 4's baseline."""
        small = analyze(make_net("slot2"), CLASSIC).final_nodes
        large = analyze(make_net("slot4"), CLASSIC).final_nodes
        assert large < small * 8  # mild growth, not explosion
