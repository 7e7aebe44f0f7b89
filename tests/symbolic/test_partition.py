"""Tests for the shared relational layer (repro.symbolic.partition).

Covers the behaviours the unified layer added on top of the old
per-manager copies: reorder-aware reclustering of ``"auto"`` partitions,
diff-based working-set narrowing of the chained sweep, and the fact that
one engine class hierarchy drives both managers.  It also pins the
order independence of the Eq. 3 union of per-block images.
"""

import random

import pytest

from repro.analysis import Analysis, AnalysisSpec, analyze
from repro.encoding import ImprovedEncoding
from repro.petri.generators import figure4_net, philosophers, slotted_ring
from repro.symbolic import (IMAGE_ENGINES, ZDD_RELATIONAL_ENGINES,
                            ChainedImageEngine, ImageEngine, RelationalNet,
                            ZddRelationalNet, make_image_engine)
from repro.symbolic.partition import PartitionedNet

# Relational fixpoints on a fixed variable order (BDD and ZDD).
BDD_RELATIONAL = AnalysisSpec(form="relational", reorder=False)
ZDD_CHAINED = AnalysisSpec(backend="zdd", engine="chained", reorder=False)


class TestUnifiedLayer:
    def test_both_nets_share_the_partition_layer(self):
        assert issubclass(RelationalNet, PartitionedNet)
        assert issubclass(ZddRelationalNet, PartitionedNet)

    def test_zdd_engines_are_the_generic_engines(self):
        """The relational ZDD session runs the same engine class that
        drives the BDD net."""
        analysis = Analysis(figure4_net(), ZDD_CHAINED.replace(
            cluster_size=2))
        engine = analysis.session.image_engine
        assert type(engine) is ChainedImageEngine
        assert engine.name == "chained"
        assert engine.relnet is analysis.symbolic_net

    def test_generic_factory_serves_the_zdd_net_too(self):
        """make_image_engine is manager-agnostic: handing it a ZDD
        relational net yields a working chained engine."""
        relnet = ZddRelationalNet(slotted_ring(2))
        engine = make_image_engine(relnet, "chained", cluster_size=2)
        assert isinstance(engine, ImageEngine)
        reached = frontier = relnet.initial
        while not relnet.state_is_empty(frontier):
            reached, frontier = engine.advance(reached, frontier)
            relnet.zdd.checkpoint()
        assert relnet.count_markings(reached) == 40


class TestChainedNarrowing:
    def test_narrowed_sweep_matches_full_sweep_closure(self):
        """The diff-narrowed chained sweep reaches the same fixpoint
        (trajectory equivalence modulo already-reached states)."""
        for make, net_cls in ((lambda: RelationalNet(
                ImprovedEncoding(slotted_ring(3))), "bdd"),
                (lambda: ZddRelationalNet(slotted_ring(3)), "zdd")):
            relnet = make()
            blocks = relnet.partitions(2)
            reached = relnet.initial
            frontier = relnet.initial
            plain = relnet.image_chained(frontier, blocks)
            narrowed = relnet.image_chained(frontier, blocks,
                                            reached=reached)
            # First step: nothing expanded yet, identical sweeps.
            assert plain == narrowed, net_cls

    def test_narrowing_skips_expanded_states(self):
        """Per-block working sets must exclude states expanded in
        earlier iterations: successors of the already-expanded states
        may be dropped from the sweep result (they are in reached)."""
        relnet = ZddRelationalNet(slotted_ring(2))
        engine = make_image_engine(relnet, "chained", 1)
        reached = frontier = relnet.initial
        seen_work = []
        original = relnet.image_partition

        def spy(states, block):
            seen_work.append(relnet.zdd.count(states))
            return original(states, block)

        relnet.image_partition = spy
        try:
            reached, frontier = engine.advance(reached, frontier)
            first_counts = list(seen_work)
            seen_work.clear()
            reached, frontier = engine.advance(reached, frontier)
        finally:
            relnet.image_partition = original
        # Second iteration blocks never see the full reached family.
        full = relnet.zdd.count(reached)
        assert seen_work
        assert all(count < full for count in seen_work)
        assert first_counts  # sanity: the spy actually measured

    @pytest.mark.parametrize("spec", [
        BDD_RELATIONAL.replace(engine=engine, cluster_size=2)
        for engine in IMAGE_ENGINES] + [
        ZDD_CHAINED.replace(cluster_size=2)],
        ids=[f"bdd-{engine}" for engine in IMAGE_ENGINES] + ["zdd-chained"])
    def test_fixpoints_agree_across_narrowing_paths(self, spec, make_net,
                                                    explicit_counts):
        for name in ("figure4", "slot2", "phil3"):
            result = analyze(make_net(name), spec)
            assert result.markings == explicit_counts[name]


class TestReorderAwareReclustering:
    def reversed_pair_order(self, relnet):
        pairs = [(name, name + "'") for name in relnet.current]
        return [v for pair in reversed(pairs) for v in pair]

    def test_auto_blocks_recluster_on_set_order(self):
        """Satellite acceptance: the reorder hook re-runs the greedy
        clustering and rebuilds only blocks whose membership changed."""
        relnet = RelationalNet(ImprovedEncoding(philosophers(3)))
        before = relnet.partitions("auto")
        assert relnet.recluster_count == 0
        relnet.bdd.set_order(self.reversed_pair_order(relnet))
        after = relnet.partitions("auto")
        # Membership follows the new support-sorted order.
        seen = sorted(t for block in after for t in block.transitions)
        assert seen == sorted(relnet.net.transitions)
        tops = [block.top_level for block in after]
        assert tops == sorted(tops)
        if {b.transitions for b in after} != {b.transitions
                                              for b in before}:
            assert relnet.recluster_count > 0

    def test_unchanged_groups_keep_their_blocks(self):
        """Rebuilds are scoped to membership changes: a reorder that
        keeps the grouping intact reuses every existing relation."""
        relnet = RelationalNet(ImprovedEncoding(figure4_net()))
        before = {b.transitions: b.relation
                  for b in relnet.partitions("auto")}
        relnet.refresh_partitions()  # no order change at all
        for block in relnet.partitions("auto"):
            assert block.relation is before[block.transitions]
        assert relnet.recluster_count == 0

    def test_zdd_auto_blocks_recluster_too(self):
        relnet = ZddRelationalNet(philosophers(3))
        relnet.partitions("auto")
        order = list(range(relnet.zdd.num_vars))
        # Rotate whole current/next pairs to change support-top levels.
        pairs = [order[i:i + 2] for i in range(0, len(order), 2)]
        rotated = [v for pair in pairs[::-1] for v in pair]
        relnet.zdd.set_order(rotated)
        after = relnet.partitions("auto")
        seen = sorted(t for block in after for t in block.transitions)
        assert seen == sorted(relnet.net.transitions)
        tops = [block.top_level for block in after]
        assert tops == sorted(tops)

    def test_traversal_correct_with_reclustering(self, make_net,
                                                 explicit_counts):
        result = analyze(make_net("phil3"), BDD_RELATIONAL.replace(
            engine="chained", cluster_size="auto", reorder=True,
            reorder_threshold=100))
        assert result.reorder_count > 0
        assert result.markings == explicit_counts["phil3"]


class TestZddReorderTraversal:
    @pytest.mark.parametrize("cluster_size", [1, 2, "auto"])
    def test_relational_engines_with_reorder(self, cluster_size, make_net,
                                             explicit_counts):
        """ZDD relational traversal with pair-grouped sifting enabled
        still pins the explicit counts."""
        spec = ZDD_CHAINED.replace(cluster_size=cluster_size, reorder=True,
                                   reorder_threshold=50)
        for name in ("figure4", "slot2", "phil3"):
            analysis = Analysis(make_net(name), spec)
            result = analysis.run()
            relnet = analysis.symbolic_net
            assert result.markings == explicit_counts[name], name
            assert result.reorder_count > 0, name
            for place in relnet.current:
                cur = relnet.zdd.level_of_var(place)
                nxt = relnet.zdd.level_of_var(place + "'")
                assert nxt == cur + 1

    def test_classic_engine_with_reorder(self, make_net, explicit_counts):
        result = analyze(make_net("muller3"), AnalysisSpec(
            backend="zdd", form="functional", reorder_threshold=20))
        assert result.markings == explicit_counts["muller3"]
        assert result.reorder_count > 0


# ---------------------------------------------------------------------------
# image_partitioned ordering


def test_image_partitioned_is_order_independent(make_net):
    """Shuffling the block list never changes the computed image."""
    relnet = RelationalNet(ImprovedEncoding(make_net("phil3")))
    blocks = relnet.partitions("auto")
    assert len(blocks) > 1
    states = relnet.initial
    baseline = relnet.image_partitioned(states, blocks)
    rng = random.Random(7)
    for _ in range(5):
        shuffled = list(blocks)
        rng.shuffle(shuffled)
        assert relnet.image_partitioned(states, shuffled) == baseline


@pytest.mark.parametrize("family, engine", [("bdd", "monolithic"),
                                            ("zdd", "chained")])
def test_engine_factories_take_no_worker_options(family, engine, make_net):
    """Every image engine runs in-process; the one factory accepts only
    the engine name and granularity, for either manager."""
    if family == "bdd":
        relnet = RelationalNet(ImprovedEncoding(make_net("figure1")))
    else:
        relnet = ZddRelationalNet(make_net("figure1"))
    assert make_image_engine(relnet, engine, cluster_size=1).name == engine
    with pytest.raises(TypeError):
        make_image_engine(relnet, engine, workers=2)


@pytest.mark.parametrize("engine, message", [
    ("monolithic", "not offered by ZddRelationalNet"),
    ("partitioned", "unknown image engine")],
    ids=["monolithic", "partitioned"])
def test_factory_refuses_retired_zdd_engines(engine, message, make_net):
    """A ZDD relational net offers only the engines in
    ZDD_RELATIONAL_ENGINES; the BDD net offers the whole catalogue."""
    relnet = ZddRelationalNet(make_net("figure1"))
    assert relnet.image_engines == ZDD_RELATIONAL_ENGINES
    with pytest.raises(ValueError, match=message):
        make_image_engine(relnet, engine)
    assert RelationalNet(ImprovedEncoding(make_net("figure1"))) \
        .image_engines == IMAGE_ENGINES


def test_bdd_factory_refuses_retired_partitioned_engine(make_net):
    """The retired per-block union engine is gone from the BDD
    catalogue too; the error lists the engines that remain."""
    relnet = RelationalNet(ImprovedEncoding(make_net("figure1")))
    with pytest.raises(ValueError, match="unknown image engine.*chained"):
        make_image_engine(relnet, "partitioned")
