"""Tests for the shared relational layer (repro.symbolic.partition).

Covers the behaviours the unified layer added on top of the old
per-manager copies: reorder-aware reclustering of ``"auto"`` partitions,
diff-based working-set narrowing of the chained sweep, the size-gated
once-per-sweep Coudert-Madre restriction, and the fact that one engine
class hierarchy drives both managers.  It also pins the serial
partitioned sweep's union order.
"""

import random

import pytest

from repro.encoding import ImprovedEncoding
from repro.petri.generators import figure4_net, philosophers, slotted_ring
from repro.symbolic import (ChainedImageEngine, ChainedZddEngine,
                            ImageEngine, RelationalNet, ZddNet,
                            ZddRelationalNet, ZddImageEngine,
                            make_image_engine, make_zdd_image_engine,
                            traverse_relational, traverse_zdd)
from repro.symbolic.partition import PartitionedNet
from repro.symbolic.relational import SIMPLIFY_MIN_FRONTIER_NODES


class TestUnifiedLayer:
    def test_both_nets_share_the_partition_layer(self):
        assert issubclass(RelationalNet, PartitionedNet)
        assert issubclass(ZddRelationalNet, PartitionedNet)

    def test_zdd_engines_are_the_generic_engines(self):
        """The relational ZDD engines are the same classes that drive
        the BDD net — only the alias surface differs."""
        relnet = ZddRelationalNet(figure4_net())
        engine = make_zdd_image_engine(relnet, "chained", 2)
        assert isinstance(engine, ChainedImageEngine)
        assert isinstance(engine, ZddImageEngine)
        assert engine.zddnet is engine.relnet is relnet
        assert engine.zdd is relnet.zdd

    def test_generic_factory_serves_the_zdd_net_too(self):
        """make_image_engine is manager-agnostic: handing it a ZDD
        relational net yields a working chained engine."""
        relnet = ZddRelationalNet(slotted_ring(2))
        engine = make_image_engine(relnet, "chained", cluster_size=2)
        assert isinstance(engine, ImageEngine)
        result = traverse_zdd(relnet, engine=engine)
        assert result.marking_count == 40


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
        engine = make_zdd_image_engine(relnet, "chained", 1)
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

    @pytest.mark.parametrize("engine", ["monolithic", "partitioned",
                                        "chained"])
    def test_fixpoints_agree_across_narrowing_paths(self, engine,
                                                    make_net,
                                                    explicit_counts):
        for name in ("figure4", "slot2", "phil3"):
            bdd_result = traverse_relational(
                RelationalNet(ImprovedEncoding(make_net(name))),
                engine=engine, cluster_size=2, simplify_frontier=True)
            zdd_result = traverse_zdd(
                ZddRelationalNet(make_net(name)), engine=engine,
                cluster_size=2)
            assert bdd_result.marking_count == explicit_counts[name]
            assert zdd_result.marking_count == explicit_counts[name]


class TestSimplifyGate:
    def test_small_frontiers_pass_through_unrestricted(self):
        relnet = RelationalNet(ImprovedEncoding(slotted_ring(2)))
        frontier = relnet.initial
        reached = relnet.initial
        assert frontier.size() < SIMPLIFY_MIN_FRONTIER_NODES
        assert relnet.narrow_frontier(frontier, reached) is frontier

    def test_zdd_narrow_frontier_is_identity(self):
        relnet = ZddRelationalNet(slotted_ring(2))
        assert relnet.narrow_frontier(relnet.initial, relnet.initial) \
            == relnet.initial

    def test_restriction_applies_above_the_gate(self, monkeypatch):
        import repro.symbolic.relational as relational
        relnet = RelationalNet(ImprovedEncoding(slotted_ring(2)))
        reached = traverse_relational(relnet, engine="chained").reachable
        frontier = reached
        monkeypatch.setattr(relational, "SIMPLIFY_MIN_FRONTIER_NODES", 1)
        narrowed = relnet.narrow_frontier(frontier, reached)
        care = frontier | ~reached
        assert (narrowed & care) == (frontier & care)

    def test_gated_simplify_reaches_fixpoint(self, make_net,
                                             explicit_counts):
        for engine in ("monolithic", "partitioned", "chained"):
            relnet = RelationalNet(ImprovedEncoding(make_net("slot2")))
            result = traverse_relational(relnet, engine=engine,
                                         simplify_frontier=True)
            assert result.marking_count == explicit_counts["slot2"]


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
        relnet = RelationalNet(ImprovedEncoding(make_net("phil3")),
                               auto_reorder=True, reorder_threshold=100)
        result = traverse_relational(relnet, engine="chained",
                                     cluster_size="auto")
        assert result.reorder_count > 0
        assert result.marking_count == explicit_counts["phil3"]


class TestZddReorderTraversal:
    @pytest.mark.parametrize("engine", ["monolithic", "partitioned",
                                        "chained"])
    def test_relational_engines_with_reorder(self, engine, make_net,
                                             explicit_counts):
        """ZDD relational traversal with pair-grouped sifting enabled
        still pins the explicit counts."""
        for name in ("figure4", "slot2", "phil3"):
            relnet = ZddRelationalNet(make_net(name), auto_reorder=True,
                                      reorder_threshold=50)
            result = traverse_zdd(relnet, engine=engine,
                                  cluster_size="auto")
            assert result.marking_count == explicit_counts[name], \
                (name, engine)
            assert result.reorder_count > 0, (name, engine)
            for place in relnet.current:
                cur = relnet.zdd.level_of_var(place)
                nxt = relnet.zdd.level_of_var(place + "'")
                assert nxt == cur + 1

    def test_classic_engine_with_reorder(self, make_net, explicit_counts):
        zddnet = ZddNet(make_net("muller3"), auto_reorder=True,
                        reorder_threshold=20)
        result = traverse_zdd(zddnet)
        assert result.marking_count == explicit_counts["muller3"]
        assert result.reorder_count > 0

    def test_chained_engine_is_chained_zdd_engine(self):
        relnet = ZddRelationalNet(figure4_net())
        engine = make_zdd_image_engine(relnet, "chained")
        assert isinstance(engine, ChainedZddEngine)
        assert engine.name == "chained"


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


def test_image_partitioned_unions_smallest_first(make_net):
    """The serial sweep applies blocks by ascending relation size, so
    intermediate union BDDs stay small regardless of declaration
    order."""
    relnet = RelationalNet(ImprovedEncoding(make_net("slot2")))
    blocks = relnet.partitions(1)
    visited = []
    original = relnet.image_partition

    def spy(states, block):
        visited.append(block)
        return original(states, block)

    relnet.image_partition = spy
    try:
        relnet.image_partitioned(relnet.initial, list(reversed(blocks)))
    finally:
        del relnet.image_partition
    sizes = [relnet.block_size(block) for block in visited]
    assert sizes == sorted(sizes)
    assert len(visited) == len(blocks)


def test_zdd_block_size_counts_member_relations(make_net):
    relnet = ZddRelationalNet(make_net("slot2"))
    for block in relnet.partitions("auto"):
        assert relnet.block_size(block) == sum(
            relnet.zdd.size(member.relation) for member in block.members)


@pytest.mark.parametrize("family", ["bdd", "zdd"])
def test_engine_factories_take_no_worker_options(family, make_net):
    """Every image engine runs in-process; the factories accept only
    the engine name, granularity (and, for BDDs, frontier
    simplification)."""
    if family == "bdd":
        relnet = RelationalNet(ImprovedEncoding(make_net("figure1")))
        factory = make_image_engine
    else:
        relnet = ZddRelationalNet(make_net("figure1"))
        factory = make_zdd_image_engine
    assert factory(relnet, "partitioned", cluster_size=1).name \
        == "partitioned"
    with pytest.raises(TypeError):
        factory(relnet, "partitioned", workers=2)
