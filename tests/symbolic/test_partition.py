"""Tests for the shared relational layer (repro.symbolic.partition).

Covers the behaviours the unified layer added on top of the old
per-manager copies: reorder-aware reclustering of ``"auto"`` partitions,
diff-based working-set narrowing of the chained sweep, and the fact that
one chained sweep drives both managers.  It also pins the order
independence of the Eq. 3 union of per-block images.
"""

import random

import pytest

from repro.analysis import (RELATIONAL_ENGINES, Analysis, AnalysisSpec,
                            analyze)
from repro.encoding import ImprovedEncoding
from repro.petri.generators import figure4_net, philosophers, slotted_ring
from repro.symbolic import RelationalNet, ZddRelationalNet
from repro.symbolic.partition import PartitionedNet

# Relational fixpoints on a fixed variable order (BDD and ZDD).
BDD_RELATIONAL = AnalysisSpec(form="relational", reorder=False)
ZDD_CHAINED = AnalysisSpec(backend="zdd", engine="chained", reorder=False)


def chained_step(relnet, reached, frontier, cluster_size):
    """One chained fixpoint step by hand: sweep, then absorb the swept
    set into ``reached`` and keep what is new as the frontier."""
    swept = relnet.image_chained(frontier, relnet.partitions(cluster_size),
                                 reached=reached)
    return (relnet.state_union(reached, swept),
            relnet.state_diff(swept, reached))


class TestUnifiedLayer:
    def test_both_nets_share_the_partition_layer(self):
        assert issubclass(RelationalNet, PartitionedNet)
        assert issubclass(ZddRelationalNet, PartitionedNet)

    @pytest.mark.parametrize("spec", [
        BDD_RELATIONAL.replace(cluster_size=2),
        ZDD_CHAINED.replace(cluster_size=2)], ids=["bdd", "zdd"])
    def test_sessions_run_the_generic_chained_sweep(self, spec):
        """Both relational sessions step through the shared
        ``PartitionedNet.image_chained`` at the spec's granularity,
        narrowed against their reached set."""
        analysis = Analysis(figure4_net(), spec)
        relnet = analysis.symbolic_net
        calls = []
        original = relnet.image_chained

        def spy(states, blocks, reached=None):
            calls.append((blocks, reached))
            return original(states, blocks, reached=reached)

        relnet.image_chained = spy
        reached = analysis.session.reached
        analysis.step()
        assert calls == [(relnet.partitions(2), reached)]

    @pytest.mark.parametrize("spec, image", [
        (BDD_RELATIONAL.replace(engine="monolithic"), "image_monolithic"),
        (AnalysisSpec(backend="zdd", form="functional", reorder=False),
         "image_all")], ids=["bdd-monolithic", "zdd-classic"])
    def test_sessions_call_their_nets_image(self, spec, image):
        """The other engines are one call on the session's net per
        step, on the frontier alone."""
        analysis = Analysis(figure4_net(), spec)
        net = analysis.symbolic_net
        calls = []
        original = getattr(net, image)

        def spy(states):
            calls.append(states)
            return original(states)

        setattr(net, image, spy)
        frontier = analysis.session.frontier
        analysis.step()
        assert calls == [frontier]

    def test_chained_sweep_serves_the_zdd_net_too(self):
        """The chained sweep is manager-agnostic: a ZDD relational net
        stepped by hand reaches its fixpoint."""
        relnet = ZddRelationalNet(slotted_ring(2))
        reached = frontier = relnet.initial
        while not relnet.state_is_empty(frontier):
            reached, frontier = chained_step(relnet, reached, frontier, 2)
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
        reached = frontier = relnet.initial
        seen_work = []
        original = relnet.image_partition

        def spy(states, block):
            seen_work.append(relnet.zdd.count(states))
            return original(states, block)

        relnet.image_partition = spy
        try:
            reached, frontier = chained_step(relnet, reached, frontier, 1)
            first_counts = list(seen_work)
            seen_work.clear()
            reached, frontier = chained_step(relnet, reached, frontier, 1)
        finally:
            relnet.image_partition = original
        # Second iteration blocks never see the full reached family.
        full = relnet.zdd.count(reached)
        assert seen_work
        assert all(count < full for count in seen_work)
        assert first_counts  # sanity: the spy actually measured

    @pytest.mark.parametrize("spec", [
        BDD_RELATIONAL.replace(engine=engine, cluster_size=2)
        for engine in RELATIONAL_ENGINES] + [
        ZDD_CHAINED.replace(cluster_size=2)],
        ids=[f"bdd-{engine}" for engine in RELATIONAL_ENGINES]
        + ["zdd-chained"])
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

