"""Tests for the ZDD relational net's partition and chained sweep.

Covers the per-transition partition following the current element
order, diff-based working-set narrowing of the chained sweep and the
session calling the sweep.  It also pins the order independence of the
Eq. 3 union of per-block images and the sifting trajectories that
depend on how the sweep order breaks ties, with the relational BDD
form's sifted saturation beside them.
"""

import random

import pytest

from repro.analysis import Analysis, AnalysisSpec, analyze
from repro.bdd.zdd import EMPTY
from repro.dd import sift
from repro.encoding import ImprovedEncoding
from repro.petri.generators import (figure4_net, muller, philosophers,
                                    slotted_ring)
from repro.symbolic import RelationalNet, ZddRelationalNet
from repro.symbolic.relational import next_state_suffix

# The chained relational fixpoint on a fixed element order.
ZDD_CHAINED = AnalysisSpec(backend="zdd", engine="chained", reorder=False)


def chained_step(relnet, reached, frontier):
    """One chained fixpoint step by hand: sweep, then absorb the swept
    set into ``reached`` and keep what is new as the frontier."""
    zdd = relnet.zdd
    swept = relnet.image_chained(frontier, reached=reached)
    return zdd.union(reached, swept), zdd.diff(swept, reached)


def union_of_block_images(relnet, states, blocks):
    """Eq. 3's one-step image: the union of the per-block images."""
    result = EMPTY
    for block in blocks:
        result = relnet.zdd.union(result, relnet.image_partition(states,
                                                                 block))
    return result


class TestSessions:
    def test_session_runs_the_narrowed_chained_sweep(self, monkeypatch):
        """The chained session steps through ``image_chained``,
        narrowed against its reached set."""
        calls = []
        original = ZddRelationalNet.image_chained

        def spy(relnet, states, reached=EMPTY):
            calls.append((relnet, states, reached))
            return original(relnet, states, reached=reached)

        monkeypatch.setattr(ZddRelationalNet, "image_chained", spy)
        analysis = Analysis(figure4_net(), ZDD_CHAINED)
        session = analysis.session
        frontier, reached = session.frontier, session.reached
        analysis.step()
        assert calls == [(analysis.symbolic_net, frontier, reached)]

    def test_classic_session_calls_its_nets_image(self):
        """The classic engine is one call on the session's net per
        step, on the frontier alone."""
        analysis = Analysis(figure4_net(), AnalysisSpec(
            backend="zdd", form="functional", reorder=False))
        net = analysis.symbolic_net
        calls = []
        original = net.image_all

        def spy(states):
            calls.append(states)
            return original(states)

        net.image_all = spy
        frontier = analysis.session.frontier
        analysis.step()
        assert calls == [frontier]

    def test_chained_sweep_stepped_by_hand_reaches_the_fixpoint(self):
        relnet = ZddRelationalNet(slotted_ring(2))
        reached = frontier = relnet.initial
        while frontier != EMPTY:
            reached, frontier = chained_step(relnet, reached, frontier)
            relnet.zdd.checkpoint()
        assert relnet.count_markings(reached) == 40


class TestChainedNarrowing:
    def test_narrowed_sweep_matches_full_sweep_closure(self):
        """The diff-narrowed chained sweep reaches the same fixpoint
        (trajectory equivalence modulo already-reached states)."""
        relnet = ZddRelationalNet(slotted_ring(3))
        frontier = relnet.initial
        plain = relnet.image_chained(frontier)
        narrowed = relnet.image_chained(frontier, reached=relnet.initial)
        # First step: nothing expanded yet, identical sweeps.
        assert plain == narrowed

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
            reached, frontier = chained_step(relnet, reached, frontier)
            first_counts = list(seen_work)
            seen_work.clear()
            reached, frontier = chained_step(relnet, reached, frontier)
        finally:
            relnet.image_partition = original
        # Second iteration blocks never see the full reached family.
        full = relnet.zdd.count(reached)
        assert seen_work
        assert all(count < full for count in seen_work)
        assert first_counts  # sanity: the spy actually measured

    @pytest.mark.parametrize("spec", [
        AnalysisSpec(form="relational", reorder=False), ZDD_CHAINED],
        ids=["bdd-saturation", "zdd-chained"])
    def test_fixpoints_agree_across_narrowing_paths(self, spec, make_net,
                                                    explicit_counts):
        """The narrowed chained sweep lands where the relational BDD
        form's saturation, which narrows nothing, lands."""
        for name in ("figure4", "slot2", "phil3"):
            result = analyze(make_net(name), spec)
            assert result.markings == explicit_counts[name]


def reversed_pairs(manager):
    """Every (current, next) pair of ``manager``, last pair on top."""
    order = list(range(manager.num_vars))
    pairs = [order[i:i + 2] for i in range(0, len(order), 2)]
    return [v for pair in pairs[::-1] for v in pair]


class TestSweepOrder:
    def test_blocks_start_in_support_order(self):
        """The first partition sorts by top level, ties by name."""
        relnet = ZddRelationalNet(slotted_ring(3))
        blocks = relnet.partitions()
        assert blocks == sorted(blocks, key=lambda block: (
            relnet.top_level(block), block.transition))

    def test_blocks_follow_set_order(self):
        """After set_order the same list holds the same blocks, stably
        re-sorted by their top level under the new order: blocks that
        tie keep the order they had before."""
        relnet = ZddRelationalNet(philosophers(3))
        blocks = relnet.partitions()
        before = list(blocks)
        relnet.zdd.set_order(reversed_pairs(relnet.zdd))
        after = relnet.partitions()
        assert after is blocks
        assert after == sorted(before, key=relnet.top_level)
        assert after != before

    def test_blocks_follow_sift(self):
        relnet = ZddRelationalNet(philosophers(3))
        zdd = relnet.zdd
        before = list(relnet.partitions())
        version = zdd.order_version
        sift(zdd, groups=zdd.sift_groups)
        assert zdd.order_version != version
        assert relnet.partitions() == sorted(before, key=relnet.top_level)

    def test_reorder_keeps_every_relation(self):
        """Reordering re-sorts the blocks only: every block keeps the
        relation it was built with."""
        relnet = ZddRelationalNet(philosophers(3))
        before = {b.transition: b.relation for b in relnet.partitions()}
        relnet.zdd.set_order(reversed_pairs(relnet.zdd))
        for block in relnet.partitions():
            assert block.relation is before[block.transition]

    def test_images_correct_after_set_order(self):
        """The re-sorted blocks still compute the one-step image they
        computed on the build order."""
        relnet = ZddRelationalNet(slotted_ring(2))
        zdd = relnet.zdd
        initial = relnet.initial
        states = zdd.ref(zdd.union(initial, union_of_block_images(
            relnet, initial, relnet.partitions())))
        expected = zdd.ref(union_of_block_images(relnet, states,
                                                 relnet.partitions()))
        zdd.set_order(reversed_pairs(zdd))
        assert union_of_block_images(relnet, states,
                                     relnet.partitions()) == expected
        zdd.deref(states)
        zdd.deref(expected)


class TestZddReorderTraversal:
    @pytest.mark.parametrize("name", ["figure4", "slot2", "phil3"])
    def test_relational_engines_with_reorder(self, name, make_net,
                                             explicit_counts):
        """ZDD relational traversal with pair-grouped sifting enabled
        still pins the explicit counts."""
        spec = ZDD_CHAINED.replace(reorder=True, reorder_threshold=50)
        analysis = Analysis(make_net(name), spec)
        result = analysis.run()
        relnet = analysis.symbolic_net
        assert result.markings == explicit_counts[name]
        assert result.reorder_count > 0
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
# Eq. 3 union ordering


def test_union_of_block_images_is_order_independent(make_net):
    """Shuffling the block list never changes the computed image."""
    relnet = ZddRelationalNet(make_net("phil3"))
    blocks = relnet.partitions()
    assert len(blocks) > 1
    states = relnet.initial
    baseline = union_of_block_images(relnet, states, blocks)
    rng = random.Random(7)
    for _ in range(5):
        shuffled = list(blocks)
        rng.shuffle(shuffled)
        assert union_of_block_images(relnet, states, shuffled) == baseline



# ---------------------------------------------------------------------------
# next-state variable names


@pytest.mark.parametrize("names, suffix", [
    (["p", "q"], "'"),
    (["a", "b'"], "'"),
    (["p", "p'"], "''"),
    (["p", "p'", "p''"], "'''"),
    (["p", "p''"], "'"),
])
def test_next_state_suffix_avoids_every_current_name(names, suffix):
    assert next_state_suffix(names) == suffix
    assert not {name + suffix for name in names} & set(names)


def test_relational_nets_name_next_copies_apart_from_places(make_net):
    net = make_net("primes")
    relnet = RelationalNet(ImprovedEncoding(net))
    assert not set(relnet.next) & set(relnet.current)
    znet = ZddRelationalNet(net)
    assert znet.zdd.num_vars == 4
    # Nets without such a pair keep the single prime.
    plain = RelationalNet(ImprovedEncoding(philosophers(2)))
    assert all(n == c + "'" for c, n in zip(plain.current, plain.next))


#: ``(markings, iterations, peak_nodes, reorder_count)`` with sifting
#: at ``reorder_threshold=200``.  Each ZDD trajectory depends on how the
#: sweep order breaks ties between blocks with the same top level after
#: a sift: re-sorting fresh from the build order, or by another
#: tie-break, moves at least one of these figures.  The relational BDD
#: form's saturation has no sweep order; its row pins what stays live
#: at the band safe point, which steers its sift.
SIFTED_TRAJECTORIES = [
    ("relational", "muller-8", (16016, 2, 749, 1)),
    ("zdd", "muller-6", (990, 11, 3076, 2)),
    ("zdd", "phil-7", (46708, 4, 6134, 1)),
]


@pytest.mark.parametrize("spec,net,expected", SIFTED_TRAJECTORIES,
                         ids=[f"{s}-{n}" for s, n, _ in SIFTED_TRAJECTORIES])
def test_sifted_trajectory_is_pinned(spec, net, expected):
    family, size = net.rsplit("-", 1)
    build = {"muller": muller, "phil": philosophers}[family]
    options = ({"form": "relational"} if spec == "relational"
               else {"backend": "zdd", "engine": "chained"})
    result = analyze(build(int(size)), reorder_threshold=200, **options)
    assert (result.markings, result.iterations, result.peak_nodes,
            result.reorder_count) == expected
