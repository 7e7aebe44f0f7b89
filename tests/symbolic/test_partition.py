"""Tests for the shared relational layer (repro.symbolic.partition).

Covers the behaviours the unified layer added on top of the old
per-manager copies: the per-transition partition following the current
variable order, diff-based working-set narrowing of the chained sweep,
and the fact that one chained sweep drives both managers.  It also pins
the order independence of the Eq. 3 union of per-block images and the
sifting trajectories that depend on how the sweep order breaks ties.
"""

import random

import pytest

from repro.analysis import (RELATIONAL_ENGINES, Analysis, AnalysisSpec,
                            analyze)
from repro.dd import sift
from repro.encoding import ImprovedEncoding
from repro.petri.generators import (figure4_net, muller, philosophers,
                                    slotted_ring)
from repro.symbolic import RelationalNet, ZddRelationalNet
from repro.symbolic.partition import PartitionedNet, next_state_suffix

# Relational fixpoints on a fixed variable order (BDD and ZDD).
BDD_RELATIONAL = AnalysisSpec(form="relational", engine="chained",
                              reorder=False)
ZDD_CHAINED = AnalysisSpec(backend="zdd", engine="chained", reorder=False)


def chained_step(relnet, reached, frontier):
    """One chained fixpoint step by hand: sweep, then absorb the swept
    set into ``reached`` and keep what is new as the frontier."""
    swept = relnet.image_chained(frontier, reached=reached)
    return (relnet.state_union(reached, swept),
            relnet.state_diff(swept, reached))


class TestUnifiedLayer:
    def test_both_nets_share_the_partition_layer(self):
        assert issubclass(RelationalNet, PartitionedNet)
        assert issubclass(ZddRelationalNet, PartitionedNet)

    @pytest.mark.parametrize("spec", [BDD_RELATIONAL, ZDD_CHAINED],
                             ids=["bdd", "zdd"])
    def test_sessions_run_the_generic_chained_sweep(self, spec,
                                                    monkeypatch):
        """Both relational sessions step through the shared
        ``PartitionedNet.image_chained``, narrowed against their
        reached set."""
        calls = []
        original = PartitionedNet.image_chained

        def spy(relnet, states, reached=None):
            calls.append((relnet, states, reached))
            return original(relnet, states, reached=reached)

        monkeypatch.setattr(PartitionedNet, "image_chained", spy)
        analysis = Analysis(figure4_net(), spec)
        session = analysis.session
        frontier, reached = session.frontier, session.reached
        analysis.step()
        assert calls == [(analysis.symbolic_net, frontier, reached)]

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
            reached, frontier = chained_step(relnet, reached, frontier)
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
            reached = relnet.initial
            frontier = relnet.initial
            plain = relnet.image_chained(frontier)
            narrowed = relnet.image_chained(frontier, reached=reached)
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
        BDD_RELATIONAL.replace(engine=engine)
        for engine in RELATIONAL_ENGINES] + [ZDD_CHAINED],
        ids=[f"bdd-{engine}" for engine in RELATIONAL_ENGINES]
        + ["zdd-chained"])
    def test_fixpoints_agree_across_narrowing_paths(self, spec, make_net,
                                                    explicit_counts):
        for name in ("figure4", "slot2", "phil3"):
            result = analyze(make_net(name), spec)
            assert result.markings == explicit_counts[name]


def reversed_pairs(manager):
    """Every (current, next) pair of ``manager``, last pair on top."""
    order = list(range(manager.num_vars))
    pairs = [order[i:i + 2] for i in range(0, len(order), 2)]
    return [v for pair in pairs[::-1] for v in pair]


NETS = {
    "bdd": lambda: RelationalNet(ImprovedEncoding(philosophers(3))),
    "zdd": lambda: ZddRelationalNet(philosophers(3)),
}


class TestSweepOrder:
    @pytest.mark.parametrize("kind", sorted(NETS))
    def test_blocks_follow_set_order(self, kind):
        """After set_order the same list holds the same blocks, stably
        re-sorted by their top level under the new order: blocks that
        tie keep the order they had before."""
        relnet = NETS[kind]()
        blocks = relnet.partitions()
        before = list(blocks)
        relnet.manager.set_order(reversed_pairs(relnet.manager))
        after = relnet.partitions()
        assert after is blocks
        assert after == sorted(before, key=relnet.top_level)
        assert after != before

    @pytest.mark.parametrize("kind", sorted(NETS))
    def test_blocks_follow_sift(self, kind):
        relnet = NETS[kind]()
        manager = relnet.manager
        before = list(relnet.partitions())
        version = manager.order_version
        sift(manager, groups=manager.sift_groups)
        assert manager.order_version != version
        assert relnet.partitions() == sorted(before, key=relnet.top_level)

    @pytest.mark.parametrize("kind", sorted(NETS))
    def test_reorder_keeps_every_relation(self, kind):
        """Reordering re-sorts the blocks only: every block keeps the
        relation it was built with."""
        relnet = NETS[kind]()
        before = {b.transition: b.relation for b in relnet.partitions()}
        relnet.manager.set_order(reversed_pairs(relnet.manager))
        for block in relnet.partitions():
            assert block.relation is before[block.transition]

    def test_traversal_correct_with_reordering(self, make_net,
                                               explicit_counts):
        result = analyze(make_net("phil3"), BDD_RELATIONAL.replace(
            engine="chained", reorder=True, reorder_threshold=100))
        assert result.reorder_count > 0
        assert result.markings == explicit_counts["phil3"]


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
# image_partitioned ordering


def test_image_partitioned_is_order_independent(make_net):
    """Shuffling the block list never changes the computed image."""
    relnet = RelationalNet(ImprovedEncoding(make_net("phil3")))
    blocks = relnet.partitions()
    assert len(blocks) > 1
    states = relnet.initial
    baseline = relnet.image_partitioned(states, blocks)
    rng = random.Random(7)
    for _ in range(5):
        shuffled = list(blocks)
        rng.shuffle(shuffled)
        assert relnet.image_partitioned(states, shuffled) == baseline



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
#: at ``reorder_threshold=200``.  Each trajectory depends on how the
#: sweep order breaks ties between blocks with the same top level after
#: a sift: re-sorting fresh from the build order, or by another
#: tie-break, moves at least one of these figures.
SIFTED_TRAJECTORIES = [
    ("relational", "muller-8", (16016, 13, 5197, 3)),
    ("zdd", "muller-6", (990, 11, 3076, 2)),
    ("zdd", "phil-7", (46708, 4, 6134, 1)),
]


@pytest.mark.parametrize("spec,net,expected", SIFTED_TRAJECTORIES,
                         ids=[f"{s}-{n}" for s, n, _ in SIFTED_TRAJECTORIES])
def test_sifted_trajectory_is_pinned(spec, net, expected):
    family, size = net.rsplit("-", 1)
    build = {"muller": muller, "phil": philosophers}[family]
    options = ({"form": "relational"} if spec == "relational"
               else {"backend": "zdd"})
    options["engine"] = "chained"
    result = analyze(build(int(size)), reorder_threshold=200, **options)
    assert (result.markings, result.iterations, result.peak_nodes,
            result.reorder_count) == expected
