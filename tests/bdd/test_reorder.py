"""Unit tests for adjacent-level swap and sifting."""

import itertools

import pytest

from repro.bdd import BDD, BDDError, sift, sift_to_convergence, variable
from repro.dd.reorder import random_order


def build_interleaved_adder(bdd, a_names, b_names):
    """The classic order-sensitive function: sum-of-products a_i & b_i."""
    f = None
    for a_name, b_name in zip(a_names, b_names):
        term = variable(bdd, a_name) & variable(bdd, b_name)
        f = term if f is None else (f | term)
    return f


def eval_everywhere(func, names):
    return tuple(func(dict(zip(names, values)))
                 for values in itertools.product([False, True],
                                                 repeat=len(names)))


class TestSwapLevels:
    def test_swap_preserves_semantics(self):
        bdd = BDD(var_names=["a", "b", "c"])
        a, b, c = (variable(bdd, name) for name in "abc")
        f = (a & b) | (~a & c)
        names = ["a", "b", "c"]
        before = eval_everywhere(f, names)
        bdd.swap_levels(0)
        assert bdd.order() == ["b", "a", "c"]
        assert eval_everywhere(f, names) == before
        bdd.assert_consistent()

    def test_swap_back_restores_order(self):
        bdd = BDD(var_names=["a", "b", "c"])
        a, b, c = (variable(bdd, name) for name in "abc")
        f = a.ite(b, c)
        bdd.swap_levels(1)
        bdd.swap_levels(1)
        assert bdd.order() == ["a", "b", "c"]
        assert f({"a": 1, "b": 1, "c": 0})
        bdd.assert_consistent()

    def test_swap_out_of_range_raises(self):
        bdd = BDD(var_names=["a", "b"])
        with pytest.raises(BDDError):
            bdd.swap_levels(1)
        with pytest.raises(BDDError):
            bdd.swap_levels(-1)

    def test_swap_with_shared_nodes(self):
        bdd = BDD(var_names=["a", "b", "c", "d"])
        a, b, c, d = (variable(bdd, name) for name in "abcd")
        f = (a & b) | (c & d)
        g = (a | b) & (c | d)
        names = ["a", "b", "c", "d"]
        expected_f = eval_everywhere(f, names)
        expected_g = eval_everywhere(g, names)
        for level in (0, 1, 2, 1, 0):
            bdd.swap_levels(level)
            bdd.assert_consistent()
        assert eval_everywhere(f, names) == expected_f
        assert eval_everywhere(g, names) == expected_g

    def test_node_ids_stable_across_swap(self):
        bdd = BDD(var_names=["a", "b"])
        a, b = variable(bdd, "a"), variable(bdd, "b")
        f = a & b
        node_before = f.node
        bdd.swap_levels(0)
        assert f.node == node_before
        assert f({"a": 1, "b": 1})


class TestSetOrder:
    def test_set_order_permutes(self):
        bdd = BDD(var_names=["a", "b", "c", "d"])
        f = build_interleaved_adder(bdd, ["a", "b"], ["c", "d"])
        names = ["a", "b", "c", "d"]
        before = eval_everywhere(f, names)
        bdd.set_order(["d", "c", "b", "a"])
        assert bdd.order() == ["d", "c", "b", "a"]
        assert eval_everywhere(f, names) == before
        bdd.assert_consistent()

    def test_set_order_requires_permutation(self):
        bdd = BDD(var_names=["a", "b"])
        with pytest.raises(BDDError):
            bdd.set_order(["a", "a"])

    def test_interleaving_shrinks_adder(self):
        """With blocks [a0..a3][b0..b3] the product-of-sums is exponential;
        interleaved it is linear — the classic reordering benefit."""
        names_a = [f"a{i}" for i in range(4)]
        names_b = [f"b{i}" for i in range(4)]
        bdd = BDD(var_names=names_a + names_b)
        f = build_interleaved_adder(bdd, names_a, names_b)
        blocked_size = f.size()
        interleaved = [name for pair in zip(names_a, names_b) for name in pair]
        bdd.set_order(interleaved)
        assert f.size() < blocked_size


class TestSifting:
    def test_sift_preserves_semantics(self):
        names_a = [f"a{i}" for i in range(3)]
        names_b = [f"b{i}" for i in range(3)]
        bdd = BDD(var_names=names_a + names_b)
        f = build_interleaved_adder(bdd, names_a, names_b)
        names = names_a + names_b
        before = eval_everywhere(f, names)
        sift(bdd)
        assert eval_everywhere(f, names) == before
        bdd.assert_consistent()

    def test_sift_finds_small_order_for_adder(self):
        names_a = [f"a{i}" for i in range(5)]
        names_b = [f"b{i}" for i in range(5)]
        bdd = BDD(var_names=names_a + names_b)
        f = build_interleaved_adder(bdd, names_a, names_b)
        blocked_size = f.size()
        sift_to_convergence(bdd)
        # Optimal interleaved size is 3n + 2 nodes; sifting should get there
        # or very close, far below the exponential blocked order.
        assert f.size() <= blocked_size // 2
        assert f.size() <= 3 * 5 + 2 + 4

    def test_sift_on_empty_manager(self):
        bdd = BDD()
        assert sift(bdd) == 2

    def test_sift_single_variable(self):
        bdd = BDD(var_names=["a"])
        f = variable(bdd, "a")
        assert sift(bdd) >= 2
        assert f({"a": True})

    def test_random_order_is_deterministic(self):
        bdd = BDD(var_names=[f"v{i}" for i in range(6)])
        assert random_order(bdd, seed=3) == random_order(bdd, seed=3)
        assert sorted(random_order(bdd, seed=3)) == list(range(6))


class TestAutoReorder:
    def test_checkpoint_triggers_reorder(self):
        """The live adder, not only its garbage, is over the threshold:
        the safe point collects and still sifts, once."""
        names_a = [f"a{i}" for i in range(5)]
        names_b = [f"b{i}" for i in range(5)]
        bdd = BDD(var_names=names_a + names_b, auto_reorder=True,
                  reorder_threshold=8)
        f = build_interleaved_adder(bdd, names_a, names_b)
        bdd.checkpoint()
        assert bdd.reorder_count == 1
        assert f({name: True for name in names_a + names_b})
        bdd.assert_consistent()

    def test_garbage_over_the_threshold_collects_without_sifting(self):
        names = [f"v{i}" for i in range(12)]
        bdd = BDD(var_names=names, auto_reorder=True)
        keep = variable(bdd, "v0") & variable(bdd, "v6")
        garbage = build_interleaved_adder(bdd, names[:6], names[6:])
        del garbage
        occupancy = 2 + sum(map(len, bdd._unique))
        live = 4  # the two terminals and the two nodes of v0 & v6
        bdd.reorder_threshold = (occupancy + live) // 2
        gcs = bdd.gc_count
        bdd.checkpoint()
        assert bdd.reorder_count == 0
        assert bdd.gc_count == gcs + 1
        assert bdd.peak_live_nodes == occupancy
        assert bdd.live_nodes() == live
        assert bdd._gc_baseline == bdd.gc_growth_floor
        assert keep({"v0": True, "v6": True})

    def test_checkpoint_below_threshold_does_nothing(self):
        bdd = BDD(var_names=["a"], auto_reorder=True,
                  reorder_threshold=1000)
        bdd.checkpoint()
        assert bdd.reorder_count == 0


class SummingBDD(BDD):
    """Counts live nodes by summing every unique table on each call."""

    def live_nodes(self):
        live = 2 + sum(map(len, self._unique))
        self.peak_live_nodes = max(self.peak_live_nodes, live)
        return live


class TestLiveNodeCounter:
    """The kept occupancy counter steers sifting exactly as a sum over
    the unique tables would."""

    @pytest.mark.parametrize("grouped", [False, True],
                             ids=["single", "grouped"])
    def test_sift_matches_a_recomputed_sum(self, grouped):
        a_names = [f"a{i}" for i in range(6)]
        b_names = [f"b{i}" for i in range(6)]
        outcomes = []
        for manager in (BDD, SummingBDD):
            bdd = manager(var_names=a_names + b_names)
            f = build_interleaved_adder(bdd, a_names, b_names)
            groups = ([(bdd.var_index(a), bdd.var_index(b))
                       for a, b in zip(a_names[0::2], a_names[1::2])]
                      if grouped else None)
            live = sift(bdd, groups=groups)
            bdd.assert_consistent()
            assert live == 2 + sum(map(len, bdd._unique))
            assert f({name: True for name in a_names + b_names})
            outcomes.append((bdd.order(), live, bdd.peak_live_nodes))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] != a_names + b_names


class TestOrderVersion:
    def test_every_swap_bumps_order_version(self):
        bdd = BDD(var_names=["a", "b", "c"])
        assert bdd.order_version == 0
        bdd.swap_levels(0)
        assert bdd.order_version == 1
        bdd.set_order(["b", "a", "c"])  # already the order: no swap
        assert bdd.order_version == 1
        bdd.set_order(["c", "a", "b"])
        assert bdd.order() == ["c", "a", "b"]
        assert bdd.order_version > 1

    def test_sift_bumps_order_version(self):
        names = [f"v{i}" for i in range(6)]
        bdd = BDD(var_names=names)
        f = build_interleaved_adder(bdd, names[:3], names[3:])
        sift(bdd)
        assert bdd.order() != names
        assert bdd.order_version > 0
        assert f({name: True for name in names})


class TestGroupSifting:
    def pairs(self, bdd, names):
        return [(bdd.var_index(a), bdd.var_index(b))
                for a, b in zip(names[0::2], names[1::2])]

    def test_groups_stay_adjacent_and_ordered(self):
        names = [f"v{i}" for i in range(8)]
        bdd = BDD(var_names=names)
        f = build_interleaved_adder(bdd, names[0::2], names[1::2])
        groups = self.pairs(bdd, names)
        before = eval_everywhere(f, names)
        sift(bdd, groups=groups)
        for upper, lower in groups:
            assert bdd.level_of_var(lower) == bdd.level_of_var(upper) + 1
        assert eval_everywhere(f, names) == before
        bdd.assert_consistent()

    def test_group_sift_improves_blocked_adder(self):
        """Pairs (a_i, b_i) start scattered a0..a3 b0..b3; group sifting
        must still find the small interleaved-pairs order."""
        names_a = [f"a{i}" for i in range(4)]
        names_b = [f"b{i}" for i in range(4)]
        bdd = BDD(var_names=names_a + names_b)
        f = build_interleaved_adder(bdd, names_a, names_b)
        blocked = f.size()
        groups = [(bdd.var_index(a), bdd.var_index(b))
                  for a, b in zip(names_a, names_b)]
        sift(bdd, groups=groups)
        assert f.size() < blocked
        for upper, lower in groups:
            assert abs(bdd.level_of_var(lower)
                       - bdd.level_of_var(upper)) == 1
        bdd.assert_consistent()

    def test_scattered_groups_are_gathered(self):
        from repro.dd.reorder import _normalize_blocks
        bdd = BDD(var_names=[f"v{i}" for i in range(6)])
        bdd.set_order([f"v{i}" for i in (0, 2, 4, 1, 3, 5)])
        blocks = _normalize_blocks(bdd, [(0, 1), (2, 3), (4, 5)])
        for members in blocks:
            levels = sorted(bdd.level_of_var(v) for v in members)
            assert levels == list(range(levels[0],
                                        levels[0] + len(members)))
        bdd.assert_consistent()

    def test_overlapping_groups_rejected(self):
        bdd = BDD(var_names=["a", "b", "c"])
        with pytest.raises(ValueError):
            sift(bdd, groups=[(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            sift(bdd, groups=[(0, 0, 1)])

    def test_checkpoint_uses_sift_groups(self):
        names = [f"v{i}" for i in range(6)]
        bdd = BDD(var_names=names, auto_reorder=True, reorder_threshold=4)
        f = build_interleaved_adder(bdd, names[0::2], names[1::2])
        bdd.sift_groups = self.pairs(bdd, names)
        bdd.checkpoint()
        assert bdd.reorder_count == 1
        for upper, lower in bdd.sift_groups:
            assert bdd.level_of_var(lower) == bdd.level_of_var(upper) + 1
        assert f({name: True for name in names})
