"""Tests for the shared decision-diagram kernel (repro.dd).

The tentpole property: one node-table/GC/reorder core under both
managers.  BDD-side behaviour is pinned by the long-standing suites in
``tests/bdd``; this module covers what the ZDD manager gained from the
kernel — reference counting, garbage collection, adjacent-level swaps,
(group) sifting — and the kernel surface itself.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import BDD, EMPTY, ZDD, ZDDError
from repro.dd import DDError, DDManager, sift, sift_to_convergence

NUM_ELEMS = 6
NAMES = [f"e{i}" for i in range(NUM_ELEMS)]

set_strategy = st.frozensets(
    st.integers(min_value=0, max_value=NUM_ELEMS - 1), max_size=NUM_ELEMS)
family_strategy = st.frozensets(set_strategy, max_size=12)


def extract(zdd, node):
    return frozenset(zdd.iter_sets(node))


class TestKernelHierarchy:
    def test_both_managers_subclass_the_kernel(self):
        assert issubclass(BDD, DDManager)
        assert issubclass(ZDD, DDManager)
        assert isinstance(BDD(), DDManager)
        assert isinstance(ZDD(), DDManager)

    def test_error_types_share_the_kernel_base(self):
        from repro.bdd import BDDError
        assert issubclass(BDDError, DDError)
        assert issubclass(ZDDError, DDError)

    def test_kernel_is_abstract_over_the_reduction_rule(self):
        manager = DDManager(var_names=["a"])
        with pytest.raises(NotImplementedError):
            manager._mk(0, 0, 1)

    def test_shared_level_bookkeeping_on_zdd(self):
        zdd = ZDD(var_names=NAMES)
        assert zdd.order() == NAMES
        assert [zdd.level_of_var(n) for n in NAMES] == list(range(6))
        assert zdd.var_at_level(0) == 0

    def test_registered_caches_clear_at_safe_points(self):
        zdd = ZDD(var_names=NAMES)
        extra = zdd.register_cache({})
        extra["probe"] = 1
        zdd.clear_caches()
        assert not extra


class TestZddGarbageCollection:
    def test_unreferenced_families_are_freed(self):
        zdd = ZDD(var_names=NAMES)
        zdd.from_sets([{0, 1}, {2, 3}, {4, 5}])
        assert zdd.live_nodes() > 2
        zdd.collect_garbage()
        assert zdd.live_nodes() == 2

    def test_referenced_families_survive(self):
        zdd = ZDD(var_names=NAMES)
        fam = {frozenset({0, 2}), frozenset({1}), frozenset()}
        node = zdd.ref(zdd.from_sets(fam))
        garbage = zdd.from_sets([{3, 4}, {5}])
        assert garbage != node
        zdd.collect_garbage()
        assert extract(zdd, node) == fam
        assert zdd.count(node) == 3

    def test_deref_underflow_raises(self):
        zdd = ZDD(var_names=NAMES)
        node = zdd.ref(zdd.singleton([0]))
        zdd.deref(node)
        with pytest.raises(ZDDError):
            zdd.deref(node)

    def test_freed_slots_are_recycled(self):
        zdd = ZDD(var_names=NAMES)
        zdd.from_sets([{0, 1, 2}])
        zdd.collect_garbage()
        slots_before = zdd.total_nodes()
        zdd.ref(zdd.from_sets([{0, 1, 2}]))
        assert zdd.total_nodes() == slots_before

    @settings(max_examples=60, deadline=None)
    @given(family_strategy, family_strategy)
    def test_gc_preserves_referenced_semantics(self, fam, garbage_fam):
        """Satellite acceptance: collect_garbage preserves count and
        to_sets of every referenced family while dropping the rest."""
        zdd = ZDD(var_names=NAMES)
        node = zdd.ref(zdd.from_sets(fam))
        zdd.from_sets(garbage_fam)  # unreferenced
        zdd.collect_garbage()
        assert frozenset(zdd.to_sets(node)) == fam
        assert zdd.count(node) == len(fam)
        zdd.assert_consistent()


class TestZddReordering:
    def test_swap_preserves_family(self):
        zdd = ZDD(var_names=NAMES)
        fam = {frozenset({0, 1}), frozenset({1, 3, 5}), frozenset({4})}
        node = zdd.ref(zdd.from_sets(fam))
        for level in (0, 3, 4, 1, 0, 2):
            zdd.swap_levels(level)
            zdd.assert_consistent()
            assert extract(zdd, node) == fam

    def test_set_order_preserves_family(self):
        zdd = ZDD(var_names=NAMES)
        fam = {frozenset({0, 2, 4}), frozenset({1}), frozenset()}
        node = zdd.ref(zdd.from_sets(fam))
        zdd.set_order(list(reversed(NAMES)))
        assert zdd.order() == list(reversed(NAMES))
        assert extract(zdd, node) == fam
        zdd.assert_consistent()

    def test_node_ids_stable_across_swap(self):
        zdd = ZDD(var_names=NAMES)
        node = zdd.ref(zdd.from_sets([{0, 1}, {2}]))
        zdd.swap_levels(0)
        assert extract(zdd, node) == {frozenset({0, 1}), frozenset({2})}

    def test_checkpoint_triggers_zdd_reorder(self):
        zdd = ZDD(var_names=NAMES, auto_reorder=True, reorder_threshold=4)
        fam = {frozenset({0, 5}), frozenset({1, 4}), frozenset({2, 3})}
        node = zdd.ref(zdd.from_sets(fam))
        zdd.checkpoint()
        assert zdd.reorder_count == 1
        assert extract(zdd, node) == fam

    def test_group_sifting_keeps_pairs_adjacent(self):
        zdd = ZDD()
        for i in range(4):
            zdd.add_var(f"p{i}")
            zdd.add_var(f"p{i}'")
        fam = {frozenset({0, 2}), frozenset({4, 6}), frozenset({1, 7})}
        node = zdd.ref(zdd.from_sets(fam))
        groups = [(2 * i, 2 * i + 1) for i in range(4)]
        sift(zdd, groups=groups)
        for upper, lower in groups:
            assert zdd.level_of_var(lower) == zdd.level_of_var(upper) + 1
        assert extract(zdd, node) == fam
        zdd.assert_consistent()

    @settings(max_examples=60, deadline=None)
    @given(family_strategy)
    def test_sifting_preserves_count_and_to_sets(self, fam):
        """Satellite acceptance: sifting preserves count/to_sets."""
        zdd = ZDD(var_names=NAMES)
        node = zdd.ref(zdd.from_sets(fam))
        sift_to_convergence(zdd, max_passes=3)
        assert frozenset(zdd.to_sets(node)) == fam
        assert zdd.count(node) == len(fam)
        zdd.assert_consistent()

    @settings(max_examples=40, deadline=None)
    @given(family_strategy, family_strategy,
           st.randoms(use_true_random=False))
    def test_algebra_agrees_after_reordering(self, fam1, fam2, rng):
        """Operations run under a permuted order still match the set
        oracle — levels, not indices, drive every recursion."""
        zdd = ZDD(var_names=NAMES)
        u = zdd.ref(zdd.from_sets(fam1))
        v = zdd.ref(zdd.from_sets(fam2))
        order = list(range(NUM_ELEMS))
        rng.shuffle(order)
        zdd.set_order(order)
        assert extract(zdd, zdd.union(u, v)) == fam1 | fam2
        assert extract(zdd, zdd.intersect(u, v)) == fam1 & fam2
        assert extract(zdd, zdd.diff(u, v)) == fam1 - fam2
        assert extract(zdd, zdd.product(u, v)) == frozenset(
            a | b for a in fam1 for b in fam2)
        qvars = frozenset(order[:2])
        assert extract(zdd, zdd.exists(u, qvars)) == frozenset(
            s - qvars for s in fam1)
        assert extract(zdd, zdd.supset(u, qvars)) == frozenset(
            s for s in fam1 if qvars <= s)
        assert extract(zdd, zdd.and_exists(u, v, qvars)) == frozenset(
            (a | b) - qvars for a in fam1 for b in fam2)


class TestGrowthTrigger:
    """The growth-based reorder trigger armed by the ZDD sessions."""

    def _grown_zdd(self, growth=2.0, floor=8):
        zdd = ZDD(var_names=[f"e{i}" for i in range(12)])
        zdd.configure_reorder(True, reorder_threshold=10**9, growth=growth)
        zdd.reorder_growth_floor = floor
        return zdd

    def test_growth_past_factor_fires_exactly_one_reorder(self):
        zdd = self._grown_zdd()
        zdd.ref(zdd.from_sets([{0, 1}]))
        zdd.checkpoint()  # records the baseline; far below the threshold
        assert zdd.reorder_count == 0
        baseline = zdd._reorder_baseline
        assert baseline is not None
        # Grow the live table well past baseline * growth and the floor.
        fam = frozenset(frozenset({i, (i + 3) % 12, (i + 7) % 12})
                        for i in range(12))
        node = zdd.ref(zdd.from_sets(fam))
        assert zdd.live_nodes() > max(2 * baseline,
                                      zdd.reorder_growth_floor)
        zdd.checkpoint()
        assert zdd.reorder_count == 1
        # The baseline resets: an immediate second safe point with no
        # further growth must NOT reorder again.
        zdd.checkpoint()
        assert zdd.reorder_count == 1
        assert extract(zdd, node) == fam
        zdd.assert_consistent()

    def test_growth_rule_reads_the_collected_count(self):
        """Garbage that grows the occupancy past the rule collects
        without sifting; live growth past it sifts."""
        zdd = self._grown_zdd()
        zdd.ref(zdd.from_sets([{0, 1}]))
        zdd.checkpoint()  # records the baseline
        baseline = zdd._reorder_baseline
        fam = frozenset(frozenset({i, (i + 3) % 12, (i + 7) % 12})
                        for i in range(12))
        zdd.from_sets(fam)  # unreferenced: garbage at the safe point
        assert zdd.live_nodes() > max(2 * baseline,
                                      zdd.reorder_growth_floor)
        gcs = zdd.gc_count
        zdd.checkpoint()
        assert zdd.reorder_count == 0
        assert zdd.gc_count == gcs + 1
        assert zdd._reorder_baseline == baseline
        node = zdd.ref(zdd.from_sets(fam))
        zdd.checkpoint()
        assert zdd.reorder_count == 1
        assert extract(zdd, node) == fam

    def test_below_floor_never_triggers(self):
        zdd = self._grown_zdd(floor=10**6)
        zdd.ref(zdd.from_sets([{0}]))
        zdd.checkpoint()
        zdd.ref(zdd.from_sets([frozenset({i, (i + 1) % 12})
                               for i in range(12)]))
        zdd.checkpoint()
        assert zdd.reorder_count == 0

    def test_growth_must_exceed_one(self):
        zdd = ZDD(var_names=NAMES)
        with pytest.raises(DDError):
            zdd.configure_reorder(True, reorder_threshold=100, growth=1.0)
        with pytest.raises(DDError):
            zdd.configure_reorder(True, reorder_threshold=100, growth=0.5)

    def test_zdd_nets_arm_the_growth_trigger(self):
        from repro.dd.manager import DEFAULT_REORDER_GROWTH
        from repro.petri.generators import philosophers
        from repro.symbolic.zdd_relational import ZddRelationalNet
        from repro.symbolic.zdd_traversal import ZddNet
        net = philosophers(3)
        for zddnet in (ZddNet(net, auto_reorder=True),
                       ZddRelationalNet(net, auto_reorder=True)):
            assert zddnet.zdd.reorder_growth == DEFAULT_REORDER_GROWTH

    def test_bdd_manager_defaults_to_threshold_only(self):
        bdd = BDD(var_names=["a", "b"], auto_reorder=True)
        assert bdd.reorder_growth is None


class TestResourceBudgets:
    """The safe-point degradation ladder behind set_resource_budget."""

    def _crowded_bdd(self, num_vars=8):
        """A BDD holding a function with no dead nodes to reclaim."""
        from repro.bdd import variable
        bdd = BDD(var_names=[f"x{i}" for i in range(num_vars)])
        acc = variable(bdd, "x0")
        for i in range(1, num_vars):
            acc = acc ^ variable(bdd, f"x{i}")
        return bdd, acc

    def test_checkpoint_within_budget_is_silent(self):
        bdd, _ = self._crowded_bdd()
        bdd.set_resource_budget(node_budget=10_000)
        bdd.checkpoint()  # must not raise

    def test_node_budget_exhaustion_raises_with_telemetry(self):
        from repro.dd import ResourceBudgetExceeded
        bdd, func = self._crowded_bdd()
        bdd.set_resource_budget(node_budget=2)
        with pytest.raises(ResourceBudgetExceeded) as excinfo:
            bdd.checkpoint()
        exc = excinfo.value
        assert exc.kind == "nodes"
        assert exc.node_budget == 2
        assert exc.live_nodes > 2
        assert exc.reorder_forced
        telemetry = exc.telemetry()
        assert telemetry["kind"] == "nodes"
        assert telemetry["node_budget"] == 2
        # The ladder ran a real reorder pass before giving up.
        assert bdd.reorder_count >= 1

    def test_forced_gc_rescues_a_dying_budget(self):
        # Dead nodes put the manager over budget; a forced collection
        # brings it back under, so the safe point must NOT raise.
        from repro.bdd import variable
        bdd = BDD(var_names=[f"x{i}" for i in range(10)])
        keep = variable(bdd, "x0")
        for _ in range(5):
            acc = variable(bdd, "x1")
            for i in range(2, 10):
                acc = acc ^ variable(bdd, f"x{i}")
            del acc  # garbage: reclaimable at the next collection
        bdd.set_resource_budget(node_budget=max(bdd.live_nodes() // 2, 4))
        bdd.checkpoint()
        assert bdd.budget_gc_rescues >= 1
        assert keep.node != 0  # the referenced function survived

    def test_deadline_raises_on_a_virtual_clock(self):
        from repro.dd import ResourceBudgetExceeded
        clock = {"t": 0.0}
        bdd, _ = self._crowded_bdd()
        bdd.set_resource_budget(deadline_seconds=10.0,
                                clock=lambda: clock["t"])
        bdd.checkpoint()  # within the allowance
        clock["t"] = 10.5
        with pytest.raises(ResourceBudgetExceeded) as excinfo:
            bdd.checkpoint()
        exc = excinfo.value
        assert exc.kind == "deadline"
        assert exc.deadline == 10.0
        assert exc.elapsed >= 10.0

    def test_deadline_outranks_node_budget(self):
        # The ladder checks the deadline first: remedial GC/reordering
        # cannot buy wall-clock time back.
        from repro.dd import ResourceBudgetExceeded
        clock = {"t": 100.0}
        bdd, _ = self._crowded_bdd()
        bdd.set_resource_budget(node_budget=1, deadline_seconds=5.0,
                                clock=lambda: clock["t"])
        clock["t"] = 200.0
        with pytest.raises(ResourceBudgetExceeded) as excinfo:
            bdd.checkpoint()
        assert excinfo.value.kind == "deadline"

    def test_budget_validation(self):
        bdd = BDD(var_names=["a"])
        with pytest.raises(DDError):
            bdd.set_resource_budget(node_budget=0)
        with pytest.raises(DDError):
            bdd.set_resource_budget(deadline_seconds=0.0)

    def test_disarming_budgets(self):
        bdd, _ = self._crowded_bdd()
        bdd.set_resource_budget(node_budget=2)
        bdd.set_resource_budget()  # both None: disarm
        bdd.checkpoint()  # must not raise

    def test_zdd_manager_shares_the_budget_kernel(self):
        from repro.dd import ResourceBudgetExceeded
        zdd = ZDD(var_names=NAMES)
        node = zdd.ref(zdd.from_sets(frozenset(
            [frozenset([0, 1]), frozenset([2, 3]), frozenset([4, 5]),
             frozenset([0, 2, 4]), frozenset([1, 3, 5])])))
        zdd.set_resource_budget(node_budget=1)
        with pytest.raises(ResourceBudgetExceeded) as excinfo:
            zdd.checkpoint()
        assert excinfo.value.kind == "nodes"
        assert zdd.count(node) == 5  # the family survived the ladder
