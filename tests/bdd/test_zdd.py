"""Unit tests for the ZDD manager."""

import pytest

from repro.bdd import BASE, EMPTY, ZDD, ZDDError


@pytest.fixture
def zdd():
    return ZDD(var_names=["p", "q", "r", "s"])


def family(zdd, node):
    return set(zdd.iter_name_sets(node))


class TestConstruction:
    def test_terminals(self, zdd):
        assert zdd.empty() == EMPTY
        assert family(zdd, EMPTY) == set()
        assert family(zdd, BASE) == {frozenset()}

    def test_singleton(self, zdd):
        f = zdd.singleton(["p", "r"])
        assert family(zdd, f) == {frozenset({"p", "r"})}

    def test_singleton_empty_set(self, zdd):
        assert zdd.singleton([]) == BASE

    def test_from_sets_roundtrip(self, zdd):
        sets = [set(), {"p"}, {"q", "r"}, {"p", "q", "r", "s"}]
        f = zdd.from_sets(sets)
        assert family(zdd, f) == {frozenset(s) for s in sets}
        assert zdd.count(f) == 4

    def test_duplicate_sets_collapse(self, zdd):
        f = zdd.from_sets([{"p"}, {"p"}])
        assert zdd.count(f) == 1

    def test_duplicate_name_rejected(self):
        zdd = ZDD(var_names=["p"])
        with pytest.raises(ZDDError):
            zdd.add_var("p")

    def test_unknown_element_raises(self, zdd):
        with pytest.raises(ZDDError):
            zdd.singleton(["nope"])


class TestAlgebra:
    def test_union(self, zdd):
        f = zdd.from_sets([{"p"}, {"q"}])
        g = zdd.from_sets([{"q"}, {"r"}])
        assert family(zdd, zdd.union(f, g)) == {
            frozenset({"p"}), frozenset({"q"}), frozenset({"r"})}

    def test_diff(self, zdd):
        f = zdd.from_sets([{"p"}, {"q"}])
        g = zdd.from_sets([{"q"}, {"r"}])
        assert family(zdd, zdd.diff(f, g)) == {frozenset({"p"})}

    def test_union_identity_laws(self, zdd):
        f = zdd.from_sets([{"p", "q"}])
        assert zdd.union(f, EMPTY) == f
        assert zdd.union(EMPTY, f) == f
        assert zdd.union(f, f) == f

    def test_diff_laws(self, zdd):
        f = zdd.from_sets([{"p"}, {"q", "r"}])
        assert zdd.diff(f, f) == EMPTY
        assert zdd.diff(f, EMPTY) == f
        assert zdd.diff(EMPTY, f) == EMPTY

    def test_canonicity(self, zdd):
        f = zdd.from_sets([{"p"}, {"q"}, {"p", "q"}])
        g = zdd.union(zdd.union(zdd.singleton(["q"]), zdd.singleton(["p"])),
                      zdd.singleton(["p", "q"]))
        assert f == g


class TestElementOps:
    def test_subset1(self, zdd):
        f = zdd.from_sets([{"p", "q"}, {"q"}, {"r"}])
        s = zdd.subset1(f, "q")
        assert family(zdd, s) == {frozenset({"p"}), frozenset()}

    def test_subset_partition(self, zdd):
        """change . subset1 picks exactly the sets holding the element."""
        f = zdd.from_sets([set(), {"p"}, {"p", "s"}, {"q", "r"}])
        with_p = zdd.change(zdd.subset1(f, "p"), "p")
        assert family(zdd, with_p) == {s for s in family(zdd, f) if "p" in s}
        assert zdd.union(with_p, zdd.diff(f, with_p)) == f

    def test_change_adds_and_removes(self, zdd):
        f = zdd.from_sets([{"p"}, {"q"}])
        g = zdd.change(f, "p")
        assert family(zdd, g) == {frozenset(), frozenset({"p", "q"})}

    def test_change_involution(self, zdd):
        f = zdd.from_sets([{"p", "r"}, {"s"}, set()])
        assert zdd.change(zdd.change(f, "q"), "q") == f


class TestEnumeration:
    def test_iter_sets_speaks_indices(self, zdd):
        """``iter_sets`` yields element *indices*; the name view has its
        own method."""
        f = zdd.from_sets([{"p"}, {"q", "s"}])
        listed = list(zdd.iter_sets(f))
        assert set(listed) == {frozenset({0}), frozenset({1, 3})}
        for members in listed:
            assert all(isinstance(e, int) for e in members)

    def test_name_sets_mirror_index_sets(self, zdd):
        f = zdd.from_sets([{"p"}, {"q", "s"}])
        named = list(zdd.iter_name_sets(f))
        assert set(named) == {frozenset({"p"}), frozenset({"q", "s"})}
        for members in named:
            assert all(isinstance(e, str) for e in members)
        by_translation = [frozenset(zdd.var_name(e) for e in members)
                          for members in zdd.iter_sets(f)]
        assert by_translation == named


class TestRelationalCore:
    def test_product_joins_families(self, zdd):
        f = zdd.from_sets([{"p"}, {"q"}])
        g = zdd.from_sets([{"r"}, set()])
        assert family(zdd, zdd.product(f, g)) == {
            frozenset({"p", "r"}), frozenset({"p"}),
            frozenset({"q", "r"}), frozenset({"q"})}

    def test_product_identities(self, zdd):
        f = zdd.from_sets([{"p", "q"}])
        from repro.bdd import BASE, EMPTY
        assert zdd.product(f, BASE) == f
        assert zdd.product(BASE, f) == f
        assert zdd.product(f, EMPTY) == EMPTY

    def test_exists_removes_and_merges(self, zdd):
        f = zdd.from_sets([{"p", "q"}, {"q"}, {"p"}])
        assert family(zdd, zdd.exists(f, ["p"])) == {
            frozenset({"q"}), frozenset()}

    def test_exists_no_vars_is_identity(self, zdd):
        f = zdd.from_sets([{"p", "q"}])
        assert zdd.exists(f, []) == f

    def test_supset_requires_all(self, zdd):
        f = zdd.from_sets([{"p", "q"}, {"q"}, {"q", "r"}])
        assert family(zdd, zdd.supset(f, ["q"])) == {
            frozenset({"p", "q"}), frozenset({"q"}),
            frozenset({"q", "r"})}
        assert family(zdd, zdd.supset(f, ["p", "q"])) == {
            frozenset({"p", "q"})}
        assert family(zdd, zdd.supset(f, [])) == family(zdd, f)

    def test_rename_monotone_shift(self, zdd):
        f = zdd.from_sets([{"p", "q"}, {"q"}])
        shifted = zdd.rename(f, {"p": "q", "q": "r"})
        assert family(zdd, shifted) == {
            frozenset({"q", "r"}), frozenset({"r"})}

    def test_rename_collision_collapses_by_set_semantics(self, zdd):
        # {p, q} with q -> p collapses to {p}; {q} maps to {p} too.
        f = zdd.from_sets([{"p", "q"}, {"q"}])
        renamed = zdd.rename(f, {"q": "p"})
        assert family(zdd, renamed) == {frozenset({"p"})}

    def test_rename_rejects_non_monotone_maps(self, zdd):
        from repro.bdd import ZDDError
        f = zdd.singleton(["p", "r"])
        with pytest.raises(ZDDError):
            zdd.rename(f, {"p": "s", "r": "q"})

    def test_and_exists_counters_and_cache(self, zdd):
        f = zdd.from_sets([{"p", "q"}, {"q", "r"}])
        g = zdd.from_sets([{"s"}, {"r", "s"}])
        first = zdd.and_exists(f, g, ["q"])
        assert first == zdd.exists(zdd.product(f, g), ["q"])
        assert zdd.ae_calls > 0 and zdd.ae_recursions > 0
        before = zdd.ae_cache_hits
        assert zdd.and_exists(f, g, ["q"]) == first
        assert zdd.ae_cache_hits > before
        zdd.clear_caches()
        assert not zdd._ae_cache

    def test_and_exists_empty_quantifier_degenerates_to_product(self, zdd):
        f = zdd.from_sets([{"p"}, {"q"}])
        g = zdd.from_sets([{"r"}])
        assert zdd.and_exists(f, g, []) == zdd.product(f, g)


class TestCounts:
    def test_count(self, zdd):
        f = zdd.from_sets([set(), {"p"}, {"p", "q"}, {"s"}])
        assert zdd.count(f) == 4
        assert zdd.count(EMPTY) == 0
        assert zdd.count(BASE) == 1

    def test_size_is_compact_for_sparse_families(self, zdd):
        # A single big set costs one node per present element.
        f = zdd.singleton(["p", "q", "r", "s"])
        assert zdd.size(f) == 6  # 4 element nodes + both terminals

    def test_zero_suppression(self, zdd):
        """Nodes with empty high branch must never exist."""
        f = zdd._mk(0, BASE, EMPTY)
        assert f == BASE
