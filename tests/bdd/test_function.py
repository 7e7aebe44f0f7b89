"""Unit tests for the Function handle API."""

import pytest

from repro.bdd import BDD, BDDError, Function, cube, false, true, variable


@pytest.fixture
def setup():
    bdd = BDD(var_names=["a", "b", "c"])
    a, b, c = (variable(bdd, name) for name in "abc")
    return bdd, a, b, c


class TestOperators:
    def test_and_or_not(self, setup):
        bdd, a, b, c = setup
        f = (a & b) | ~c
        assert f({"a": 1, "b": 1, "c": 1})
        assert f({"a": 0, "b": 0, "c": 0})
        assert not f({"a": 1, "b": 0, "c": 1})

    def test_xor_and_difference(self, setup):
        bdd, a, b, c = setup
        assert (a ^ a).is_zero()
        assert (a - a).is_zero()
        assert (a - b)({"a": 1, "b": 0, "c": 0})

    def test_iff(self, setup):
        bdd, a, b, c = setup
        assert a.iff(a) == true(bdd)
        assert (a.iff(b))({"a": 0, "b": 0, "c": 0})

    def test_ite(self, setup):
        bdd, a, b, c = setup
        f = a.ite(b, c)
        assert f({"a": 1, "b": 1, "c": 0})
        assert f({"a": 0, "b": 0, "c": 1})

    def test_equality_is_semantic(self, setup):
        bdd, a, b, c = setup
        assert (a & b) == (b & a)
        assert (a | b) != (a & b)
        assert hash(a & b) == hash(b & a)

    def test_bool_raises(self, setup):
        bdd, a, b, c = setup
        with pytest.raises(BDDError):
            bool(a)

    def test_mixed_types_rejected(self, setup):
        bdd, a, b, c = setup
        with pytest.raises(TypeError):
            a & 1


class TestConstants:
    def test_true_false(self, setup):
        bdd, a, b, c = setup
        assert true(bdd) == ~false(bdd)
        assert false(bdd).is_zero()
        assert (a | ~a) == true(bdd)
        assert (a & ~a) == false(bdd)

    def test_cube_helper(self, setup):
        bdd, a, b, c = setup
        f = cube(bdd, {"a": True, "c": False})
        assert f == (a & ~c)


class TestQuantifiers:
    def test_exists_by_name_and_literal(self, setup):
        bdd, a, b, c = setup
        f = a & b
        assert f.exists(["a"]) == b
        assert f.exists([a]) == b

    def test_exists_literal_must_be_single_var(self, setup):
        bdd, a, b, c = setup
        with pytest.raises(BDDError):
            (a & b).exists([a & b])

    def test_and_exists(self, setup):
        bdd, a, b, c = setup
        f, g = a | b, b | c
        assert f.and_exists(g, ["b"]) == (f & g).exists(["b"])


class TestStructural:
    def test_cofactor(self, setup):
        bdd, a, b, c = setup
        assert (a & b).cofactor({"a": True}) == b

    def test_rename(self, setup):
        bdd, a, b, c = setup
        assert (a & b).rename({"a": "b", "b": "c"}) == (b & c)

    def test_toggle(self, setup):
        bdd, a, b, c = setup
        assert (a & b).toggle(["a"]) == (~a & b)

    def test_support_names(self, setup):
        bdd, a, b, c = setup
        assert (a & c).support_names() == frozenset({"a", "c"})

    def test_sat_one_names(self, setup):
        bdd, a, b, c = setup
        sat = (a & ~b).sat_one()
        assert sat == {"a": True, "b": False}
        assert false(bdd).sat_one() is None

    def test_iter_cubes_names(self, setup):
        bdd, a, b, c = setup
        cubes = list((a & ~b).iter_cubes())
        assert cubes == [{"a": True, "b": False}]

    def test_repr_mentions_vars(self, setup):
        bdd, a, b, c = setup
        assert "a" in repr(a)
        assert "TRUE" in repr(true(bdd))
        assert "FALSE" in repr(false(bdd))


class TestRefcounting:
    def test_handles_protect_nodes_across_gc(self):
        bdd = BDD(var_names=["a", "b", "c"])
        a, b, c = (variable(bdd, name) for name in "abc")
        f = (a & b) | c
        del a, b, c
        bdd.collect_garbage()
        assert f.satcount() == 5

    def test_del_releases_reference(self):
        bdd = BDD(var_names=["a", "b"])
        a, b = variable(bdd, "a"), variable(bdd, "b")
        f = a & b
        node = f.node >> 1  # the node behind the (possibly
        # complemented) edge carries the reference count
        ref_with_handle = bdd._ref[node]
        del f
        assert bdd._ref[node] == ref_with_handle - 1
