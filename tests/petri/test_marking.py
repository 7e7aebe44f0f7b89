"""Unit tests for Marking."""

import pytest

from repro.petri import Marking


class TestConstruction:
    def test_from_iterable(self):
        m = Marking(["p1", "p2"])
        assert m["p1"] == 1
        assert m["p2"] == 1
        assert m["p3"] == 0

    def test_from_mapping(self):
        m = Marking({"p1": 2, "p2": 0})
        assert m["p1"] == 2
        assert "p2" not in m

    def test_from_marking(self):
        m = Marking({"p1": 1})
        assert Marking(m) == m

    def test_duplicates_accumulate(self):
        m = Marking(["p1", "p1"])
        assert m["p1"] == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Marking({"p1": -1})

    def test_empty(self):
        m = Marking()
        assert len(m) == 0


class TestIdentity:
    def test_equality_ignores_zero_counts(self):
        assert Marking({"p1": 1, "p2": 0}) == Marking({"p1": 1})

    def test_hashable(self):
        seen = {Marking(["p1"]), Marking(["p1"]), Marking(["p2"])}
        assert len(seen) == 2

    def test_order_independent(self):
        assert Marking(["a", "b"]) == Marking(["b", "a"])

    def test_not_equal_to_other_types(self):
        assert Marking(["p1"]) != {"p1": 1}


class TestViews:
    def test_support(self):
        assert Marking({"p1": 2, "p2": 1}).support == {"p1", "p2"}

    def test_is_safe(self):
        assert Marking({"p1": 1}).is_safe()
        assert not Marking({"p1": 2}).is_safe()

    def test_as_dict_is_copy(self):
        m = Marking({"p1": 1})
        d = m.as_dict()
        d["p1"] = 5
        assert m["p1"] == 1

    def test_iteration_and_items(self):
        m = Marking({"b": 1, "a": 2})
        assert list(m) == ["a", "b"]
        assert list(m.items()) == [("a", 2), ("b", 1)]

    def test_get_with_default(self):
        m = Marking({"a": 1})
        assert m.get("a") == 1
        assert m.get("zzz", 7) == 7


class TestTokenGame:
    def test_add(self):
        m = Marking(["p1"]).add(["p2", "p2"])
        assert m == Marking({"p1": 1, "p2": 2})

    def test_remove(self):
        m = Marking({"p1": 2}).remove(["p1"])
        assert m == Marking({"p1": 1})

    def test_remove_from_empty_raises(self):
        with pytest.raises(ValueError):
            Marking().remove(["p1"])

    def test_add_remove_roundtrip(self):
        m = Marking(["p1", "p2"])
        assert m.add(["p3"]).remove(["p3"]) == m

    def test_immutability(self):
        m = Marking(["p1"])
        m.add(["p2"])
        assert "p2" not in m


class TestRepr:
    def test_repr_empty(self):
        assert repr(Marking()) == "Marking({})"

    def test_repr_multiset(self):
        assert "p1*2" in repr(Marking({"p1": 2}))
        assert "p2" in repr(Marking({"p2": 1}))
