"""Unit tests for the BDD manager (node level)."""

import itertools

import pytest

from repro.bdd import BDD, BDDError, ONE, ZERO


@pytest.fixture
def bdd():
    return BDD(var_names=["a", "b", "c", "d"])


def assignments(names):
    for values in itertools.product([False, True], repeat=len(names)):
        yield dict(zip(names, values))


class TestVariables:
    def test_add_var_returns_consecutive_indices(self):
        bdd = BDD()
        assert bdd.add_var("x") == 0
        assert bdd.add_var("y") == 1
        assert bdd.num_vars == 2

    def test_default_names(self):
        bdd = BDD()
        var = bdd.add_var()
        assert bdd.var_name(var) == "x0"

    def test_duplicate_name_rejected(self):
        bdd = BDD(var_names=["x"])
        with pytest.raises(BDDError):
            bdd.add_var("x")

    def test_var_index_by_name_and_int(self, bdd):
        assert bdd.var_index("c") == 2
        assert bdd.var_index(2) == 2

    def test_unknown_name_raises(self, bdd):
        with pytest.raises(BDDError):
            bdd.var_index("nope")

    def test_out_of_range_index_raises(self, bdd):
        with pytest.raises(BDDError):
            bdd.var_index(17)

    def test_initial_order_is_declaration_order(self, bdd):
        assert bdd.order() == ["a", "b", "c", "d"]
        assert bdd.level_of_var("a") == 0
        assert bdd.var_at_level(3) == bdd.var_index("d")


class TestMk:
    def test_terminals_are_fixed(self, bdd):
        # One shared terminal node (id 1) in two polarities: ONE is the
        # regular edge, ZERO its complement.
        assert ONE == 2
        assert ZERO == 3
        assert ZERO == ONE ^ 1
        assert ONE >> 1 == ZERO >> 1 == 1

    def test_redundant_node_collapses(self, bdd):
        u = bdd._mk(0, ONE, ONE)
        assert u == ONE

    def test_hash_consing(self, bdd):
        u = bdd._mk(0, ZERO, ONE)
        v = bdd._mk(0, ZERO, ONE)
        assert u == v

    def test_var_node_and_negation(self, bdd):
        a = bdd.var_node("a")
        na = bdd.nvar_node("a")
        assert bdd.apply_not(a) == na
        assert bdd.apply_not(na) == a


class TestConnectives:
    def test_and_truth_table(self, bdd):
        a, b = bdd.var_node("a"), bdd.var_node("b")
        f = bdd.apply_and(a, b)
        for env in assignments(["a", "b", "c", "d"]):
            assert bdd.eval_node(f, env) == (env["a"] and env["b"])

    def test_or_truth_table(self, bdd):
        a, b = bdd.var_node("a"), bdd.var_node("b")
        f = bdd.apply_or(a, b)
        for env in assignments(["a", "b", "c", "d"]):
            assert bdd.eval_node(f, env) == (env["a"] or env["b"])

    def test_xor_truth_table(self, bdd):
        a, b = bdd.var_node("a"), bdd.var_node("b")
        f = bdd.apply_xor(a, b)
        for env in assignments(["a", "b", "c", "d"]):
            assert bdd.eval_node(f, env) == (env["a"] != env["b"])

    def test_diff(self, bdd):
        a, b = bdd.var_node("a"), bdd.var_node("b")
        f = bdd.apply_diff(a, b)
        for env in assignments(["a", "b", "c", "d"]):
            assert bdd.eval_node(f, env) == (env["a"] and not env["b"])

    def test_not_involution(self, bdd):
        a, b = bdd.var_node("a"), bdd.var_node("b")
        f = bdd.apply_or(a, bdd.apply_not(b))
        assert bdd.apply_not(bdd.apply_not(f)) == f

    def test_and_constants(self, bdd):
        a = bdd.var_node("a")
        assert bdd.apply_and(a, ZERO) == ZERO
        assert bdd.apply_and(a, ONE) == a
        assert bdd.apply_and(ZERO, a) == ZERO
        assert bdd.apply_and(a, a) == a

    def test_or_constants(self, bdd):
        a = bdd.var_node("a")
        assert bdd.apply_or(a, ONE) == ONE
        assert bdd.apply_or(a, ZERO) == a
        assert bdd.apply_or(a, a) == a

    def test_xor_self_is_zero(self, bdd):
        a = bdd.var_node("a")
        assert bdd.apply_xor(a, a) == ZERO

    def test_canonical_commutativity(self, bdd):
        a, b, c = (bdd.var_node(n) for n in "abc")
        lhs = bdd.apply_and(bdd.apply_or(a, b), c)
        rhs = bdd.apply_and(c, bdd.apply_or(b, a))
        assert lhs == rhs


class TestIte:
    def test_ite_matches_definition(self, bdd):
        a, b, c = (bdd.var_node(n) for n in "abc")
        f = bdd.ite(a, b, c)
        for env in assignments(["a", "b", "c", "d"]):
            expected = env["b"] if env["a"] else env["c"]
            assert bdd.eval_node(f, env) == expected

    def test_ite_shortcuts(self, bdd):
        a, b = bdd.var_node("a"), bdd.var_node("b")
        assert bdd.ite(ONE, a, b) == a
        assert bdd.ite(ZERO, a, b) == b
        assert bdd.ite(a, ONE, ZERO) == a
        assert bdd.ite(a, ZERO, ONE) == bdd.apply_not(a)
        assert bdd.ite(a, b, b) == b

    def test_ite_equals_composition(self, bdd):
        a, b, c = (bdd.var_node(n) for n in "abc")
        via_ite = bdd.ite(a, b, c)
        manual = bdd.apply_or(bdd.apply_and(a, b),
                              bdd.apply_and(bdd.apply_not(a), c))
        assert via_ite == manual


class TestQuantification:
    def test_exists_removes_variable(self, bdd):
        a, b = bdd.var_node("a"), bdd.var_node("b")
        f = bdd.apply_and(a, b)
        g = bdd.exists(f, ["a"])
        assert g == b
        assert bdd.var_index("a") not in bdd.support(g)

    def test_exists_of_contradiction(self, bdd):
        a = bdd.var_node("a")
        f = bdd.apply_and(a, bdd.apply_not(a))
        assert bdd.exists(f, ["a"]) == ZERO

    def test_exists_multiple_vars(self, bdd):
        a, b, c = (bdd.var_node(n) for n in "abc")
        f = bdd.apply_and(bdd.apply_and(a, b), c)
        assert bdd.exists(f, ["a", "b", "c"]) == ONE

    def test_exists_no_vars_is_identity(self, bdd):
        a = bdd.var_node("a")
        assert bdd.exists(a, []) == a

    def test_forall(self, bdd):
        a, b = bdd.var_node("a"), bdd.var_node("b")
        f = bdd.apply_or(a, b)
        assert bdd.forall(f, ["a"]) == b
        assert bdd.forall(f, ["a", "b"]) == ZERO
        assert bdd.forall(ONE, ["a"]) == ONE

    def test_and_exists_equals_two_steps(self, bdd):
        a, b, c, d = (bdd.var_node(n) for n in "abcd")
        f = bdd.apply_or(bdd.apply_and(a, b), c)
        g = bdd.apply_or(bdd.apply_and(b, d), a)
        combined = bdd.and_exists(f, g, ["b"])
        two_step = bdd.exists(bdd.apply_and(f, g), ["b"])
        assert combined == two_step

    def test_and_exists_terminal_cases(self, bdd):
        a = bdd.var_node("a")
        assert bdd.and_exists(ZERO, a, ["a"]) == ZERO
        assert bdd.and_exists(ONE, ONE, ["a"]) == ONE
        assert bdd.and_exists(a, ONE, ["a"]) == ONE


class TestCofactorRenameToggle:
    def test_cofactor_positive(self, bdd):
        a, b = bdd.var_node("a"), bdd.var_node("b")
        f = bdd.apply_and(a, b)
        assert bdd.cofactor(f, {"a": True}) == b
        assert bdd.cofactor(f, {"a": False}) == ZERO

    def test_cofactor_multiple(self, bdd):
        a, b, c = (bdd.var_node(n) for n in "abc")
        f = bdd.apply_or(bdd.apply_and(a, b), c)
        g = bdd.cofactor(f, {"a": True, "c": False})
        assert g == b

    def test_cofactor_empty_assignment(self, bdd):
        a = bdd.var_node("a")
        assert bdd.cofactor(a, {}) == a

    def test_cube(self, bdd):
        cube = bdd.cube({"a": True, "b": False})
        for env in assignments(["a", "b", "c", "d"]):
            assert bdd.eval_node(cube, env) == (env["a"] and not env["b"])

    def test_rename_monotone(self, bdd):
        a, b = bdd.var_node("a"), bdd.var_node("b")
        f = bdd.apply_and(a, b)
        g = bdd.rename(f, {"a": "c", "b": "d"})
        c, d = bdd.var_node("c"), bdd.var_node("d")
        assert g == bdd.apply_and(c, d)

    def test_rename_rejects_non_monotone(self, bdd):
        a, b = bdd.var_node("a"), bdd.var_node("b")
        f = bdd.apply_and(a, bdd.apply_not(b))
        with pytest.raises(BDDError):
            bdd.rename(f, {"a": "d", "b": "c"})

    def test_rename_identity(self, bdd):
        a = bdd.var_node("a")
        assert bdd.rename(a, {}) == a

    def test_toggle_single(self, bdd):
        a, b = bdd.var_node("a"), bdd.var_node("b")
        f = bdd.apply_and(a, b)
        g = bdd.toggle(f, ["a"])
        for env in assignments(["a", "b", "c", "d"]):
            flipped = dict(env)
            flipped["a"] = not flipped["a"]
            assert bdd.eval_node(g, env) == bdd.eval_node(f, flipped)

    def test_toggle_involution(self, bdd):
        a, b, c = (bdd.var_node(n) for n in "abc")
        f = bdd.apply_or(bdd.apply_and(a, b), c)
        assert bdd.toggle(bdd.toggle(f, ["a", "c"]), ["a", "c"]) == f

    def test_compose(self, bdd):
        a, b, c = (bdd.var_node(n) for n in "abc")
        f = bdd.apply_and(a, b)
        g = bdd.compose(f, "b", c)
        assert g == bdd.apply_and(a, c)


class TestInspection:
    def test_support(self, bdd):
        a, c = bdd.var_node("a"), bdd.var_node("c")
        f = bdd.apply_and(a, c)
        assert bdd.support(f) == frozenset(
            {bdd.var_index("a"), bdd.var_index("c")})

    def test_support_of_terminal_is_empty(self, bdd):
        assert bdd.support(ONE) == frozenset()
        assert bdd.support(ZERO) == frozenset()

    def test_satcount_basic(self, bdd):
        a, b = bdd.var_node("a"), bdd.var_node("b")
        assert bdd.satcount(bdd.apply_and(a, b)) == 4  # over 4 vars
        assert bdd.satcount(bdd.apply_or(a, b)) == 12
        assert bdd.satcount(ONE) == 16
        assert bdd.satcount(ZERO) == 0

    def test_satcount_custom_width(self, bdd):
        a = bdd.var_node("a")
        assert bdd.satcount(a, nvars=1) == 1
        assert bdd.satcount(a, nvars=2) == 2

    def test_satcount_rejects_too_few_vars(self, bdd):
        a, b = bdd.var_node("a"), bdd.var_node("b")
        f = bdd.apply_and(a, b)
        with pytest.raises(BDDError):
            bdd.satcount(f, nvars=1)

    def test_sat_one(self, bdd):
        a, b = bdd.var_node("a"), bdd.var_node("b")
        f = bdd.apply_and(a, bdd.apply_not(b))
        cube = bdd.sat_one(f)
        assert cube[bdd.var_index("a")] is True
        assert cube[bdd.var_index("b")] is False
        assert bdd.sat_one(ZERO) is None
        assert bdd.sat_one(ONE) == {}

    def test_iter_cubes_cover_function(self, bdd):
        a, b, c = (bdd.var_node(n) for n in "abc")
        f = bdd.apply_or(bdd.apply_and(a, b), c)
        cubes = list(bdd.iter_cubes(f))
        assert cubes
        for cube in cubes:
            env = {v: False for v in range(4)}
            env.update(cube)
            assert bdd.eval_node(f, env)

    def test_iter_minterms_count_matches_satcount(self, bdd):
        a, b = bdd.var_node("a"), bdd.var_node("b")
        f = bdd.apply_or(a, b)
        minterms = list(bdd.iter_minterms(f))
        assert len(minterms) == bdd.satcount(f)

    def test_size(self, bdd):
        a, b = bdd.var_node("a"), bdd.var_node("b")
        f = bdd.apply_and(a, b)
        assert bdd.size(f) == 3  # two internal nodes + one terminal
        assert bdd.size(ONE) == 1
        assert bdd.size(ZERO) == 1  # both polarities share the terminal


class TestGarbageCollection:
    def test_unreferenced_nodes_are_freed(self):
        bdd = BDD(var_names=["a", "b", "c"])
        a, b, c = (bdd.var_node(n) for n in "abc")
        f = bdd.apply_and(bdd.apply_or(a, b), c)
        bdd.ref(f)
        before = bdd.live_nodes()
        bdd.apply_xor(bdd.apply_and(a, c), b)  # garbage
        assert bdd.live_nodes() > before
        bdd.collect_garbage()
        # f and its cone must survive.
        assert bdd.eval_node(f, {"a": True, "b": False, "c": True})
        bdd.assert_consistent()

    def test_referenced_node_survives_gc(self):
        bdd = BDD(var_names=["a", "b"])
        f = bdd.apply_and(bdd.var_node("a"), bdd.var_node("b"))
        bdd.ref(f)
        bdd.collect_garbage()
        assert bdd.satcount(f) == 1

    def test_deref_underflow_raises(self):
        bdd = BDD(var_names=["a"])
        f = bdd.var_node("a")
        bdd.ref(f)
        bdd.deref(f)
        with pytest.raises(BDDError):
            bdd.deref(f)

    def test_freed_slots_are_reused(self):
        bdd = BDD(var_names=["a", "b", "c"])
        a, b, c = (bdd.var_node(n) for n in "abc")
        bdd.ref(a), bdd.ref(b), bdd.ref(c)
        bdd.apply_and(bdd.apply_or(a, b), c)
        bdd.collect_garbage()
        free_before = len(bdd._free)
        assert free_before > 0
        bdd.apply_and(a, b)
        assert len(bdd._free) < free_before

    def test_gc_returns_freed_count(self):
        bdd = BDD(var_names=["a", "b", "c"])
        a, b, c = (bdd.var_node(n) for n in "abc")
        bdd.ref(a), bdd.ref(b), bdd.ref(c)
        bdd.apply_and(bdd.apply_and(a, b), c)
        assert bdd.collect_garbage() > 0
