"""Property-based tests for the BDD package.

Random boolean expression trees are evaluated both through the BDD and by
direct recursive evaluation over all assignments; every operation the
symbolic layer relies on is exercised under random structure, and the
manager invariants are re-validated after reordering and garbage
collection.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.bdd import BDD, ONE, ZERO, variable
from repro.dd.reorder import sift

NUM_VARS = 5
NAMES = [f"v{i}" for i in range(NUM_VARS)]


# --- random expression trees -------------------------------------------

def exprs():
    leaves = st.sampled_from([("var", i) for i in range(NUM_VARS)]
                             + [("const", False), ("const", True)])

    def extend(children):
        return st.one_of(
            st.tuples(st.just("not"), children),
            st.tuples(st.just("and"), children, children),
            st.tuples(st.just("or"), children, children),
            st.tuples(st.just("xor"), children, children),
            st.tuples(st.just("ite"), children, children, children),
        )

    return st.recursive(leaves, extend, max_leaves=12)


def eval_expr(expr, env):
    tag = expr[0]
    if tag == "var":
        return env[expr[1]]
    if tag == "const":
        return expr[1]
    if tag == "not":
        return not eval_expr(expr[1], env)
    if tag == "and":
        return eval_expr(expr[1], env) and eval_expr(expr[2], env)
    if tag == "or":
        return eval_expr(expr[1], env) or eval_expr(expr[2], env)
    if tag == "xor":
        return eval_expr(expr[1], env) != eval_expr(expr[2], env)
    if tag == "ite":
        return (eval_expr(expr[2], env) if eval_expr(expr[1], env)
                else eval_expr(expr[3], env))
    raise AssertionError(tag)


def build_bdd(bdd, expr):
    tag = expr[0]
    if tag == "var":
        return bdd.var_node(expr[1])
    if tag == "const":
        return ONE if expr[1] else ZERO
    if tag == "not":
        return bdd.apply_not(build_bdd(bdd, expr[1]))
    if tag == "and":
        return bdd.apply_and(build_bdd(bdd, expr[1]), build_bdd(bdd, expr[2]))
    if tag == "or":
        return bdd.apply_or(build_bdd(bdd, expr[1]), build_bdd(bdd, expr[2]))
    if tag == "xor":
        return bdd.apply_xor(build_bdd(bdd, expr[1]), build_bdd(bdd, expr[2]))
    if tag == "ite":
        return bdd.ite(build_bdd(bdd, expr[1]), build_bdd(bdd, expr[2]),
                       build_bdd(bdd, expr[3]))
    raise AssertionError(tag)


def all_envs():
    for values in itertools.product([False, True], repeat=NUM_VARS):
        yield dict(enumerate(values))


@settings(max_examples=120, deadline=None)
@given(exprs())
def test_bdd_matches_brute_force(expr):
    bdd = BDD(var_names=NAMES)
    node = build_bdd(bdd, expr)
    for env in all_envs():
        assert bdd.eval_node(node, env) == eval_expr(expr, env)


@settings(max_examples=120, deadline=None)
@given(exprs())
def test_satcount_matches_brute_force(expr):
    bdd = BDD(var_names=NAMES)
    node = build_bdd(bdd, expr)
    expected = sum(1 for env in all_envs() if eval_expr(expr, env))
    assert bdd.satcount(node, nvars=NUM_VARS) == expected


@settings(max_examples=80, deadline=None)
@given(exprs(), st.integers(min_value=0, max_value=NUM_VARS - 1))
def test_exists_matches_brute_force(expr, var):
    bdd = BDD(var_names=NAMES)
    node = build_bdd(bdd, expr)
    quantified = bdd.exists(node, [var])
    for env in all_envs():
        env0, env1 = dict(env), dict(env)
        env0[var], env1[var] = False, True
        expected = eval_expr(expr, env0) or eval_expr(expr, env1)
        assert bdd.eval_node(quantified, env) == expected


@settings(max_examples=80, deadline=None)
@given(exprs(), st.integers(min_value=0, max_value=NUM_VARS - 1))
def test_forall_matches_brute_force(expr, var):
    bdd = BDD(var_names=NAMES)
    node = build_bdd(bdd, expr)
    quantified = bdd.forall(node, [var])
    for env in all_envs():
        env0, env1 = dict(env), dict(env)
        env0[var], env1[var] = False, True
        expected = eval_expr(expr, env0) and eval_expr(expr, env1)
        assert bdd.eval_node(quantified, env) == expected


@settings(max_examples=60, deadline=None)
@given(exprs(), exprs(),
       st.sets(st.integers(min_value=0, max_value=NUM_VARS - 1), max_size=3))
def test_and_exists_equals_composition(left, right, variables):
    bdd = BDD(var_names=NAMES)
    u = build_bdd(bdd, left)
    v = build_bdd(bdd, right)
    assert (bdd.and_exists(u, v, variables)
            == bdd.exists(bdd.apply_and(u, v), variables))


@settings(max_examples=60, deadline=None)
@given(exprs(), exprs(),
       st.sets(st.integers(min_value=0, max_value=NUM_VARS - 1), max_size=3),
       st.permutations(list(range(NUM_VARS))))
def test_and_exists_consistent_across_reordering(left, right, variables,
                                                 order):
    """The dedicated relational-product cache must be invalidated by
    variable reordering: the fused product stays equal to the
    materialised composition before and after ``set_order``."""
    bdd = BDD(var_names=NAMES)
    u = build_bdd(bdd, left)
    v = build_bdd(bdd, right)
    before = bdd.and_exists(u, v, variables)
    bdd.ref(u), bdd.ref(v), bdd.ref(before)
    bdd.set_order(order)
    after = bdd.and_exists(u, v, variables)
    assert after == before
    assert after == bdd.exists(bdd.apply_and(u, v), variables)


@settings(max_examples=60, deadline=None)
@given(exprs(), exprs(),
       st.sets(st.integers(min_value=0, max_value=NUM_VARS - 1), max_size=5))
def test_and_exists_matches_brute_force(left, right, variables):
    """Semantic check against direct evaluation, any quantified set."""
    bdd = BDD(var_names=NAMES)
    u = build_bdd(bdd, left)
    v = build_bdd(bdd, right)
    product = bdd.and_exists(u, v, variables)
    for env in all_envs():
        expected = False
        for qvalues in itertools.product([False, True],
                                         repeat=len(variables)):
            probe = dict(env)
            probe.update(zip(sorted(variables), qvalues))
            if eval_expr(left, probe) and eval_expr(right, probe):
                expected = True
                break
        assert bdd.eval_node(product, env) == expected


@settings(max_examples=80, deadline=None)
@given(exprs(),
       st.sets(st.integers(min_value=0, max_value=NUM_VARS - 1), max_size=3))
def test_toggle_matches_flipped_evaluation(expr, variables):
    bdd = BDD(var_names=NAMES)
    node = build_bdd(bdd, expr)
    toggled = bdd.toggle(node, variables)
    for env in all_envs():
        flipped = {v: (not val if v in variables else val)
                   for v, val in env.items()}
        assert bdd.eval_node(toggled, env) == eval_expr(expr, flipped)


@settings(max_examples=80, deadline=None)
@given(exprs(), st.dictionaries(
    st.integers(min_value=0, max_value=NUM_VARS - 1), st.booleans(),
    max_size=NUM_VARS))
def test_cofactor_matches_brute_force(expr, assignment):
    bdd = BDD(var_names=NAMES)
    node = build_bdd(bdd, expr)
    restricted = bdd.cofactor(node, assignment)
    for env in all_envs():
        fixed = dict(env)
        fixed.update(assignment)
        assert bdd.eval_node(restricted, env) == eval_expr(expr, fixed)


@settings(max_examples=80, deadline=None)
@given(exprs(), st.integers(min_value=0, max_value=NUM_VARS - 1), exprs())
def test_compose_matches_brute_force(expr, var, substitute):
    bdd = BDD(var_names=NAMES)
    node = build_bdd(bdd, expr)
    composed = bdd.compose(node, var, build_bdd(bdd, substitute))
    for env in all_envs():
        replaced = dict(env)
        replaced[var] = eval_expr(substitute, env)
        assert bdd.eval_node(composed, env) == eval_expr(expr, replaced)


@settings(max_examples=80, deadline=None)
@given(exprs())
def test_rename_to_primed_copy_matches_brute_force(expr):
    """Renaming onto an order-preserving copy of the variables (the
    current-to-next shift of the image computation) evaluates the copy
    exactly as the original."""
    primed = [f"{name}'" for name in NAMES]
    bdd = BDD(var_names=NAMES + primed)
    node = build_bdd(bdd, expr)
    renamed = bdd.rename(node, dict(zip(NAMES, primed)))
    for env in all_envs():
        shifted = {NUM_VARS + v: val for v, val in env.items()}
        shifted.update({v: not val for v, val in env.items()})
        assert bdd.eval_node(renamed, shifted) == eval_expr(expr, env)


@settings(max_examples=80, deadline=None)
@given(exprs())
def test_sat_one_cube_implies_function(expr):
    bdd = BDD(var_names=NAMES)
    node = build_bdd(bdd, expr)
    cube = bdd.sat_one(node)
    satisfiable = any(eval_expr(expr, env) for env in all_envs())
    assert (cube is not None) == satisfiable
    if cube is not None:
        for env in all_envs():
            if all(env[v] == val for v, val in cube.items()):
                assert eval_expr(expr, env)


@settings(max_examples=80, deadline=None)
@given(exprs())
def test_iter_minterms_enumerates_exactly_the_models(expr):
    bdd = BDD(var_names=NAMES)
    node = build_bdd(bdd, expr)
    minterms = [tuple(m[v] for v in range(NUM_VARS))
                for m in bdd.iter_minterms(node)]
    models = [tuple(env[v] for v in range(NUM_VARS))
              for env in all_envs() if eval_expr(expr, env)]
    assert len(minterms) == len(set(minterms))
    assert sorted(minterms) == sorted(models)


@settings(max_examples=60, deadline=None)
@given(exprs(), st.permutations(list(range(NUM_VARS))))
def test_set_order_preserves_semantics(expr, order):
    bdd = BDD(var_names=NAMES)
    node = build_bdd(bdd, expr)
    bdd.ref(node)
    bdd.set_order(order)
    bdd.assert_consistent()
    for env in all_envs():
        assert bdd.eval_node(node, env) == eval_expr(expr, env)


@settings(max_examples=40, deadline=None)
@given(st.lists(exprs(), min_size=1, max_size=4))
def test_sift_preserves_many_roots(expr_list):
    bdd = BDD(var_names=NAMES)
    handles = []
    for expr in expr_list:
        node = build_bdd(bdd, expr)
        bdd.ref(node)
        handles.append((expr, node))
    sift(bdd)
    bdd.assert_consistent()
    for expr, node in handles:
        for env in all_envs():
            assert bdd.eval_node(node, env) == eval_expr(expr, env)


@settings(max_examples=60, deadline=None)
@given(exprs(), exprs())
def test_gc_preserves_referenced_roots(left, right):
    bdd = BDD(var_names=NAMES)
    keep = build_bdd(bdd, left)
    bdd.ref(keep)
    build_bdd(bdd, right)  # becomes garbage
    bdd.collect_garbage()
    bdd.assert_consistent()
    for env in all_envs():
        assert bdd.eval_node(keep, env) == eval_expr(left, env)


@settings(max_examples=60, deadline=None)
@given(exprs())
def test_canonicity_double_build(expr):
    """Building the same function twice yields the same node id."""
    bdd = BDD(var_names=NAMES)
    assert build_bdd(bdd, expr) == build_bdd(bdd, expr)


@settings(max_examples=60, deadline=None)
@given(exprs())
def test_negation_is_complement(expr):
    bdd = BDD(var_names=NAMES)
    node = build_bdd(bdd, expr)
    negated = bdd.apply_not(node)
    assert bdd.apply_and(node, negated) == ZERO
    assert bdd.apply_or(node, negated) == ONE
    count = bdd.satcount(node, nvars=NUM_VARS)
    assert bdd.satcount(negated, nvars=NUM_VARS) == 2 ** NUM_VARS - count
