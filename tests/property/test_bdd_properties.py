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


# --- fused chained steps ------------------------------------------------

# Operand shapes of the chained callers: the fixpoint and ``ef`` pass
# the running set as both ``u`` and ``w``, the single-step images pass
# ``u = ZERO``, and a care set may be the constant ``ONE``.
ALIASES = ("distinct", "u_is_w", "u_zero", "v_one")


def level_sets():
    """Levels a toggle set or assignment touches: none, the top, the
    middle or the bottom level alone, or any subset."""
    return st.one_of(
        st.sampled_from([(), (0,), (NUM_VARS // 2,), (NUM_VARS - 1,)]),
        st.sets(st.integers(min_value=0, max_value=NUM_VARS - 1),
                max_size=NUM_VARS).map(tuple))


def fused_operands(bdd, exprs_uwv, alias, flips):
    """Build ``(u, w, v)``, complement the flagged ones, then alias."""
    u, w, v = (build_bdd(bdd, expr) ^ flip
               for expr, flip in zip(exprs_uwv, flips))
    if alias == "u_is_w":
        u = w
    elif alias == "u_zero":
        u = ZERO
    elif alias == "v_one":
        v = ONE
    return u, w, v


def composed_toggle_step(bdd, u, w, v, variables):
    return bdd.apply_or(u, bdd.toggle(bdd.apply_and(w, v), variables))


def composed_cofactor_step(bdd, u, w, assignment, v):
    return bdd.apply_or(u, bdd.apply_and(bdd.cofactor(w, assignment), v))


fused_inputs = (st.tuples(exprs(), exprs(), exprs()),
                st.sampled_from(ALIASES),
                st.tuples(st.booleans(), st.booleans(), st.booleans()),
                level_sets(), st.permutations(list(range(NUM_VARS))))


@settings(max_examples=150, deadline=None)
@given(*fused_inputs)
def test_or_and_toggle_equals_composition(exprs_uwv, alias, flips, levels,
                                          order):
    bdd = BDD(var_names=NAMES)
    bdd.set_order(order)
    u, w, v = fused_operands(bdd, exprs_uwv, alias, flips)
    variables = [bdd.var_at_level(level) for level in levels]
    assert (bdd.or_and_toggle(u, w, v, variables)
            == composed_toggle_step(bdd, u, w, v, variables))


@settings(max_examples=150, deadline=None)
@given(*fused_inputs, st.lists(st.booleans(), min_size=NUM_VARS,
                               max_size=NUM_VARS))
def test_or_cofactor_and_equals_composition(exprs_uwv, alias, flips, levels,
                                            order, values):
    bdd = BDD(var_names=NAMES)
    bdd.set_order(order)
    u, w, v = fused_operands(bdd, exprs_uwv, alias, flips)
    assignment = {bdd.var_at_level(level): values[level] for level in levels}
    assert (bdd.or_cofactor_and(u, w, assignment, v)
            == composed_cofactor_step(bdd, u, w, assignment, v))


@settings(max_examples=60, deadline=None)
@given(st.tuples(exprs(), exprs(), exprs()),
       st.sets(st.integers(min_value=0, max_value=NUM_VARS - 1), max_size=3),
       st.dictionaries(st.integers(min_value=0, max_value=NUM_VARS - 1),
                       st.booleans(), max_size=3))
def test_fused_steps_match_brute_force(exprs_uwv, variables, assignment):
    """Semantic check against direct evaluation of both formulas."""
    bdd = BDD(var_names=NAMES)
    u, w, v = (build_bdd(bdd, expr) for expr in exprs_uwv)
    toggled = bdd.or_and_toggle(u, w, v, variables)
    restricted = bdd.or_cofactor_and(u, w, assignment, v)
    left, middle, right = exprs_uwv
    for env in all_envs():
        flipped = {var: (not val if var in variables else val)
                   for var, val in env.items()}
        fixed = dict(env)
        fixed.update(assignment)
        assert bdd.eval_node(toggled, env) == (
            eval_expr(left, env) or (eval_expr(middle, flipped)
                                     and eval_expr(right, flipped)))
        assert bdd.eval_node(restricted, env) == (
            eval_expr(left, env) or (eval_expr(middle, fixed)
                                     and eval_expr(right, env)))


@settings(max_examples=60, deadline=None)
@given(st.tuples(exprs(), exprs(), exprs()),
       st.sets(st.integers(min_value=0, max_value=NUM_VARS - 1), max_size=3),
       st.dictionaries(st.integers(min_value=0, max_value=NUM_VARS - 1),
                       st.booleans(), max_size=3),
       st.permutations(list(range(NUM_VARS))))
def test_fused_step_caches_cleared_by_set_order(exprs_uwv, variables,
                                                assignment, order):
    """Both fused caches are registered with the kernel: ``set_order``
    empties them, and the steps taken after it still equal the
    composed formulas."""
    bdd = BDD(var_names=NAMES)
    u, w, v = (bdd.ref(build_bdd(bdd, expr)) for expr in exprs_uwv)
    toggled = bdd.ref(bdd.or_and_toggle(u, w, v, variables))
    restricted = bdd.ref(bdd.or_cofactor_and(u, w, assignment, v))
    bdd.set_order(order)
    assert not bdd._oat_cache and not bdd._oca_cache
    assert bdd.or_and_toggle(u, w, v, variables) == toggled
    assert bdd.or_cofactor_and(u, w, assignment, v) == restricted
    assert toggled == composed_toggle_step(bdd, u, w, v, variables)
    assert restricted == composed_cofactor_step(bdd, u, w, assignment, v)


# --- constrained saturation -----------------------------------------------

def cube_exprs():
    """Conjunctions of one to three literals: the enabling functions and
    the single markings of a Petri net."""
    def conjoin(literals):
        expr = ("const", True)
        for var, value in sorted(literals.items()):
            literal = ("var", var) if value else ("not", ("var", var))
            expr = ("and", expr, literal)
        return expr

    return st.dictionaries(st.integers(min_value=0, max_value=NUM_VARS - 1),
                           st.booleans(), min_size=1, max_size=3).map(conjoin)


def events():
    """Random events ``(enabling expression, forced values)``.  Random
    expressions skip levels; cube enablings with forced variables drawn
    on their own force outside their support, and make events whose
    span holds another event's top level."""
    forced = st.dictionaries(st.integers(min_value=0, max_value=NUM_VARS - 1),
                             st.booleans(), max_size=3)
    return st.lists(st.tuples(st.one_of(exprs(), cube_exprs()), forced),
                    min_size=1, max_size=5)


def chained_pre_fixpoint(bdd, constraint, target, event_list):
    """Reference: ``X |= c AND X|force AND E`` one event at a time,
    iterated until a pass adds nothing."""
    current = bdd.apply_and(target, constraint)
    while True:
        previous = current
        for force, enabling in event_list:
            current = bdd.or_cofactor_and(current, current, force,
                                          bdd.apply_and(enabling, constraint))
        if current == previous:
            return current


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.just(("const", True)), exprs()),
       st.one_of(exprs(), cube_exprs()), events(), st.permutations(list(range(NUM_VARS))))
def test_saturate_pre_equals_chained_fixpoint(constraint_expr, target_expr,
                                              event_exprs, order):
    """Edge-equal to the chained fixpoint and to explicit search, with
    no entry left in a registered cache.  The constraint is often the
    constant true, so an empty constraint does not mask what an event
    forces below its top level."""
    bdd = BDD(var_names=NAMES)
    bdd.set_order(order)
    constraint = bdd.ref(build_bdd(bdd, constraint_expr))
    target = bdd.ref(build_bdd(bdd, target_expr))
    event_list = [(force, bdd.ref(build_bdd(bdd, expr)))
                  for expr, force in event_exprs]
    bdd.clear_caches()
    saturated = bdd.saturate_pre(constraint, target, event_list)
    assert all(not cache for cache in bdd._op_caches)
    assert saturated == chained_pre_fixpoint(bdd, constraint, target,
                                             event_list)
    # And against explicit backward search over all assignments.
    closed = {values for values in itertools.product([False, True],
                                                     repeat=NUM_VARS)
              if eval_expr(constraint_expr, dict(enumerate(values)))
              and eval_expr(target_expr, dict(enumerate(values)))}
    grown = True
    while grown:
        grown = False
        for values in itertools.product([False, True], repeat=NUM_VARS):
            env = dict(enumerate(values))
            if values in closed or not eval_expr(constraint_expr, env):
                continue
            for expr, force in event_exprs:
                successor = dict(env)
                successor.update(force)
                if (eval_expr(expr, env) and tuple(
                        successor[i] for i in range(NUM_VARS)) in closed):
                    closed.add(values)
                    grown = True
                    break
    for env in all_envs():
        assert bdd.eval_node(saturated, env) == (
            tuple(env[i] for i in range(NUM_VARS)) in closed)


# --- forward saturation ---------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.one_of(exprs(), cube_exprs()), events(),
       st.permutations(list(range(NUM_VARS))),
       st.integers(min_value=0, max_value=NUM_VARS))
def test_saturate_post_matches_forward_search(source_expr, event_exprs,
                                              order, min_top):
    """The least superset of ``source`` closed under every event whose
    top level is at or below ``min_top``: a state satisfying ``E``
    moves to itself with the forced values written in.  Checked against
    explicit forward search, with no entry left in a registered
    cache."""
    bdd = BDD(var_names=NAMES)
    bdd.set_order(order)
    source = bdd.ref(build_bdd(bdd, source_expr))
    event_list = [(force, bdd.ref(build_bdd(bdd, expr)))
                  for expr, force in event_exprs]
    bdd.clear_caches()
    saturated = bdd.saturate_post(source, event_list, min_top)
    assert all(not cache for cache in bdd._op_caches)

    def top(enabling, force):
        variables = set(bdd.support(enabling)) | set(force)
        return min((bdd.level_of_var(var) for var in variables),
                   default=NUM_VARS)

    firing = [(expr, force)
              for (expr, force), (_, enabling) in zip(event_exprs,
                                                      event_list)
              if enabling != ZERO and top(enabling, force) >= min_top]
    closed = {tuple(env[i] for i in range(NUM_VARS))
              for env in all_envs() if eval_expr(source_expr, env)}
    stack = list(closed)
    while stack:
        env = dict(enumerate(stack.pop()))
        for expr, force in firing:
            if not eval_expr(expr, env):
                continue
            successor = dict(env)
            successor.update(force)
            values = tuple(successor[i] for i in range(NUM_VARS))
            if values not in closed:
                closed.add(values)
                stack.append(values)
    for env in all_envs():
        assert bdd.eval_node(saturated, env) == (
            tuple(env[i] for i in range(NUM_VARS)) in closed)
