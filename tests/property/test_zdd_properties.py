"""Property-based tests for the ZDD manager against Python set families."""

from hypothesis import given, settings, strategies as st

from repro.bdd import EMPTY, ZDD

NUM_ELEMS = 5
NAMES = [f"e{i}" for i in range(NUM_ELEMS)]

set_strategy = st.frozensets(
    st.integers(min_value=0, max_value=NUM_ELEMS - 1), max_size=NUM_ELEMS)
family_strategy = st.frozensets(set_strategy, max_size=12)


def build(zdd, fam):
    return zdd.from_sets(fam)


def extract(zdd, node):
    return frozenset(zdd.iter_sets(node))


@settings(max_examples=150, deadline=None)
@given(family_strategy)
def test_roundtrip(fam):
    zdd = ZDD(var_names=NAMES)
    assert extract(zdd, build(zdd, fam)) == fam


@settings(max_examples=150, deadline=None)
@given(family_strategy, family_strategy)
def test_union_is_set_union(fam1, fam2):
    zdd = ZDD(var_names=NAMES)
    node = zdd.union(build(zdd, fam1), build(zdd, fam2))
    assert extract(zdd, node) == fam1 | fam2


@settings(max_examples=150, deadline=None)
@given(family_strategy, family_strategy)
def test_intersect_is_set_intersection(fam1, fam2):
    zdd = ZDD(var_names=NAMES)
    node = zdd.intersect(build(zdd, fam1), build(zdd, fam2))
    assert extract(zdd, node) == fam1 & fam2


@settings(max_examples=150, deadline=None)
@given(family_strategy, family_strategy)
def test_diff_is_set_difference(fam1, fam2):
    zdd = ZDD(var_names=NAMES)
    node = zdd.diff(build(zdd, fam1), build(zdd, fam2))
    assert extract(zdd, node) == fam1 - fam2


@settings(max_examples=150, deadline=None)
@given(family_strategy, st.integers(min_value=0, max_value=NUM_ELEMS - 1))
def test_subset1_semantics(fam, elem):
    zdd = ZDD(var_names=NAMES)
    node = zdd.subset1(build(zdd, fam), elem)
    expected = frozenset(s - {elem} for s in fam if elem in s)
    assert extract(zdd, node) == expected


@settings(max_examples=150, deadline=None)
@given(family_strategy, st.integers(min_value=0, max_value=NUM_ELEMS - 1))
def test_subset0_semantics(fam, elem):
    zdd = ZDD(var_names=NAMES)
    node = zdd.subset0(build(zdd, fam), elem)
    expected = frozenset(s for s in fam if elem not in s)
    assert extract(zdd, node) == expected


@settings(max_examples=150, deadline=None)
@given(family_strategy, st.integers(min_value=0, max_value=NUM_ELEMS - 1))
def test_change_semantics(fam, elem):
    zdd = ZDD(var_names=NAMES)
    node = zdd.change(build(zdd, fam), elem)
    expected = frozenset(
        (s - {elem}) if elem in s else frozenset(s | {elem}) for s in fam)
    assert extract(zdd, node) == expected


@settings(max_examples=150, deadline=None)
@given(family_strategy)
def test_count_matches_cardinality(fam):
    zdd = ZDD(var_names=NAMES)
    assert zdd.count(build(zdd, fam)) == len(fam)


@settings(max_examples=150, deadline=None)
@given(family_strategy, family_strategy)
def test_canonicity(fam1, fam2):
    zdd = ZDD(var_names=NAMES)
    node1, node2 = build(zdd, fam1), build(zdd, fam2)
    assert (node1 == node2) == (fam1 == fam2)


@settings(max_examples=100, deadline=None)
@given(family_strategy, set_strategy)
def test_contains(fam, probe):
    zdd = ZDD(var_names=NAMES)
    node = build(zdd, fam)
    assert zdd.contains(node, probe) == (probe in fam)


@settings(max_examples=100, deadline=None)
@given(family_strategy, st.integers(min_value=0, max_value=NUM_ELEMS - 1))
def test_partition_by_element(fam, elem):
    """with-elem and without-elem partition the family."""
    zdd = ZDD(var_names=NAMES)
    node = build(zdd, fam)
    with_e = zdd.change(zdd.subset1(node, elem), elem)
    without_e = zdd.subset0(node, elem)
    assert zdd.union(with_e, without_e) == node
    assert zdd.intersect(with_e, without_e) == EMPTY


# ---------------------------------------------------------------------
# The relational core: product / exists / project / supset / rename /
# and_exists
# ---------------------------------------------------------------------

vars_strategy = st.frozensets(
    st.integers(min_value=0, max_value=NUM_ELEMS - 1), max_size=NUM_ELEMS)
ALL_ELEMS = frozenset(range(NUM_ELEMS))


@settings(max_examples=150, deadline=None)
@given(family_strategy, family_strategy)
def test_product_is_set_join(fam1, fam2):
    zdd = ZDD(var_names=NAMES)
    node = zdd.product(build(zdd, fam1), build(zdd, fam2))
    assert extract(zdd, node) == frozenset(a | b for a in fam1
                                           for b in fam2)


@settings(max_examples=150, deadline=None)
@given(family_strategy, family_strategy, family_strategy)
def test_product_distributes_over_union(fam1, fam2, fam3):
    zdd = ZDD(var_names=NAMES)
    u, v, w = (build(zdd, f) for f in (fam1, fam2, fam3))
    assert zdd.product(u, zdd.union(v, w)) \
        == zdd.union(zdd.product(u, v), zdd.product(u, w))


@settings(max_examples=150, deadline=None)
@given(family_strategy, vars_strategy)
def test_exists_semantics_and_idempotence(fam, qvars):
    zdd = ZDD(var_names=NAMES)
    node = build(zdd, fam)
    once = zdd.exists(node, qvars)
    assert extract(zdd, once) == frozenset(s - qvars for s in fam)
    assert zdd.exists(once, qvars) == once


@settings(max_examples=150, deadline=None)
@given(family_strategy, vars_strategy)
def test_project_is_exists_on_the_complement(fam, keep):
    zdd = ZDD(var_names=NAMES)
    node = build(zdd, fam)
    projected = zdd.project(node, keep)
    assert extract(zdd, projected) == frozenset(s & keep for s in fam)
    assert projected == zdd.exists(node, ALL_ELEMS - keep)


@settings(max_examples=150, deadline=None)
@given(family_strategy, vars_strategy)
def test_supset_filters_by_containment(fam, want):
    zdd = ZDD(var_names=NAMES)
    node = zdd.supset(build(zdd, fam), want)
    assert extract(zdd, node) == frozenset(s for s in fam if want <= s)


@settings(max_examples=150, deadline=None)
@given(family_strategy)
def test_rename_round_trip(fam):
    """Shifting every element to its primed copy and back is identity."""
    paired = ZDD()
    for name in NAMES:
        paired.add_var(name)
        paired.add_var(name + "'")
    node = paired.from_sets([{2 * e for e in s} for s in fam])
    forward = {2 * i: 2 * i + 1 for i in range(NUM_ELEMS)}
    backward = {2 * i + 1: 2 * i for i in range(NUM_ELEMS)}
    assert paired.rename(paired.rename(node, forward), backward) == node


@settings(max_examples=150, deadline=None)
@given(family_strategy, family_strategy, vars_strategy)
def test_and_exists_is_fused_project_of_product(fam1, fam2, qvars):
    """``and_exists(u, v, qvars)`` equals ``exists(product(u, v), qvars)``
    — equivalently the projection of the product onto the kept subset."""
    zdd = ZDD(var_names=NAMES)
    u, v = build(zdd, fam1), build(zdd, fam2)
    fused = zdd.and_exists(u, v, qvars)
    joined = zdd.product(u, v)
    assert fused == zdd.exists(joined, qvars)
    assert fused == zdd.project(joined, ALL_ELEMS - qvars)


# ---------------------------------------------------------------------
# Saturation: the forward fixpoint in one recursion
# ---------------------------------------------------------------------

zdd_events = st.lists(st.tuples(vars_strategy, vars_strategy), max_size=5)


@settings(max_examples=150, deadline=None)
@given(family_strategy, zdd_events,
       st.permutations(list(range(NUM_ELEMS))),
       st.integers(min_value=0, max_value=NUM_ELEMS))
def test_saturate_post_matches_forward_search(fam, events, order, min_top):
    """The least family ``⊇ fam`` closed under ``M -> (M - consume) |
    produce`` for ``consume ⊆ M``, over the events whose top level is at
    or below ``min_top``.  Checked against explicit forward search, with
    no entry left in a registered cache."""
    zdd = ZDD(var_names=NAMES)
    zdd.set_order(order)
    node = build(zdd, fam)
    zdd.clear_caches()
    saturated = zdd.saturate_post(node, events, min_top)
    assert all(not cache for cache in zdd._op_caches)

    def top(consume, produce):
        return min((zdd.level_of_var(e) for e in consume | produce),
                   default=None)

    firing = [(consume, produce) for consume, produce in events
              if top(consume, produce) is not None
              and top(consume, produce) >= min_top]
    closed = set(fam)
    stack = list(closed)
    while stack:
        members = stack.pop()
        for consume, produce in firing:
            if consume <= members:
                successor = (members - consume) | produce
                if successor not in closed:
                    closed.add(successor)
                    stack.append(successor)
    assert extract(zdd, saturated) == frozenset(closed)
