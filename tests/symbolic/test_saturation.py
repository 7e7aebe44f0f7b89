"""Forward reachability by saturation.

``BDD.saturate_post`` closes a set under every transition in one kernel
recursion.  The least fixpoint is canonical, so the edge it returns
must be the one the breadth-first fixpoint reaches, on every family,
under every scheme and whatever the order was when a band started.
The ``bdd-functional`` session runs it in ``SATURATION_BANDS`` steps
with an ordinary safe point between them.

The relational form and the ZDD backend saturate the same way: the
relational BDD over the current variables of the functional form's own
manager (``SymbolicNet.saturation_events()``), the ZDD by
``ZDD.saturate_post`` over ``(consume, produce)`` pairs of places
(``ZddNet.saturation_events()``).  Each must land on the node of a
reference fixpoint in the same manager: a breadth-first loop over the
same events for the relational form, the chained engine (whose manager
also declares next-state copies) for the ZDD.
"""

import pytest

from repro.analysis import SCHEMES, Analysis, AnalysisSpec, analyze
from repro.analysis.backends import SATURATION_BANDS
from repro.bdd import EMPTY, Function, cube, false
from repro.petri.generators import (dme_circuit, dme_spec, jj_register,
                                    muller, philosophers, slotted_ring)
from repro.symbolic import ZddNet

# One instance of each of the six generator families, small enough for
# the breadth-first reference (a one-gate wire keeps dmecir at 43
# iterations).
FAMILIES = {
    "muller4": lambda: muller(4),
    "phil4": lambda: philosophers(4),
    "slot3": lambda: slotted_ring(3),
    "dme3": lambda: dme_spec(3),
    "dmecir2": lambda: dme_circuit(2, wire_depth=1),
    "jjreg-a3": lambda: jj_register("a", bits=3),
}

BFS = AnalysisSpec(strategy="bfs", reorder=False)


def bfs_fixpoint(net, scheme):
    """A finished breadth-first analysis on the fixed order."""
    analysis = Analysis(net, BFS.replace(scheme=scheme))
    analysis.run()
    return analysis


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("name", FAMILIES)
def test_saturation_is_the_bfs_fixpoint(name, scheme):
    analysis = bfs_fixpoint(FAMILIES[name](), scheme)
    symnet = analysis.symbolic_net
    bdd = symnet.bdd
    bdd.clear_caches()
    saturated = bdd.saturate_post(symnet.initial.node,
                                  symnet.saturation_events())
    assert saturated == analysis.reachable.node
    # The memo tables are the call's own: no registered cache grew.
    assert all(not cache for cache in bdd._op_caches)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("name", FAMILIES)
def test_bands_reach_the_fixpoint_across_a_reorder(name, scheme):
    """A band fires only the events whose top lies at or below
    ``min_top``, so its result holds ``initial`` and lies inside the
    reachable set; saturating that from a reversed order reaches the
    same edge."""
    analysis = bfs_fixpoint(FAMILIES[name](), scheme)
    symnet = analysis.symbolic_net
    bdd = symnet.bdd
    reachable = analysis.reachable
    events = symnet.saturation_events()
    lower = Function(bdd, bdd.saturate_post(
        symnet.initial.node, events, min_top=bdd.num_vars // 2))
    assert (symnet.initial - lower).is_zero()
    assert (lower - reachable).is_zero()
    bdd.set_order(list(reversed(bdd.order())))
    assert bdd.saturate_post(lower.node, events) == reachable.node


@pytest.mark.parametrize("name", FAMILIES)
def test_session_steps_one_band_at_a_time(name):
    net = FAMILIES[name]()
    analysis = Analysis(net)
    assert analysis.spec.strategy == "saturation"
    session = analysis.session
    for _ in range(SATURATION_BANDS - 1):
        assert analysis.step()
        # Until the last band the frontier is the whole reached set.
        assert session.frontier == session.reached
        assert not session.at_fixpoint()
    assert analysis.step()
    assert session.frontier.is_zero()
    assert not analysis.step()
    result = analysis.run()
    assert result.iterations == SATURATION_BANDS
    assert result.markings == analyze(net, BFS).markings


def test_jjreg_a_at_paper_size():
    """124 variables deep, in one recursion per band."""
    result = analyze(jj_register("a", bits=40))
    assert result.variables == 124
    assert result.iterations == SATURATION_BANDS


# ----------------------------------------------------------------------
# The relational form and the ZDD backend
# ----------------------------------------------------------------------

def relational_bfs_fixpoint(relnet, events):
    """The breadth-first fixpoint over ``events`` in the relational
    session's own manager: each event fires by quantify-and-force,
    ``exists(force vars, S & E_t) & cube(force)``."""
    bdd = relnet.bdd
    firings = [(Function(bdd, enabling), list(force), cube(bdd, force))
               for force, enabling in events]
    reached = frontier = relnet.initial
    while not frontier.is_zero():
        image = false(bdd)
        for enabling, changed, forced in firings:
            image = image | ((frontier & enabling).exists(changed) & forced)
        frontier = image - reached
        reached = reached | frontier
    return reached


def reversed_pairs(manager):
    """The interleaved (current, next) pairs, last pair on top."""
    order = manager.order()
    pairs = [order[i:i + 2] for i in range(0, len(order), 2)]
    return [name for pair in pairs[::-1] for name in pair]


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("name", FAMILIES)
def test_relational_saturation_is_the_bfs_fixpoint(name, scheme):
    net = FAMILIES[name]()
    analysis = Analysis(net, AnalysisSpec(form="relational", scheme=scheme,
                                          reorder=False))
    relnet = analysis.symbolic_net
    bdd = relnet.bdd
    events = relnet.saturation_events()
    reachable = relational_bfs_fixpoint(relnet, events)
    assert relnet.count_markings(reachable) \
        == analyze(net, BFS.replace(scheme=scheme)).markings
    bdd.clear_caches()
    assert bdd.saturate_post(relnet.initial.node, events) == reachable.node
    assert all(not cache for cache in bdd._op_caches)
    # The lower band, then the rest after the order moved.
    lower = Function(bdd, bdd.saturate_post(
        relnet.initial.node, events, min_top=bdd.num_vars // 2))
    assert (relnet.initial - lower).is_zero()
    assert (lower - reachable).is_zero()
    bdd.set_order(list(reversed(bdd.order())))
    assert bdd.saturate_post(lower.node, events) == reachable.node


@pytest.mark.parametrize("name", FAMILIES)
def test_zdd_saturation_is_the_chained_fixpoint(name):
    """The default's events name places, so they fire on the chained
    net's paired elements too, and land on its fixpoint."""
    net = FAMILIES[name]()
    analysis = Analysis(net, AnalysisSpec(
        backend="zdd", engine="chained", reorder=False))
    analysis.run()
    znet = analysis.symbolic_net
    zdd = znet.zdd
    reachable = analysis.reachable
    events = ZddNet(net).saturation_events()
    zdd.clear_caches()
    assert zdd.saturate_post(znet.initial, events) == reachable
    assert all(not cache for cache in zdd._op_caches)
    lower = zdd.ref(zdd.saturate_post(znet.initial, events,
                                      min_top=zdd.num_vars // 2))
    assert zdd.diff(znet.initial, lower) == EMPTY
    assert zdd.diff(lower, reachable) == EMPTY
    zdd.set_order(reversed_pairs(zdd))
    assert zdd.saturate_post(lower, events) == reachable
    zdd.deref(lower)


RELATIONAL_DEFAULTS = {"relational": AnalysisSpec(form="relational"),
                       "zdd": AnalysisSpec(backend="zdd")}


@pytest.mark.parametrize("kind", sorted(RELATIONAL_DEFAULTS))
@pytest.mark.parametrize("name", FAMILIES)
def test_relational_sessions_step_one_band_at_a_time(name, kind):
    net = FAMILIES[name]()
    spec = RELATIONAL_DEFAULTS[kind]
    assert spec.resolved_engine == "saturation"
    analysis = Analysis(net, spec)
    session = analysis.session
    for _ in range(SATURATION_BANDS - 1):
        assert analysis.step()
        # Until the last band the frontier is the whole reached set.
        assert session.frontier == session.reached
        assert not session.at_fixpoint()
    assert analysis.step()
    assert session.at_fixpoint()
    assert not analysis.step()
    result = analysis.run()
    assert result.iterations == SATURATION_BANDS
    assert result.markings == analyze(net, BFS).markings


@pytest.mark.parametrize("kind", ["functional", "relational", "zdd"])
def test_the_band_that_reaches_the_fixpoint_does_not_sift(kind):
    """A one-node trigger makes a sift due at every safe point (a sift
    raises the trigger, so the test lowers it again): the bands before
    the last one sift, the one that reaches the fixpoint does not, as
    no later operation would profit from the order."""
    spec = RELATIONAL_DEFAULTS.get(kind, AnalysisSpec())
    net = muller(6)
    analysis = Analysis(net, spec.replace(reorder_threshold=1))
    manager = getattr(analysis.symbolic_net,
                      "zdd" if kind == "zdd" else "bdd")
    for band in range(1, SATURATION_BANDS):
        assert analysis.step()
        assert manager.reorder_count == band
        manager.reorder_threshold = 1
    assert analysis.step()
    assert analysis.session.at_fixpoint()
    assert manager.reorder_count == SATURATION_BANDS - 1
    assert analysis.run().markings == analyze(net, BFS).markings


def test_zdd_jjreg_a_at_paper_size():
    """248 elements deep (one per place), in one recursion per band,
    with no RecursionError."""
    result = analyze(jj_register("a", bits=40), AnalysisSpec(backend="zdd"))
    assert result.engine == "zdd/saturation"
    assert result.variables == 248
    assert result.markings == 7975367974709495237422842361682067456


@pytest.mark.slow
def test_jjreg_b_count_agrees_across_backends():
    """JJreg-b at 40 bits, the paper's Table 4 row: BDD saturation and
    ZDD saturation are two engines that share no code below the
    session, so equal counts check each other."""
    net = jj_register("b", bits=40)
    bdd = analyze(net)
    zdd = analyze(net, AnalysisSpec(backend="zdd"))
    assert bdd.status == zdd.status == "complete"
    assert bdd.markings == zdd.markings == 11315545671592929075249807360
