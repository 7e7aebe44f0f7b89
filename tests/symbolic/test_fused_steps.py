"""The fused chained steps equal the composed formulas, edge for edge.

The breadth-first toggle image fires one transition at a time into the
running set with ``or_and_toggle``, and ``SymbolicNet.preimage``
un-fires one with ``or_cofactor_and``.  Here the composed per-step
formulas they replaced are re-run beside them on the six families,
sweeping in net order: every operand triple is compared, and the
fixpoints they reach, forward and backward, are compared with what the
library computed (``ef`` by saturation).  BDDs are canonical, so equal
functions are equal edges.
"""

import pytest

from repro.analysis import Analysis
from repro.bdd import cube, false

FAMILIES = ["figure1", "phil4", "slot3", "muller4", "dme3", "jjreg-a2"]


@pytest.fixture(scope="module", params=FAMILIES)
def analysis(request, make_net):
    analysis = Analysis(make_net(request.param))
    analysis.run()
    return analysis


def composed_fire(current, symnet, transition):
    """``current | toggle(current & E_t)``."""
    enabled = current & symnet.enabling[transition]
    return current | enabled.toggle(symnet.specs[transition].toggle)


def composed_unfire(current, force, care):
    """``current | (current|force & care)``."""
    return current | (current.cofactor(force) & care)


def test_default_fixpoint_equals_composed_chain(analysis):
    symnet = analysis.symbolic_net
    order = symnet.net.transitions
    current = symnet.initial
    steps = 0
    while True:
        previous = current
        for transition in order:
            composed = composed_fire(current, symnet, transition)
            fused = current.or_and_toggle(
                current, symnet.enabling[transition],
                symnet.specs[transition].toggle)
            assert fused == composed, transition
            current = composed
            steps += 1
        if current == previous:
            break
    assert steps >= len(order)
    assert current == analysis.run().reachable


def test_single_step_images_equal_composed(analysis):
    symnet = analysis.symbolic_net
    reachable = analysis.run().reachable
    for states in (symnet.initial, reachable):
        image = preimage = false(symnet.bdd)
        for transition in symnet.net.transitions:
            fired = (states & symnet.enabling[transition]).toggle(
                symnet.specs[transition].toggle)
            assert symnet.image_toggle(states, transition) == fired
            unfired = (states.cofactor(dict(symnet.specs[transition].force))
                       & symnet.enabling[transition])
            assert symnet.preimage(states, transition) == unfired
            spec = symnet.specs[transition]
            shifted = states & symnet.enabling[transition]
            if spec.quantify:
                shifted = (shifted.exists(spec.quantify)
                           & cube(symnet.bdd, dict(spec.force)))
            assert symnet.image(states, transition) == shifted
            image = image | fired
            preimage = preimage | unfired
        assert symnet.image_all(states, use_toggle=True) == image
        assert symnet.preimage_all(states) == preimage


def test_ef_equals_composed_chain(analysis):
    checker = analysis.checker()
    symnet = analysis.symbolic_net
    reachable = checker.reachable
    care = [(dict(symnet.specs[t].force), symnet.enabling[t] & reachable)
            for t in symnet.net.transitions]
    place = symnet.net.places[-1]
    for target in (reachable & symnet.deadlock_condition(), symnet.initial,
                   symnet.places[place]):
        current = target & reachable
        while True:
            previous = current
            for force, enabled in care:
                composed = composed_unfire(current, force, enabled)
                assert current.or_cofactor_and(current, force,
                                               enabled) == composed
                current = composed
            if current == previous:
                break
        assert checker.ef(target) == current
