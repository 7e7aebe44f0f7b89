"""Structural net classes (Section 2.2 context).

The paper notes that "some classes of PNs are decomposable into SMCs
[Hack 1972]" — the classic result being that live and safe *free-choice*
nets are covered by strongly connected state-machine components.  This
module provides the standard class tests used to predict whether the
dense encoding will cover a net well:

* state machines (every transition has one input and one output place),
* marked graphs (every place has one input and one output transition),
* free-choice and extended free-choice nets.
"""

from __future__ import annotations

from typing import Dict

from .net import PetriNet


def is_state_machine(net: PetriNet) -> bool:
    """Every transition has exactly one input and one output place."""
    return net.is_state_machine()


def is_marked_graph(net: PetriNet) -> bool:
    """Every place has exactly one input and one output transition.

    Marked graphs are the dual of state machines: no choice, only
    concurrency.  Each place of a safe marked graph still forms trivial
    SMC material only through its circuits.
    """
    return all(len(net.preset(p)) == 1 and len(net.postset(p)) == 1
               for p in net.places)


def is_free_choice(net: PetriNet) -> bool:
    """Free choice: any two transitions sharing an input place have that
    place as their *only* input.

    Equivalent formulation: for every arc ``(p, t)``, either ``p`` is the
    unique input of ``t`` or ``t`` is the unique output of ``p``.
    """
    for place in net.places:
        outputs = net.postset(place)
        if len(outputs) > 1:
            for trans in outputs:
                if net.preset(trans) != frozenset({place}):
                    return False
    return True


def is_extended_free_choice(net: PetriNet) -> bool:
    """Extended free choice: transitions sharing any input place have
    identical presets."""
    for place in net.places:
        presets = [net.preset(t) for t in net.postset(place)]
        if any(pre != presets[0] for pre in presets[1:]):
            return False
    return True


def classify(net: PetriNet) -> Dict[str, bool]:
    """All class predicates at once (for reports and tooling)."""
    return {
        "state_machine": is_state_machine(net),
        "marked_graph": is_marked_graph(net),
        "free_choice": is_free_choice(net),
        "extended_free_choice": is_extended_free_choice(net),
    }
