"""The relational form's textbook manager, built by the tests themselves.

Both BDD forms run on :class:`~repro.symbolic.SymbolicNet`, over the
current-state variables only: a safe net's transition forces constants,
so saturation fires it in place.  The tests that check the fused
relational product ``and_exists`` and the breadth-first image through
the transition relations ``R_t(P, Q)`` of Eq. 3 still need each
variable's next-state copy.  :class:`InterleavedNet` declares them, each
copy right below its variable, and sifts each pair as one block.
"""

from repro.bdd import BDD, Function, false, variable
from repro.bdd.io import dump_functions, load_functions
from repro.encoding.characteristic import (enabling_functions,
                                           initial_function,
                                           place_functions, variable_order)
from repro.symbolic.zdd_relational import next_state_suffix


class InterleavedNet:
    """An encoded safe net on an interleaved current/next BDD manager."""

    def __init__(self, encoding, auto_reorder=False,
                 reorder_threshold=50_000):
        bdd = self.bdd = BDD(auto_reorder=auto_reorder,
                             reorder_threshold=reorder_threshold)
        self.encoding = encoding
        self.net = encoding.net
        suffix = next_state_suffix(encoding.variables)
        for name in variable_order(encoding):
            bdd.add_vars((name, name + suffix))
        self.current = tuple(encoding.variables)
        self.next = tuple(name + suffix for name in self.current)
        bdd.sift_groups = [(bdd.var_index(name), bdd.var_index(copy))
                           for name, copy in zip(self.current, self.next)]
        self.places = place_functions(encoding, bdd)
        self.enabling = enabling_functions(encoding, bdd, self.places)
        self.initial = initial_function(encoding, bdd)

    def saturation_events(self):
        """The ``(force_t, E_t)`` events, over the current variables."""
        return [(dict(self.encoding.transition_spec(t).force),
                 self.enabling[t].node) for t in self.net.transitions]

    def saturate(self):
        """The saturation fixpoint from the initial marking."""
        return Function(self.bdd, self.bdd.saturate_post(
            self.initial.node, self.saturation_events()))

    def count_markings(self, states):
        return states.satcount(len(self.current))


def transfer(function, relnet):
    """``function`` rebuilt on ``relnet``'s manager, variable by name:
    how a session's reached set meets the relations built here."""
    return load_functions(dump_functions({"f": function}), relnet.bdd)["f"]


def transition_relation(relnet, transition):
    """``R_t(P, Q) = E_t(P) and AND_i (q_i <-> delta_i(P, t))`` over the
    interleaved manager: the identity-complete relation of Eq. 3."""
    bdd = relnet.bdd
    forced = dict(relnet.encoding.transition_spec(transition).force)
    relation = relnet.enabling[transition]
    for name, copy in zip(relnet.current, relnet.next):
        next_var = variable(bdd, copy)
        if name in forced:
            target = next_var if forced[name] else ~next_var
        else:
            target = next_var.iff(variable(bdd, name))
        relation = relation & target
    return relation


def monolithic_relation(relnet):
    """``R = OR_t R_t``, the single relation of the textbook image."""
    result = false(relnet.bdd)
    for transition in relnet.net.transitions:
        result = result | transition_relation(relnet, transition)
    return result


def bfs_through(relnet, relations):
    """The breadth-first fixpoint of the image through ``relations``:
    the union of ``exists P. S(P) and R(P, Q)`` renamed back to ``P``."""
    back = dict(zip(relnet.next, relnet.current))
    reached = frontier = relnet.initial
    while not frontier.is_zero():
        image = false(relnet.bdd)
        for relation in relations:
            image = image | frontier.and_exists(
                relation, relnet.current).rename(back)
        frontier = image - reached
        reached = reached | frontier
    return reached
