"""The relational BDD form: interleaved current/next variables.

The fast path in :class:`~repro.symbolic.transition.SymbolicNet` never
renames variables.  The paper also describes the relation-based form,
transition relations ``R_t(P, Q)`` over interleaved current/next
variables.  :class:`RelationalNet` declares that manager: each
variable's next-state copy sits right below it, and sifting moves the
pairs as one block.

Its one engine, saturation, builds no relation and calls no image: a
safe-net transition's sparse relation ``E_t AND cube(forced next
values)`` is the pair ``(force_t, E_t)`` over the current variables
(:meth:`RelationalNet.saturation_events`), which
:meth:`~repro.bdd.manager.BDD.saturate_post` fires in place, one kernel
call per band of levels.  The monolithic and chained relational sweeps
lost every benchmarked net to it and were deleted (``docs/api.md``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..bdd import BDD, Function
from ..encoding.characteristic import (enabling_functions,
                                       initial_function, place_functions,
                                       saturation_events, variable_order)
from ..encoding.scheme import Encoding

__all__ = ["RelationalNet", "next_state_suffix"]


def next_state_suffix(names: Iterable[str]) -> str:
    """The suffix naming each variable's next-state copy: the shortest
    run of primes such that no name plus it is also one of ``names``
    (``"'"`` unless a net has, say, both ``p`` and ``p'``)."""
    names = set(names)
    suffix = "'"
    while any(name + suffix in names for name in names):
        suffix += "'"
    return suffix


class RelationalNet:
    """An encoded safe net on an interleaved current/next BDD manager.

    Parameters
    ----------
    encoding:
        Any :class:`~repro.encoding.scheme.Encoding` of a safe net.
    bdd:
        An empty BDD manager to use; created fresh when omitted.
    auto_reorder:
        Enable threshold-triggered sifting at traversal safe points,
        exactly as :class:`~repro.symbolic.transition.SymbolicNet` does.
        Sifting on a relational manager is *grouped*: each current/next
        variable pair moves as one block (``sift_groups``), so every
        next copy stays right below its current variable.
    reorder_threshold:
        Live-node threshold for the automatic sifting trigger.
    """

    def __init__(self, encoding: Encoding, bdd: Optional[BDD] = None,
                 auto_reorder: bool = False,
                 reorder_threshold: int = 50_000) -> None:
        if bdd is None:
            bdd = BDD(auto_reorder=auto_reorder,
                      reorder_threshold=reorder_threshold)
        if bdd.num_vars:
            raise ValueError("RelationalNet needs a fresh BDD manager")
        bdd.configure_reorder(auto_reorder, reorder_threshold)
        self.encoding = encoding
        self.net = encoding.net
        self.bdd = bdd
        # Interleave current and next variables, in the structural
        # order, so that renaming either way is order-monotone.
        suffix = next_state_suffix(encoding.variables)
        for name in variable_order(encoding):
            bdd.add_vars((name, name + suffix))
        self.current = tuple(encoding.variables)
        self.next = tuple(v + suffix for v in self.current)
        # Reordering keeps each (current, next) pair adjacent.
        bdd.sift_groups = [(bdd.var_index(name), bdd.var_index(copy))
                           for name, copy in zip(self.current, self.next)]

        # Rebuild place/enabling functions over this manager.  The place
        # functions stay referenced: what is live at a safe point steers
        # the sifting trajectory and the peak every benchmark records.
        self.places: Dict[str, Function] = place_functions(encoding, bdd)
        self.enabling: Dict[str, Function] = enabling_functions(
            encoding, bdd, self.places)
        self.initial: Function = initial_function(encoding, bdd)

    def saturation_events(self) -> List[Tuple[Dict[str, bool], int]]:
        """One ``(force_t, E_t)`` event per transition over the current
        variables, the list :meth:`SymbolicNet.saturation_events
        <repro.symbolic.transition.SymbolicNet.saturation_events>`
        builds: the sparse relation ``E_t AND cube(forced next values)``
        without its next variables.  The saturation engine fires these
        in place, so it never renames."""
        return saturation_events(self.encoding, self.enabling)

    def count_markings(self, states: Function) -> int:
        """Number of markings represented (over current variables)."""
        return states.satcount(len(self.current))
