"""Sparse reachability on Zero-Suppressed BDDs (Yoneda et al., Table 4).

The baseline the paper compares against in Table 4 represents each
marking as the *set of marked places* in a ZDD (one element per place —
the sparse encoding, but in a structure that charges nothing for absent
places).  :class:`ZddNet` is that baseline's *classic* image: firing a
transition on a family is a chain of element operations (``subset1``
over every input place, ``change`` over self-loops and outputs), one
pass per place per transition, one :meth:`ZddNet.image_all` per
fixpoint step.

The default ZDD engine, saturation, runs on the same manager: each
transition is one ``(I, O)`` pair of elements
(:meth:`ZddNet.saturation_events`), which
:meth:`~repro.bdd.zdd.ZDD.saturate_post` fires in place, with no next
element and no rename.  The chained sweep's paired current/next
elements live in
:class:`~repro.symbolic.zdd_relational.ZddRelationalNet`.  All three
run behind ``repro.analysis.analyze(net, AnalysisSpec(backend="zdd"))``,
whose session owns the fixpoint loop and its per-iteration safe point.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..bdd.zdd import ZDD
from ..dd.manager import DEFAULT_REORDER_GROWTH
from ..petri.marking import Marking
from ..petri.net import PetriNet
from ..petri.order import place_order


class ZddStateOps:
    """Counting and decoding families over raw ZDD node ids, shared by
    :class:`ZddNet` and
    :class:`~repro.symbolic.zdd_relational.ZddRelationalNet`."""

    zdd: ZDD

    def count_markings(self, states: int) -> int:
        """Number of markings in a family over current elements."""
        return self.zdd.count(states)

    def markings_of(self, states: int) -> List[Marking]:
        """Decode a family over current elements into markings."""
        return [Marking(sorted(members))
                for members in self.zdd.iter_name_sets(states)]


class ZddNet(ZddStateOps):
    """A safe net bound to a ZDD manager (one element per place).

    It serves the *classic* per-transition engine and saturation; the
    chained sweep's paired elements live in
    :class:`~repro.symbolic.zdd_relational.ZddRelationalNet`.

    ``auto_reorder`` enables threshold-triggered sifting at the
    traversal safe points (elements sift individually — the classic
    engine has no rename maps to keep monotone).  The ZDD sessions also
    arm the kernel's growth-based trigger: a safe point sifts when the
    live-node count has doubled since the last reorder, so a diagram
    that grows fast reorders early instead of waiting for one absolute
    threshold.
    """

    def __init__(self, net: PetriNet, zdd: Optional[ZDD] = None,
                 auto_reorder: bool = False,
                 reorder_threshold: int = 50_000) -> None:
        if zdd is None:
            zdd = ZDD(auto_reorder=auto_reorder,
                      reorder_threshold=reorder_threshold)
        if zdd.num_vars:
            raise ValueError("ZddNet needs a fresh ZDD manager")
        zdd.configure_reorder(auto_reorder, reorder_threshold,
                              growth=DEFAULT_REORDER_GROWTH)
        self.net = net
        self.zdd = zdd
        zdd.add_vars(place_order(net))
        self._moves: Dict[str, Tuple[List[str], List[str], List[str]]] = {}
        for transition in net.transitions:
            pre = net.preset(transition)
            post = net.postset(transition)
            self._moves[transition] = (
                sorted(pre),                 # inputs to strip
                sorted(pre & post),          # self-loops to restore
                sorted(post - pre))          # outputs to deposit
        self.initial = zdd.ref(
            zdd.singleton(net.initial_marking.support))

    def image(self, states: int, transition: str) -> int:
        """Successor family under one transition."""
        zdd = self.zdd
        inputs, loops, outputs = self._moves[transition]
        family = states
        for place in inputs:
            family = zdd.subset1(family, place)
        for place in loops:
            family = zdd.change(family, place)
        for place in outputs:
            family = zdd.change(family, place)
        return family

    def image_all(self, states: int) -> int:
        """Successor family under all transitions."""
        result = self.zdd.empty()
        for transition in self.net.transitions:
            result = self.zdd.union(result, self.image(states, transition))
        return result

    def saturation_events(self) -> List[Tuple[List[str], List[str]]]:
        """One ``(preset, postset)`` pair of elements per transition,
        in net order: the list
        :meth:`ZDD.saturate_post <repro.bdd.zdd.ZDD.saturate_post>`
        takes.  It fires ``M -> (M - pre) | post`` in place."""
        net = self.net
        return [(sorted(net.preset(t)), sorted(net.postset(t)))
                for t in net.transitions]

