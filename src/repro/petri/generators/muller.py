"""Muller C-element pipeline nets (the ``muller-n`` family of Table 3).

The model is a closed Muller pipeline — a ring of C-elements where signal
``y[i]`` rises when its left neighbour is high and its right neighbour is
low (``y[i] = C(y[i-1], not y[i+1])``), the canonical asynchronous FIFO
control structure.  Every signal is a complementary place pair
``(yi_0, yi_1)`` — the standard STG-to-PN expansion — and neighbour
observation uses read (self-loop) arcs.

A ring of ``n`` signals initialized with ``t`` high signals (evenly
spread) conserves its wavefront count and has exactly ``2 * C(n, 2t)``
reachable markings: an exponentially growing *proper* subset of the
``2^n`` signal combinations, so the reachability set is a non-trivial
BDD — the regime the paper benchmarks.  With ``t = n // 3`` the ring is
deadlock-free and safe.

``muller(k)`` builds a ring with ``2k`` signals, i.e. ``4k`` places,
matching the paper's accounting (``muller-30`` has 120 sparse variables,
60 dense ones: each complementary pair is a two-place single-token SMC).
The absolute marking counts differ from the paper's (their exact 1994
pipeline model is not distributed); see docs/encodings.md, "Generator
substitutions".
"""

from __future__ import annotations

from math import comb

from ..net import PetriNet


def muller_ring(num_signals: int, high_signals: int = 0) -> PetriNet:
    """A closed Muller pipeline (C-element ring) with ``num_signals``
    signals, ``high_signals`` of them initially high (default
    ``num_signals // 3``, evenly spread)."""
    if num_signals < 3:
        raise ValueError("need at least three signals")
    if not high_signals:
        high_signals = max(1, num_signals // 3)
    if not 0 < high_signals < num_signals:
        raise ValueError("high signal count must be in (0, num_signals)")
    net = PetriNet(f"muller-ring-{num_signals}")
    initial = [0] * num_signals
    step = num_signals / high_signals
    for k in range(high_signals):
        initial[int(k * step)] = 1

    for i in range(num_signals):
        net.add_place(f"y{i}_0", tokens=0 if initial[i] else 1)
        net.add_place(f"y{i}_1", tokens=1 if initial[i] else 0)

    def low(i: int) -> str:
        return f"y{i % num_signals}_0"

    def high(i: int) -> str:
        return f"y{i % num_signals}_1"

    for i in range(num_signals):
        # C-element: rise when left high and right low; fall in the dual
        # situation.  Neighbour places appear as read (self-loop) arcs.
        net.add_transition(f"t_y{i}_up",
                           pre=[low(i), high(i - 1), low(i + 1)],
                           post=[high(i), high(i - 1), low(i + 1)])
        net.add_transition(f"t_y{i}_down",
                           pre=[high(i), low(i - 1), high(i + 1)],
                           post=[low(i), low(i - 1), high(i + 1)])
    return net


def muller(stages: int) -> PetriNet:
    """The ``muller-<stages>`` benchmark: ``4 * stages`` places.

    Table 3 counts four boolean variables per pipeline stage under sparse
    encoding; this corresponds to two signals (two complementary place
    pairs) per stage.
    """
    if stages < 2:
        raise ValueError("need at least two stages")
    net = muller_ring(2 * stages)
    net.name = f"muller-{stages}"
    return net


def muller_marking_count(stages: int) -> int:
    """Closed-form reachable-marking count of :func:`muller`.

    A C-element ring with ``n`` signals and ``t`` initially-high signals
    reaches exactly ``2 * C(n, 2t)`` markings (verified against explicit
    enumeration in the tests).
    """
    num_signals = 2 * stages
    high_signals = max(1, num_signals // 3)
    return 2 * comb(num_signals, 2 * high_signals)
