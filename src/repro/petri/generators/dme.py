"""Distributed mutual-exclusion (DME) ring nets.

The paper's Table 4 uses Yoneda's DME benchmarks: ``DMEspec-n`` is the
specification-level model of an n-cell DME ring, ``DMEcir-n`` the much
larger circuit-level model.  The original ``.net`` files are not
distributed with the paper, so this module rebuilds both levels from the
published structure of Martin's DME ring (see docs/encodings.md,
"Generator substitutions"):

* :func:`dme_spec` — each cell has a user cycle, request/acknowledge wire
  pairs, a cell-controller cycle and a slot in the ring-wide privilege
  token SMC.
* :func:`dme_circuit` — the same protocol with every wire expanded into a
  chain of buffer stages (the standard gate-level STG-to-PN expansion:
  one complementary place pair per gate output).  This is what makes the
  circuit model an order of magnitude larger, as in Table 4.

Both nets are safe and deadlock-free; each complementary pair, each
controller cycle and the ring token set are single-token SMCs, so the
dense encoding roughly halves the variable count.
"""

from __future__ import annotations

from typing import List

from ..net import PetriNet


def _add_pair(net: PetriNet, name: str, start_high: bool = False) -> None:
    net.add_place(f"{name}_0", tokens=0 if start_high else 1)
    net.add_place(f"{name}_1", tokens=1 if start_high else 0)


def _add_wire_chain(net: PetriNet, name: str, depth: int) -> List[str]:
    """A chain of ``depth + 1`` complementary pairs: stage 0 is the driver
    end, stage ``depth`` the receiver end.  Returns the stage names."""
    stages = [f"{name}_s{j}" for j in range(depth + 1)]
    for stage in stages:
        _add_pair(net, stage)
    for j in range(1, depth + 1):
        prev, cur = stages[j - 1], stages[j]
        # Buffer stage follows its predecessor (read arcs on the input).
        net.add_transition(f"{cur}_up",
                           pre=[f"{cur}_0", f"{prev}_1"],
                           post=[f"{cur}_1", f"{prev}_1"])
        net.add_transition(f"{cur}_down",
                           pre=[f"{cur}_1", f"{prev}_0"],
                           post=[f"{cur}_0", f"{prev}_0"])
    return stages


def _build_dme(cells: int, wire_depth: int, name: str) -> PetriNet:
    if cells < 2:
        raise ValueError("need at least two cells")
    if wire_depth < 0:
        raise ValueError("wire depth must be non-negative")
    net = PetriNet(name)

    req_in: List[str] = []
    req_out: List[str] = []
    ack_in: List[str] = []
    ack_out: List[str] = []
    for i in range(cells):
        cell = f"c{i}"
        # User cycle: idle -> requesting -> critical -> idle.
        net.add_place(f"{cell}_ui", tokens=1)
        net.add_place(f"{cell}_ur")
        net.add_place(f"{cell}_uc")
        # Cell controller cycle: idle -> wants token -> granted -> waiting
        # for the user to release.
        net.add_place(f"{cell}_ci", tokens=1)
        net.add_place(f"{cell}_cw")
        net.add_place(f"{cell}_cg")
        net.add_place(f"{cell}_cr")
        # Privilege token slot.
        net.add_place(f"{cell}_tk", tokens=1 if i == 0 else 0)
        # Request and acknowledge wires (chains of buffer pairs).
        r_stages = _add_wire_chain(net, f"{cell}_r", wire_depth)
        a_stages = _add_wire_chain(net, f"{cell}_a", wire_depth)
        req_in.append(r_stages[0])     # driven by the user
        req_out.append(r_stages[-1])   # observed by the cell
        ack_in.append(a_stages[0])     # driven by the cell
        ack_out.append(a_stages[-1])   # observed by the user

    for i in range(cells):
        cell = f"c{i}"
        nxt = f"c{(i + 1) % cells}"
        r_drv, r_rcv = req_in[i], req_out[i]
        a_drv, a_rcv = ack_in[i], ack_out[i]
        # User raises its request wire.
        net.add_transition(f"{cell}_u_req",
                           pre=[f"{cell}_ui", f"{r_drv}_0"],
                           post=[f"{cell}_ur", f"{r_drv}_1"])
        # Cell notices the request (read arc) and competes for the token.
        net.add_transition(f"{cell}_c_see",
                           pre=[f"{cell}_ci", f"{r_rcv}_1"],
                           post=[f"{cell}_cw", f"{r_rcv}_1"])
        # Cell grabs the privilege token.
        net.add_transition(f"{cell}_c_grab",
                           pre=[f"{cell}_cw", f"{cell}_tk"],
                           post=[f"{cell}_cg"])
        # Cell raises the acknowledge wire.
        net.add_transition(f"{cell}_c_grant",
                           pre=[f"{cell}_cg", f"{a_drv}_0"],
                           post=[f"{cell}_cr", f"{a_drv}_1"])
        # User enters its critical section once acknowledged (read arc).
        net.add_transition(f"{cell}_u_enter",
                           pre=[f"{cell}_ur", f"{a_rcv}_1"],
                           post=[f"{cell}_uc", f"{a_rcv}_1"])
        # User leaves, lowering the request wire.
        net.add_transition(f"{cell}_u_exit",
                           pre=[f"{cell}_uc", f"{r_drv}_1"],
                           post=[f"{cell}_ui", f"{r_drv}_0"])
        # Cell sees the release, lowers the acknowledge and frees the token.
        net.add_transition(f"{cell}_c_release",
                           pre=[f"{cell}_cr", f"{a_drv}_1", f"{r_rcv}_0"],
                           post=[f"{cell}_ci", f"{a_drv}_0", f"{r_rcv}_0",
                                 f"{cell}_tk"])
        # An idle cell passes the token to its ring successor (read arc on
        # the idle place).
        net.add_transition(f"{cell}_t_pass",
                           pre=[f"{cell}_ci", f"{cell}_tk"],
                           post=[f"{cell}_ci", f"{nxt}_tk"])
    return net


def dme_spec(cells: int) -> PetriNet:
    """Specification-level DME ring: 12 places per cell, plus nothing
    shared beyond the ring token slots (``DMEspec-n`` substitute)."""
    return _build_dme(cells, wire_depth=0, name=f"dmespec-{cells}")


def dme_circuit(cells: int, wire_depth: int = 21) -> PetriNet:
    """Circuit-level DME ring (``DMEcir-n`` substitute).

    Every request/acknowledge wire runs through ``wire_depth`` buffer
    stages (one complementary pair per gate output), giving
    ``12 + 4 * wire_depth`` places per cell — about 96 with the default
    depth, the regime of the paper's DMEcir nets (98 places per cell).
    """
    return _build_dme(cells, wire_depth=wire_depth,
                      name=f"dmecir-{cells}")
