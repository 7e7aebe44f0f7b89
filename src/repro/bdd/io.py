"""Serialization of decision-diagram functions and families.

Saves one or more functions — e.g. a computed reachability set — to a
compact, order-independent text format and reloads them into any manager
that declares (at least) the same variable names.  Nodes are written in
topological order (children first), so loading is a single linear pass of
hash-consing ``_mk`` calls; the round trip therefore re-canonicalizes
under the target manager's variable order automatically.

BDD format v2 (one record per line; written since complement edges)::

    bddio 2
    var <name> <name> ...
    node <id> <var-name> <low-id> <high-id> <high-complement>
    root <label> <id> <complement>

The single id ``1`` is the terminal; a reference is an id plus a
complement bit.  Else (low) edges carry no bit — the manager's canonical
form guarantees they are regular — while then (high) edges and roots
carry an explicit ``0``/``1``.  A complement bit outside ``{0, 1}``
(non-boolean or out of range) is rejected with a structured error, as is
a stream whose header names a version this reader does not understand.
Legacy v1 streams (``bddio 1``; ids ``0``/``1`` are
``ZERO``/``ONE``, no complement fields) still load: reconstruction goes
through ITE on the literal, which is representation-agnostic.

ZDD format (:func:`dump_zdd_nodes` / :func:`load_zdd_nodes`) — plain
node ids, no complement bits (the ZDD keeps plain edges)::

    zddio 1
    elem <name> <name> ...
    node <id> <elem-name> <low-id> <high-id>
    root <label> <id>

Both loaders reject malformed records with a structured error
(:class:`~repro.bdd.manager.BDDError` / :class:`~repro.bdd.zdd.ZDDError`)
naming the offending line — never a bare ``ValueError``/``KeyError``
mid-parse.
"""

from __future__ import annotations

from typing import Dict, List

from .function import Function
from .manager import BDD, BDDError, ONE, ZERO
from .zdd import BASE, EMPTY, ZDD, ZDDError

_HEADER_V1 = "bddio 1"
_HEADER_V2 = "bddio 2"
_ZDD_HEADER = "zddio 1"


def _int_field(value: str, line: str, error_class) -> int:
    """Parse one integer field, or fail with the record in the message."""
    try:
        return int(value)
    except ValueError:
        raise error_class(
            f"malformed integer field {value!r} in record {line!r}"
        ) from None


def _bit_field(value: str, line: str) -> int:
    """Parse a complement bit, which must be exactly ``0`` or ``1``."""
    try:
        bit = int(value)
    except ValueError:
        raise BDDError(
            f"non-boolean complement bit {value!r} in record {line!r}"
        ) from None
    if bit not in (0, 1):
        raise BDDError(
            f"out-of-range complement bit {bit} in record {line!r} "
            f"(must be 0 or 1)")
    return bit


def dump_functions(functions: Dict[str, Function]) -> str:
    """Serialize labeled functions sharing one manager to the v2 text
    format (edges carry an explicit complement bit)."""
    if not functions:
        raise BDDError("nothing to dump")
    managers = {func.bdd for func in functions.values()}
    if len(managers) != 1:
        raise BDDError("all functions must share one manager")
    bdd = managers.pop()

    lines = [_HEADER_V2,
             "var " + " ".join(bdd.order())]
    # node id -> file id; the single terminal node is file id 1.
    written: Dict[int, int] = {ONE >> 1: 1}
    counter = 2

    def emit(edge: int) -> int:
        """Emit the node behind ``edge`` (children first); returns its
        file id.  The caller handles the edge's complement bit."""
        nonlocal counter
        node = edge >> 1
        known = written.get(node)
        if known is not None:
            return known
        low_edge = bdd._low[node]
        if low_edge & 1:
            raise BDDError(
                f"manager violates canonical form: node {node} stores "
                f"a complemented else edge (corrupt manager state?)")
        low = emit(low_edge)
        high_edge = bdd._high[node]
        high = emit(high_edge)
        written[node] = counter
        lines.append(f"node {counter} {bdd.var_name(bdd._var[node])} "
                     f"{low} {high} {high_edge & 1}")
        counter += 1
        return written[node]

    for label, func in functions.items():
        if any(ch.isspace() for ch in label):
            raise BDDError(f"root label must not contain spaces: {label!r}")
        root = emit(func.node)
        lines.append(f"root {label} {root} {func.node & 1}")
    return "\n".join(lines) + "\n"


def load_functions(text: str, bdd: BDD) -> Dict[str, Function]:
    """Parse the text format into functions on the given manager.

    Every variable named in the file must already be declared on ``bdd``
    (its order may differ — functions are rebuilt canonically).  Both
    the current v2 format and legacy v1 dumps are accepted.
    """
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise BDDError(
            "empty bddio stream: expected a 'bddio <version>' header "
            "(truncated or blank dump?)")
    version = _parse_bdd_header(lines[0])
    if version == 1:
        return _load_functions_v1(lines, bdd)
    return _load_functions_v2(lines, bdd)


def _parse_bdd_header(header: str) -> int:
    fields = header.split()
    if len(fields) != 2 or fields[0] != "bddio":
        raise BDDError(f"not a bddio stream (header {header!r})")
    version = _int_field(fields[1], header, BDDError)
    if version not in (1, 2):
        raise BDDError(
            f"unsupported bddio version {version}: this reader "
            f"understands v1 and v2 (newer-peer dump?)")
    return version


def _load_functions_v1(lines: List[str], bdd: BDD) -> Dict[str, Function]:
    """Legacy format: plain node ids, terminals 0 (ZERO) / 1 (ONE)."""
    node_map: Dict[int, int] = {0: ZERO, 1: ONE}
    roots: Dict[str, Function] = {}
    declared: List[str] = []
    for line in lines[1:]:
        fields = line.split()
        kind = fields[0]
        if kind == "var":
            declared = fields[1:]
            for name in declared:
                bdd.var_index(name)  # raises if missing
        elif kind == "node":
            if len(fields) != 5:
                raise BDDError(f"malformed node line: {line!r}")
            file_id = _int_field(fields[1], line, BDDError)
            var_name = fields[2]
            low = _int_field(fields[3], line, BDDError)
            high = _int_field(fields[4], line, BDDError)
            try:
                children = (node_map[low], node_map[high])
            except KeyError as exc:
                raise BDDError(f"forward reference in {line!r}") from exc
            node_map[file_id] = _mk_ordered(bdd, var_name, *children)
        elif kind == "root":
            if len(fields) != 3:
                raise BDDError(f"malformed root line: {line!r}")
            label, file_id = fields[1], _int_field(fields[2], line,
                                                  BDDError)
            if file_id not in node_map:
                raise BDDError(f"unknown root id in {line!r}")
            roots[label] = Function(bdd, node_map[file_id])
        else:
            raise BDDError(f"unknown record {kind!r}")
    if not roots:
        raise BDDError("stream contains no roots")
    return roots


def _load_functions_v2(lines: List[str], bdd: BDD) -> Dict[str, Function]:
    """Current format: one terminal (file id 1), explicit complement
    bits on then edges and roots; else edges are regular by canonical
    form."""
    node_map: Dict[int, int] = {1: ONE}
    roots: Dict[str, Function] = {}
    declared: List[str] = []
    for line in lines[1:]:
        fields = line.split()
        kind = fields[0]
        if kind == "var":
            declared = fields[1:]
            for name in declared:
                bdd.var_index(name)  # raises if missing
        elif kind == "node":
            if len(fields) != 6:
                raise BDDError(f"malformed node line: {line!r}")
            file_id = _int_field(fields[1], line, BDDError)
            var_name = fields[2]
            low = _int_field(fields[3], line, BDDError)
            high = _int_field(fields[4], line, BDDError)
            high_c = _bit_field(fields[5], line)
            try:
                low_edge = node_map[low]
                high_edge = node_map[high]
            except KeyError as exc:
                raise BDDError(f"forward reference in {line!r}") from exc
            if high_c:
                high_edge = bdd.apply_not(high_edge)
            node_map[file_id] = _mk_ordered(bdd, var_name, low_edge,
                                            high_edge)
        elif kind == "root":
            if len(fields) != 4:
                raise BDDError(f"malformed root line: {line!r}")
            label = fields[1]
            file_id = _int_field(fields[2], line, BDDError)
            root_c = _bit_field(fields[3], line)
            if file_id not in node_map:
                raise BDDError(f"unknown root id in {line!r}")
            edge = node_map[file_id]
            if root_c:
                edge = bdd.apply_not(edge)
            roots[label] = Function(bdd, edge)
        else:
            raise BDDError(f"unknown record {kind!r}")
    if not roots:
        raise BDDError("stream contains no roots")
    return roots


def _mk_ordered(bdd: BDD, var_name: str, low: int, high: int) -> int:
    """Rebuild a node under the target order via ITE on the literal.

    When the target order matches the source order this degenerates to a
    plain ``_mk``; otherwise ITE re-normalizes the structure.
    """
    var = bdd.var_index(var_name)
    literal = bdd.var_node(var)
    return bdd.ite(literal, high, low)


# ----------------------------------------------------------------------
# ZDD families
# ----------------------------------------------------------------------

def dump_zdd_nodes(zdd: ZDD, roots: Dict[str, int]) -> str:
    """Serialize labeled ZDD families (raw node ids) to the text format.

    The mirror of :func:`dump_functions` for set families: nodes are
    emitted children-first under the manager's current element order, so
    :func:`load_zdd_nodes` is a single linear rebuild pass.
    """
    if not roots:
        raise ZDDError("nothing to dump")
    lines = [_ZDD_HEADER,
             "elem " + " ".join(zdd.order())]
    written: Dict[int, int] = {EMPTY: 0, BASE: 1}
    counter = 2

    def emit(node: int) -> int:
        nonlocal counter
        known = written.get(node)
        if known is not None:
            return known
        low = emit(zdd._low[node])
        high = emit(zdd._high[node])
        written[node] = counter
        lines.append(f"node {counter} {zdd.var_name(zdd._var[node])} "
                     f"{low} {high}")
        counter += 1
        return written[node]

    for label, node in roots.items():
        if any(ch.isspace() for ch in label):
            raise ZDDError(f"root label must not contain spaces: {label!r}")
        lines.append(f"root {label} {emit(node)}")
    return "\n".join(lines) + "\n"


def load_zdd_nodes(text: str, zdd: ZDD) -> Dict[str, int]:
    """Parse the ZDD text format into raw node ids on the manager.

    Every element named in the file must already be declared on ``zdd``.
    Its order may differ from the dumping manager's: a node whose
    element sits below one of its children under the target order cannot
    be hash-consed directly, so it is rebuilt semantically as
    ``low ∪ ({{elem}} ⊔ high)`` — the family a ZDD node denotes —
    through the level-aware ``union``/``product`` operations (the same
    fallback the order-monotone ``rename`` uses).

    The returned node ids are unreferenced; callers that keep them past
    the next safe point must :meth:`~repro.dd.manager.DDManager.ref`
    them.
    """
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise ZDDError(
            "empty zddio stream: expected a 'zddio 1' header "
            "(truncated or blank dump?)")
    if lines[0] != _ZDD_HEADER:
        raise ZDDError("not a zddio v1 stream")
    node_map: Dict[int, int] = {0: EMPTY, 1: BASE}
    roots: Dict[str, int] = {}
    for line in lines[1:]:
        fields = line.split()
        kind = fields[0]
        if kind == "elem":
            for name in fields[1:]:
                zdd.var_index(name)  # raises if missing
        elif kind == "node":
            if len(fields) != 5:
                raise ZDDError(f"malformed node line: {line!r}")
            file_id = _int_field(fields[1], line, ZDDError)
            elem_name = fields[2]
            low = _int_field(fields[3], line, ZDDError)
            high = _int_field(fields[4], line, ZDDError)
            try:
                children = (node_map[low], node_map[high])
            except KeyError as exc:
                raise ZDDError(f"forward reference in {line!r}") from exc
            node_map[file_id] = _mk_zdd_ordered(zdd, elem_name, *children)
        elif kind == "root":
            if len(fields) != 3:
                raise ZDDError(f"malformed root line: {line!r}")
            label, file_id = fields[1], _int_field(fields[2], line,
                                                  ZDDError)
            if file_id not in node_map:
                raise ZDDError(f"unknown root id in {line!r}")
            roots[label] = node_map[file_id]
        else:
            raise ZDDError(f"unknown record {kind!r}")
    if not roots:
        raise ZDDError("stream contains no roots")
    return roots


def _mk_zdd_ordered(zdd: ZDD, elem_name: str, low: int, high: int) -> int:
    """Rebuild one ZDD node under the target element order.

    Fast path: when the element still sits above both children, plain
    hash-consing ``_mk`` reproduces the node.  Order-crossing case: the
    denoted family ``family(low) ∪ {s ∪ {elem} : s ∈ family(high)}`` is
    rebuilt through ``union``/``product``, which compare levels.
    """
    var = zdd.var_index(elem_name)
    vlevel = zdd._var2level[var]
    if vlevel < zdd._level(low) and vlevel < zdd._level(high):
        return zdd._mk(var, low, high)
    return zdd.union(low, zdd.product(zdd._mk(var, EMPTY, BASE), high))
