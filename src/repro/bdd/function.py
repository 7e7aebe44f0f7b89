"""Reference-counted handle on a BDD node.

A :class:`Function` pairs a :class:`~repro.bdd.manager.BDD` manager with a
node id and keeps an external reference for as long as the handle lives, so
garbage collection and dynamic reordering never invalidate it.  All the
convenience operators build new handles.

Handles compare equal iff they denote the same function (same manager, same
canonical node), so ``f & g == g & f`` holds structurally.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional

from .manager import BDD, ONE, ZERO, BDDError


def _unwrap(value) -> int:
    if isinstance(value, Function):
        return value.node
    raise TypeError(f"expected a Function, got {type(value).__name__}")


class Function:
    """A boolean function handle bound to a BDD manager."""

    __slots__ = ("bdd", "node", "__weakref__")

    def __init__(self, bdd: BDD, node: int) -> None:
        self.bdd = bdd
        self.node = node
        bdd.ref(node)

    def __del__(self) -> None:
        bdd = getattr(self, "bdd", None)
        if bdd is None:
            return
        try:
            bdd.deref(self.node)
        except Exception:
            # Interpreter shutdown may have torn down the manager already.
            pass

    # -- identity ------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Function) and other.bdd is self.bdd
                and other.node == self.node)

    def __ne__(self, other) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return hash((id(self.bdd), self.node))

    def __bool__(self) -> bool:
        raise BDDError("Function truth value is ambiguous; use is_zero(), "
                       "is_one() or compare explicitly")

    def is_zero(self) -> bool:
        """True iff this is the constant false function."""
        return self.node == ZERO

    def is_one(self) -> bool:
        """True iff this is the constant true function."""
        return self.node == ONE

    # -- boolean connectives -------------------------------------------

    def _wrap(self, node: int) -> "Function":
        return Function(self.bdd, node)

    def __and__(self, other: "Function") -> "Function":
        return self._wrap(self.bdd.apply_and(self.node, _unwrap(other)))

    def __or__(self, other: "Function") -> "Function":
        return self._wrap(self.bdd.apply_or(self.node, _unwrap(other)))

    def __xor__(self, other: "Function") -> "Function":
        return self._wrap(self.bdd.apply_xor(self.node, _unwrap(other)))

    def __invert__(self) -> "Function":
        return self._wrap(self.bdd.apply_not(self.node))

    def __sub__(self, other: "Function") -> "Function":
        """Set difference: ``self AND NOT other``."""
        return self._wrap(self.bdd.apply_diff(self.node, _unwrap(other)))

    def implies(self, other: "Function") -> "Function":
        """Logical implication ``self -> other``."""
        return (~self) | other

    def iff(self, other: "Function") -> "Function":
        """Logical equivalence ``self <-> other``."""
        return ~(self ^ other)

    def ite(self, then: "Function", orelse: "Function") -> "Function":
        """If-then-else with ``self`` as the condition."""
        return self._wrap(self.bdd.ite(self.node, _unwrap(then),
                                       _unwrap(orelse)))

    # -- quantification ------------------------------------------------

    def exists(self, variables: Iterable) -> "Function":
        """Existentially quantify ``variables`` (names, indices, literals)."""
        return self._wrap(self.bdd.exists(self.node, _var_list(variables)))

    def forall(self, variables: Iterable) -> "Function":
        """Universally quantify ``variables``."""
        return self._wrap(self.bdd.forall(self.node, _var_list(variables)))

    def and_exists(self, other: "Function", variables: Iterable) -> "Function":
        """Relational product: ``exists(variables, self & other)``."""
        return self._wrap(self.bdd.and_exists(
            self.node, _unwrap(other), _var_list(variables)))

    # -- fused chained steps ---------------------------------------------

    def or_and_toggle(self, states: "Function", care: "Function",
                      variables: Iterable) -> "Function":
        """``self | (states & care).toggle(variables)`` in one pass:
        toggle firing of one transition into an accumulator."""
        return self._wrap(self.bdd.or_and_toggle(
            self.node, _unwrap(states), _unwrap(care),
            _var_list(variables)))

    def or_cofactor_and(self, states: "Function", assignment: Dict,
                        care: "Function") -> "Function":
        """``self | (states.cofactor(assignment) & care)`` in one pass:
        the pre-image of one transition into an accumulator."""
        return self._wrap(self.bdd.or_cofactor_and(
            self.node, _unwrap(states), assignment, _unwrap(care)))

    # -- structural operations -------------------------------------------

    def cofactor(self, assignment: Dict) -> "Function":
        """Restrict by a partial assignment ``{var: bool}``."""
        return self._wrap(self.bdd.cofactor(self.node, assignment))

    def rename(self, mapping: Dict) -> "Function":
        """Rename variables (mapping must be order-monotone on support)."""
        return self._wrap(self.bdd.rename(self.node, mapping))

    def toggle(self, variables: Iterable) -> "Function":
        """Substitute ``v -> NOT v`` for each listed variable."""
        return self._wrap(self.bdd.toggle(self.node, _var_list(variables)))

    def compose(self, var, inner: "Function") -> "Function":
        """Substitute ``inner`` for variable ``var``."""
        return self._wrap(self.bdd.compose(self.node, var, _unwrap(inner)))

    # -- inspection ------------------------------------------------------

    def __call__(self, assignment: Dict) -> bool:
        """Evaluate under a total assignment ``{var: bool}``."""
        return self.bdd.eval_node(self.node, assignment)

    def support(self) -> frozenset:
        """Indices of variables this function depends on."""
        return self.bdd.support(self.node)

    def support_names(self) -> frozenset:
        """Names of variables this function depends on."""
        return frozenset(self.bdd.var_name(v) for v in self.support())

    def size(self) -> int:
        """Node count of the DAG rooted here (including terminals)."""
        return self.bdd.size(self.node)

    def satcount(self, nvars: Optional[int] = None) -> int:
        """Number of satisfying assignments over ``nvars`` variables."""
        return self.bdd.satcount(self.node, nvars)

    def sat_one(self) -> Optional[Dict[str, bool]]:
        """One satisfying partial assignment keyed by variable name."""
        cube = self.bdd.sat_one(self.node)
        if cube is None:
            return None
        return {self.bdd.var_name(v): val for v, val in cube.items()}

    def iter_cubes(self) -> Iterator[Dict[str, bool]]:
        """Iterate cubes as name-keyed partial assignments."""
        for cube in self.bdd.iter_cubes(self.node):
            yield {self.bdd.var_name(v): val for v, val in cube.items()}

    def __repr__(self) -> str:
        if self.node == ZERO:
            return "<Function FALSE>"
        if self.node == ONE:
            return "<Function TRUE>"
        return (f"<Function node={self.node} vars="
                f"{sorted(self.support_names())} size={self.size()}>")


def _var_list(variables: Iterable):
    result = []
    for var in variables:
        if isinstance(var, Function):
            support = var.support()
            if len(support) != 1:
                raise BDDError("only literals may be used as variables")
            result.append(next(iter(support)))
        else:
            result.append(var)
    return result


def true(bdd: BDD) -> Function:
    """The constant-true handle."""
    return Function(bdd, ONE)


def false(bdd: BDD) -> Function:
    """The constant-false handle."""
    return Function(bdd, ZERO)


def variable(bdd: BDD, var) -> Function:
    """Positive-literal handle of a variable (by name or index)."""
    return Function(bdd, bdd.var_node(var))


def cube(bdd: BDD, assignment: Dict) -> Function:
    """Conjunction of literals from ``{var: bool}``."""
    return Function(bdd, bdd.cube(assignment))
