"""Duplication tripwire: the relational layer must stay unified.

PR 3 grew ``symbolic/zdd_relational.py`` into a near line-for-line copy
of ``symbolic/relational.py``'s clustering/partition/sweep machinery;
PR 5 collapsed both onto :mod:`repro.symbolic.partition`.  This test
fails CI if either encoding shim regrows its own copy of that logic —
the one place it may live is the shared layer.

The same holds for the reachability fixpoint: the
:mod:`repro.analysis` sessions drive it, and no module under
``repro/symbolic`` may grow a second driver (a ``traverse*`` function
or its own frontier loop) next to them.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

# Methods/functions that must exist exactly once, in the shared layer.
SHARED_ONLY_DEFS = (
    "_auto_clusters",
    "_build_partition",
    "image_chained",
    "image_partitioned",
    "refresh_partitions",
    "cluster_by_support",
    "cluster_greedily",
    "validate_cluster_size",
)

# The encoding shims: allowed to *use* the shared layer, never to
# re-implement it.
SHIMS = (
    SRC / "symbolic" / "zdd_relational.py",
    SRC / "symbolic" / "relational.py",
    SRC / "symbolic" / "transition.py",
    SRC / "symbolic" / "zdd_traversal.py",
)


def definitions_in(path):
    text = path.read_text()
    return {match.group(1)
            for match in re.finditer(r"^\s*def\s+(\w+)\s*\(", text,
                                     re.MULTILINE)}


def test_shims_do_not_redefine_shared_clustering_logic():
    for shim in SHIMS:
        defined = definitions_in(shim)
        copies = sorted(set(SHARED_ONLY_DEFS) & defined)
        assert not copies, (
            f"{shim.relative_to(SRC)} regrew its own copy of shared "
            f"relational-layer logic: {copies}; extend "
            f"repro/symbolic/partition.py instead")


def test_shared_layer_defines_the_logic_exactly_once():
    shared = definitions_in(SRC / "symbolic" / "partition.py")
    missing = sorted(set(SHARED_ONLY_DEFS) - shared)
    assert not missing, (
        f"symbolic/partition.py lost shared definitions: {missing}")


def test_managers_share_the_kernel():
    """The reorder/GC machinery must live once, in repro.dd — neither
    manager file may carry its own swap/sift/GC implementation."""
    kernel_only = ("swap_levels", "collect_garbage", "set_order",
                   "checkpoint", "_free_node", "_deref_cascade")
    for manager_file in (SRC / "bdd" / "manager.py",
                         SRC / "bdd" / "zdd.py"):
        defined = definitions_in(manager_file)
        copies = sorted(set(kernel_only) & defined)
        assert not copies, (
            f"{manager_file.relative_to(SRC)} regrew kernel machinery: "
            f"{copies}; extend repro/dd/manager.py instead")


def test_complement_edge_split_is_pinned():
    """The complement-edge representation belongs to the BDD manager
    alone: edges are ``(node << 1) | bit`` there, while the ZDD keeps
    plain node ids (a complemented ZDD edge has no zero-suppressed
    meaning — see docs/encodings.md).  A future PR flipping either side
    silently would corrupt every persisted dump and cross-manager
    bridge, so the split is pinned here."""
    from repro.bdd import BDD, ZDD
    from repro.dd import DDManager
    assert BDD._edge_shift == 1
    assert BDD.complement_edges is True
    assert ZDD._edge_shift == 0
    assert ZDD.complement_edges is False
    # The kernel default stays plain: new managers must opt in.
    assert DDManager._edge_shift == 0
    assert DDManager.complement_edges is False


def test_negation_lives_once_as_a_bit_flip():
    """With complement edges, negation is ``edge ^ 1`` inside
    ``BDD.apply_not`` — no module may regrow a recursive node-walking
    negation (the pre-complement implementation) beside it."""
    import re
    banned = re.compile(r"def\s+(_?recursive_not|_negate_rec|_not_rec)\b")
    for path in sorted(SRC.rglob("*.py")):
        match = banned.search(path.read_text())
        assert match is None, (
            f"{path.relative_to(SRC)} regrew a recursive negation "
            f"({match.group(1)}); negation is an O(1) bit flip in "
            f"BDD.apply_not")


# Frontier loops that are not the reachability fixpoint, with why.
FRONTIER_LOOP_ALLOWLIST = {
    # The backward EF fixpoint over pre-images, run on a reachable set
    # a session already computed.
    ("checker.py", "ModelChecker.ef"),
}


def frontier_loops(path):
    """``(module, qualified function)`` of every ``while`` loop whose
    condition reads a variable named ``frontier``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.While) and any(
                    isinstance(name, ast.Name) and name.id == "frontier"
                    for name in ast.walk(child.test)):
                found.append((path.name, ".".join(scope)))
            visit(child, scope)

    visit(ast.parse(path.read_text()), [])
    return found


def test_symbolic_layer_has_no_fixpoint_driver():
    """``analyze()`` is the one way in: the ``SolverSession`` subclasses
    in ``repro/analysis/backends.py`` run the reachability fixpoint, so
    no symbolic module may define a module-level ``traverse*`` function
    or its own ``while not frontier...`` loop beside them."""
    for path in sorted((SRC / "symbolic").glob("*.py")):
        tree = ast.parse(path.read_text())
        drivers = [node.name for node in tree.body
                   if isinstance(node, ast.FunctionDef)
                   and node.name.startswith("traverse")]
        assert not drivers, (
            f"symbolic/{path.name} regrew a legacy fixpoint driver "
            f"{drivers}; run analyze()/Analysis instead")
        loops = [loop for loop in frontier_loops(path)
                 if loop not in FRONTIER_LOOP_ALLOWLIST]
        assert not loops, (
            f"symbolic/{path.name} runs its own frontier fixpoint loop "
            f"in {[scope for _, scope in loops]}; the analysis sessions "
            f"are the only fixpoint driver")


def test_tripwire_sees_a_traverse_loop(tmp_path):
    """The loop detector itself: the shape of the deleted drivers is
    caught, a loop on anything else is not."""
    module = tmp_path / "legacy.py"
    module.write_text(
        "def legacy_fixpoint(net):\n"
        "    frontier = reached = net.initial\n"
        "    while not frontier.is_zero():\n"
        "        frontier = net.step(frontier)\n"
        "    while pending:\n"
        "        pass\n")
    assert frontier_loops(module) == [("legacy.py", "legacy_fixpoint")]


def test_bdd_reorder_reexport_stays_deleted():
    """Sifting lives in ``repro.dd.reorder``; the old re-export module
    ``bdd/reorder.py`` must not come back."""
    assert not (SRC / "bdd" / "reorder.py").exists(), (
        "repro/bdd/reorder.py reappeared; import from repro.dd.reorder")
