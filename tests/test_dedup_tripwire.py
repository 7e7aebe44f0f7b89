"""Duplication tripwire: the relational machinery lives once.

The chained sweep and its per-transition partition live in
:class:`~repro.symbolic.zdd_relational.ZddRelationalNet`, their one
client since saturation became the relational BDD form's only engine,
and the support sort lives next to the functional chaining sweep in
``symbolic/transition.py``.  This test fails CI if another symbolic
module regrows its own copy of that logic.

The same holds for the reachability fixpoint: the
:mod:`repro.analysis` sessions drive it, and no module under
``repro/symbolic`` may grow a second driver (a ``traverse*`` function
or its own frontier loop) next to them.

Variable declaration has one door too: every manager declares its
variables in the structural order of :mod:`repro.petri.order`, never by
walking ``encoding.variables`` or ``net.places``.

And retired code stays retired: the per-block union engine
(``partitioned``), the BDD relational ``monolithic`` and ``chained``
sweeps with the abstract partition layer (``PartitionedNet``,
``RelationPartition``) that only they shared with the ZDD, the
Coudert-Madre frontier restriction and its
``simplify_frontier`` option won no benchmark row; the image-engine
strategy objects only forwarded to the nets' images, the backend
factories (and their ``BACKENDS`` registry) only called one session
constructor each, and ``chain_order`` had one value in use.  The
partition is Eq. 3's, one sparse relation per transition: the
``cluster_size`` granularities, greedy auto-clustering and
reorder-time reclustering lost the served traffic to it.  The partition
reads the variable order at sweep time, so the kernel's reorder hooks
(``add_reorder_hook``, ``reorder_hooks``,
``deferred_reorder_notifications``), the partition refresh
(``refresh_partitions``, ``_refresh_block``) and the separate ZDD block
class (``ZddRelationPartition``) have nothing left to do.

The chained per-transition steps have one form as well: the fused
kernel operations ``or_and_toggle`` and ``or_cofactor_and``, never a
composed ``|`` over ``.toggle(...)`` or ``.cofactor(...) & ...``.  The
checker's backward ``EF`` is one constrained-saturation call, so its
care-restricted chained passes (``_care_enabling``) stay deleted.

Code stays only if an entry point reaches it: every module under
``src/repro`` is imported, directly or through a chain, by the package,
the CLI, the service or a paper-table experiment.  The STG front end,
siphons and traps, the Graphviz dump and the scaling experiment, which
only tests and one example used, were deleted so.  The same holds for
every public function and method: code in src/, benchmarks/ or
perfbench/ names it, or it is one of the few reference oracles, debug
self-checks and test fixtures kept, each with its reason, in
``KEPT_FOR_TESTS``.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

# Methods/functions that must exist exactly once, each in its home.
SHARED_ONLY_DEFS = {
    "image_chained": SRC / "symbolic" / "zdd_relational.py",
    "partitions": SRC / "symbolic" / "zdd_relational.py",
    "sort_by_support": SRC / "symbolic" / "transition.py",
}

# The other symbolic modules: allowed to *use* that logic, never to
# re-implement it.
SHIMS = (
    SRC / "symbolic" / "zdd_relational.py",
    SRC / "symbolic" / "relational.py",
    SRC / "symbolic" / "transition.py",
    SRC / "symbolic" / "zdd_traversal.py",
    SRC / "symbolic" / "kbounded.py",
    SRC / "symbolic" / "checker.py",
)


def definitions_in(path):
    text = path.read_text()
    return {match.group(1)
            for match in re.finditer(r"^\s*def\s+(\w+)\s*\(", text,
                                     re.MULTILINE)}


def test_shims_do_not_redefine_shared_clustering_logic():
    for shim in SHIMS:
        defined = definitions_in(shim)
        copies = sorted(name for name, home in SHARED_ONLY_DEFS.items()
                        if name in defined and shim != home)
        assert not copies, (
            f"{shim.relative_to(SRC)} regrew its own copy of "
            f"relational logic: {copies}; extend its home instead")


def test_shared_logic_is_defined_exactly_once():
    for name, home in SHARED_ONLY_DEFS.items():
        owners = [path.relative_to(SRC).as_posix()
                  for path in sorted(SRC.rglob("*.py"))
                  if name in definitions_in(path)]
        assert owners == [home.relative_to(SRC).as_posix()], (
            f"{name} is defined in {owners}; it lives once, in "
            f"{home.relative_to(SRC)}")


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
        loops = frontier_loops(path)
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


# The naming orders a declaration loop must not walk: the managers place
# their variables with variable_order/place_order (repro.petri.order).
NAMING_ORDERS = (("encoding", "variables"), ("net", "places"))
DECLARING_CALLS = ("add_var", "add_vars")


def _naming_order(node):
    """Whether ``node`` reads ``[...]encoding.variables`` or
    ``[...]net.places``."""
    if not isinstance(node, ast.Attribute):
        return False
    owner = node.value
    owner_name = (owner.id if isinstance(owner, ast.Name)
                  else owner.attr if isinstance(owner, ast.Attribute)
                  else None)
    return (owner_name, node.attr) in NAMING_ORDERS


def naming_order_declarations(path):
    """``(module, line)`` of every ``add_var``/``add_vars`` call that
    declares variables in a naming order: inside a loop (or
    comprehension) over one, or handed one directly."""
    def declaring(node):
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in DECLARING_CALLS)

    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.For):
            walked = [node.iter]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            walked = [generator.iter for generator in node.generators]
        elif declaring(node):
            walked = node.args
        else:
            continue
        if any(_naming_order(iterable) for iterable in walked):
            found.update((path.name, call.lineno)
                         for call in ast.walk(node) if declaring(call))
    return sorted(found)


def test_variables_are_declared_through_the_structural_order():
    """One door for variable declaration: every manager declares its
    variables in ``variable_order``/``place_order``, never by walking
    ``encoding.variables`` or ``net.places``."""
    modules = sorted((SRC / "symbolic").glob("*.py")) + [
        SRC / "encoding" / "characteristic.py"]
    for path in modules:
        found = naming_order_declarations(path)
        assert not found, (
            f"{path.relative_to(SRC)} declares variables in a naming "
            f"order at lines {[line for _, line in found]}; declare "
            f"them in variable_order(encoding) / place_order(net)")


def test_tripwire_sees_a_naming_order_declaration(tmp_path):
    """The declaration detector itself: loops, comprehensions and
    direct calls over a naming order are caught, the structural order
    is not."""
    module = tmp_path / "legacy.py"
    module.write_text(
        "def declare(encoding, bdd, net, self):\n"
        "    for name in encoding.variables:\n"
        "        bdd.add_var(name)\n"
        "    [bdd.add_var(p) for p in self.net.places]\n"
        "    bdd.add_vars(net.places)\n"
        "    for name in variable_order(encoding):\n"
        "        bdd.add_var(name)\n"
        "    for place in net.places:\n"
        "        print(place)\n")
    assert naming_order_declarations(module) == [
        ("legacy.py", 3), ("legacy.py", 4), ("legacy.py", 5)]


# Identifiers of the retired per-block union engine, the monolithic
# relational image and the partition layer's abstract base and BDD
# block (the BDD sweeps were their only other client), the Coudert-Madre
# frontier restriction, the image-engine strategy layer (the
# ``ImageEngine`` substring covers every engine class), the backend
# factory layer above the sessions, the partition clustering, the
# shared-result-queue heuristics of the process supervisor (dead-worker
# grace polls and queue-poison strikes, which per-worker reply pipes
# made unnecessary), the reorder observer with the partition refresh
# it drove (the sweep reads the order instead), and the public names of
# code no entry point reached (the STG front end, siphons and traps, the
# Graphviz dump, the scaling experiment, ``size_many`` and
# ``conflict_clusters``); none may reappear anywhere under src/repro.
RETIRED_IDENTIFIERS = ("restrict_cm", "narrow_frontier",
                       "SIMPLIFY_MIN_FRONTIER_NODES", "ImageEngine",
                       "make_image_engine", "ClassicZddEngine",
                       "image_engines", "SolverBackend", "BACKENDS",
                       "backend_for", "PortfolioBackend",
                       "BddFunctionalBackend", "BddRelationalBackend",
                       "ZddBackend", "KBoundedBackend", "_reject_factory",
                       "cluster_greedily", "validate_cluster_size",
                       "AUTO_MIN_OVERLAP", "AUTO_NODE_BUDGET",
                       "AUTO_MAX_CLUSTER", "_auto_clusters", "_recluster",
                       "recluster_count", "_identity_clause",
                       "DEFAULT_CLUSTER_SIZE", "resolved_cluster_size",
                       "ClusterSize", "DEAD_WORKER_GRACE_POLLS",
                       "MAX_QUEUE_POISON", "dead_polls", "_QUEUE_UNUSABLE",
                       "add_reorder_hook", "reorder_hooks",
                       "deferred_reorder_notifications",
                       "refresh_partitions", "_refresh_block",
                       "ZddRelationPartition", "_care_enabling",
                       "SignalEdge", "c_element", "pipeline_stage",
                       "minimal_siphons", "commoner_condition",
                       "largest_siphon_within", "largest_trap_within",
                       "empty_siphon_in_deadlock", "bdd_to_dot",
                       "zdd_to_dot", "ScalingRow", "size_many",
                       "conflict_clusters", "transition_specs",
                       "image_monolithic", "monolithic_relation",
                       "RelationPartition", "PartitionedNet")
# Retired spec fields: named only inside RETIRED_FIELD_DEFAULTS, which
# keeps old fingerprints stable.
RETIRED_FIELDS = ("simplify_frontier", "chain_order", "cluster_size")


def _constant_lines(tree, name):
    """Line numbers spanned by the module-level assignment to ``name``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == name
                for target in node.targets):
            return set(range(node.lineno, node.end_lineno + 1))
    return set()


def retired_name_uses(root):
    """``(module, line, name)`` of every line under ``root`` that names
    a retired identifier, or a retired field outside the
    ``RETIRED_FIELD_DEFAULTS`` constant of ``analysis/spec.py``."""
    spec_path = root / "analysis" / "spec.py"
    allowed = (_constant_lines(ast.parse(spec_path.read_text()),
                               "RETIRED_FIELD_DEFAULTS")
               if spec_path.exists() else set())
    found = []
    for path in sorted(root.rglob("*.py")):
        module = path.relative_to(root).as_posix()
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            found.extend((module, lineno, name)
                         for name in RETIRED_IDENTIFIERS if name in line)
            if not (path == spec_path and lineno in allowed):
                found.extend((module, lineno, name)
                             for name in RETIRED_FIELDS if name in line)
    return found


def test_retired_engine_and_restriction_stay_deleted():
    """The ``partitioned`` engine, ``restrict_cm`` and the frontier
    restriction won no benchmark row on the structural order and were
    deleted, and so were the image-engine and backend-factory layers,
    the partition clustering, the reorder hooks and the partition
    refresh; ``simplify_frontier``, ``chain_order``
    and ``cluster_size`` may only be named as retired fields at their
    old defaults (which keeps old fingerprints stable)."""
    from repro.analysis import PORTFOLIO_MEMBERS, RELATIONAL_ENGINES
    assert RELATIONAL_ENGINES == ("saturation",)
    assert not [m for m in PORTFOLIO_MEMBERS if "partitioned" in m]
    assert "bdd-chained" not in PORTFOLIO_MEMBERS
    assert _constant_lines(
        ast.parse((SRC / "analysis" / "spec.py").read_text()),
        "RETIRED_FIELD_DEFAULTS"), \
        "spec.py lost its RETIRED_FIELD_DEFAULTS constant"
    found = retired_name_uses(SRC)
    assert not found, (
        f"{found} brings back retired code; run the saturation engine "
        f"instead")


def test_tripwire_sees_retired_names(tmp_path):
    """The retired-name detector itself: a retired identifier anywhere,
    or a retired field outside the retired-defaults constant, is
    caught; the constant itself is not, and neither are the surviving
    names that merely resemble a retired one."""
    (tmp_path / "analysis").mkdir()
    (tmp_path / "analysis" / "spec.py").write_text(
        "RETIRED_FIELD_DEFAULTS = {\n"
        "    \"simplify_frontier\": False,\n"
        "    \"cluster_size\": None,\n"
        "    \"chain_order\": \"support\"}\n"
        "simplify_frontier = True\n"
        "chain_order = \"net\"\n"
        "cluster_size = \"auto\"\n")
    (tmp_path / "kernel.py").write_text(
        "def restrict_cm(u, care):\n"
        "    return narrow_frontier(u, care)\n")
    (tmp_path / "backends.py").write_text(
        "engine = make_image_engine(relnet, \"chained\")\n"
        "class ChainedImageEngine:\n"
        "    offered = relnet.image_engines\n"
        "classic = ClassicZddEngine(znet)\n")
    (tmp_path / "facade.py").write_text(
        "session = backend_for(spec).build(net, spec)\n")
    (tmp_path / "partition.py").write_text(
        "groups = cluster_greedily(items, support, level, size)\n"
        "self.recluster_count += 1\n"
        "blocks = self._recluster(blocks)\n"
        "order = sort_by_support(items, support, level)\n"
        "clusters = conflict_clusters(net)\n"
        "manager.add_reorder_hook(self.refresh_partitions)\n"
        "blocks = [self._refresh_block(b) for b in blocks]\n"
        "block = ZddRelationPartition(transition, relation)\n"
        "if self._sorted_at != manager.order_version:\n"
        "class RelationalNet(PartitionedNet):\n"
        "    swept = self.image_monolithic(frontier)\n"
        "relation = relnet.monolithic_relation()\n"
        "block = RelationPartition(transition, relation)\n")
    (tmp_path / "checker.py").write_text(
        "steps = self._care_enabling()\n"
        "return bdd.saturate_pre(reachable, target, events)\n")
    (tmp_path / "structure.py").write_text(
        "siphons = minimal_siphons(net)\n"
        "net = c_element().to_petri_net()\n"
        "text = bdd_to_dot(bdd, roots) + dumps(net)\n"
        "shared = bdd.size_many(roots) <= bdd.size(root)\n")
    assert retired_name_uses(tmp_path) == [
        ("analysis/spec.py", 5, "simplify_frontier"),
        ("analysis/spec.py", 6, "chain_order"),
        ("analysis/spec.py", 7, "cluster_size"),
        ("backends.py", 1, "make_image_engine"),
        ("backends.py", 2, "ImageEngine"),
        ("backends.py", 3, "image_engines"),
        ("backends.py", 4, "ClassicZddEngine"),
        ("checker.py", 1, "_care_enabling"),
        ("facade.py", 1, "backend_for"),
        ("kernel.py", 1, "restrict_cm"),
        ("kernel.py", 2, "narrow_frontier"),
        ("partition.py", 1, "cluster_greedily"),
        ("partition.py", 2, "recluster_count"),
        ("partition.py", 3, "_recluster"),
        ("partition.py", 5, "conflict_clusters"),
        ("partition.py", 6, "add_reorder_hook"),
        ("partition.py", 6, "refresh_partitions"),
        ("partition.py", 7, "_refresh_block"),
        ("partition.py", 8, "ZddRelationPartition"),
        ("partition.py", 8, "RelationPartition"),
        ("partition.py", 10, "PartitionedNet"),
        ("partition.py", 11, "image_monolithic"),
        ("partition.py", 12, "monolithic_relation"),
        ("partition.py", 13, "RelationPartition"),
        ("structure.py", 1, "minimal_siphons"),
        ("structure.py", 2, "c_element"),
        ("structure.py", 3, "bdd_to_dot"),
        ("structure.py", 4, "size_many")]


# Where a chained per-transition step is taken, and the class it is
# confined to (``None``: the whole module).
STEP_SITES = ((SRC / "symbolic" / "transition.py", None),
              (SRC / "symbolic" / "checker.py", None),
              (SRC / "analysis" / "backends.py", "_BddFunctionalSession"))


def _is_method_call(node, methods):
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in methods)


def _calls_method(node, methods, bound=frozenset()):
    """Whether ``node`` calls one of ``.methods(...)`` or reads a name
    in ``bound`` (a local assigned from such a call)."""
    return any(_is_method_call(sub, methods)
               or (isinstance(sub, ast.Name) and sub.id in bound)
               for sub in ast.walk(node))


def composed_steps(path, scope=None):
    """``(module, line, shape)`` of every step built from composed
    operations: ``.cofactor(...)`` joined by ``&``, or ``.toggle(...)``
    (or the single-step ``image_toggle``/``preimage``) joined by ``|``
    — as a binary operator or an augmented assignment, directly or
    through a local bound to the call — inside class ``scope`` when one
    is given."""
    tree = ast.parse(path.read_text())
    roots = ([tree] if scope is None else
             [node for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef) and node.name == scope])
    assert roots, f"{path.name} has no class {scope}"
    shapes = ((ast.BitAnd, {"cofactor"}, "cofactor-and"),
              (ast.BitOr, {"toggle", "image_toggle"}, "toggle-or"),
              (ast.BitOr, {"preimage"}, "preimage-or"))
    found = set()
    for function in (node for root in roots for node in ast.walk(root)
                     if isinstance(node, ast.FunctionDef)):
        assigns = [node for node in ast.walk(function)
                   if isinstance(node, ast.Assign)]
        for op, methods, shape in shapes:
            bound = frozenset(
                target.id for node in assigns
                if _is_method_call(node.value, methods)
                for target in node.targets if isinstance(target, ast.Name))
            for node in ast.walk(function):
                if isinstance(node, ast.BinOp):
                    operands = (node.left, node.right)
                elif isinstance(node, ast.AugAssign):
                    operands = (node.target, node.value)
                else:
                    continue
                if isinstance(node.op, op) and any(
                        _calls_method(side, methods, bound)
                        for side in operands):
                    found.add((path.name, node.lineno, shape))
    return sorted(found)


def test_chained_steps_use_the_fused_kernel_operations():
    """The fixpoint's toggle firing and the single-step images and
    pre-images take each per-transition step in one fused recursion,
    and the checker (whose ``ef`` is one saturation call) builds no
    step of its own; the composed forms built two or three dead
    intermediate diagrams per step."""
    for path, scope in STEP_SITES:
        found = composed_steps(path, scope)
        assert not found, (
            f"{path.relative_to(SRC)} builds a chained step from composed "
            f"operations at {found}; call or_and_toggle / "
            f"or_cofactor_and instead")


def test_tripwire_sees_a_composed_step(tmp_path):
    """The step detector itself: both composed shapes are caught, in
    expressions, augmented assignments and through a local bound to the
    call, and only inside the scoped class; the fused calls and
    unrelated ``|``/``&`` are not."""
    module = tmp_path / "steps.py"
    module.write_text(
        "class Session:\n"
        "    def step(self, current, care, force, toggled):\n"
        "        current = current | (current & care).toggle(toggled)\n"
        "        current = current | (current.cofactor(force) & care)\n"
        "        current |= current.toggle(toggled)\n"
        "        current &= current.cofactor(force)\n"
        "        restricted = current.cofactor(force)\n"
        "        current = current | (restricted & care)\n"
        "        current = current | self.net.preimage(current, force)\n"
        "        current = current.or_and_toggle(current, care, toggled)\n"
        "        current = current.or_cofactor_and(current, force, care)\n"
        "        return current | care & force\n"
        "\n"
        "\n"
        "def elsewhere(current, care, toggled):\n"
        "    return current | current.toggle(toggled)\n")
    in_session = [("steps.py", 3, "toggle-or"),
                  ("steps.py", 4, "cofactor-and"),
                  ("steps.py", 5, "toggle-or"),
                  ("steps.py", 6, "cofactor-and"),
                  ("steps.py", 8, "cofactor-and"),
                  ("steps.py", 9, "preimage-or")]
    assert composed_steps(module, "Session") == in_session
    assert composed_steps(module) == in_session + [
        ("steps.py", 16, "toggle-or")]


# The entry points: the package (``analyze()``, ``Analysis`` and its
# ``checker()``), the command line, the service and the paper-table
# experiments.  Code stays only if one of them reaches it.
ENTRY_MODULES = ("repro", "repro.cli", "repro.service",
                 "repro.experiments.figure2", "repro.experiments.table3",
                 "repro.experiments.table4", "repro.experiments.ablation")


def import_graph(root):
    """Modules of the package directory ``root`` mapped to the package
    modules each one imports (relative imports resolved, the packages
    above an imported module included: importing runs their
    ``__init__``)."""
    modules = {}
    for path in root.rglob("*.py"):
        parts = path.relative_to(root.parent).with_suffix("").parts
        modules[".".join(parts[:-1] if parts[-1] == "__init__"
                         else parts)] = path
    graph = {}
    for name, path in modules.items():
        package = (name if path.name == "__init__.py"
                   else name.rpartition(".")[0]).split(".")
        named = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                named.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    base = ".".join(package[:len(package) - node.level + 1]
                                    + ([base] if base else []))
                named.add(base)
                named.update(f"{base}.{alias.name}" for alias in node.names)
        imported = set()
        for target in named:
            parts = target.split(".")
            imported.update(".".join(parts[:i])
                            for i in range(1, len(parts) + 1))
        graph[name] = imported & set(modules)
    return graph


def unreached_modules(root, entries=ENTRY_MODULES):
    """Modules under ``root`` that no import chain from ``entries``
    reaches, sorted."""
    graph = import_graph(root)
    reached, stack = set(), [entry for entry in entries if entry in graph]
    while stack:
        module = stack.pop()
        if module not in reached:
            reached.add(module)
            stack.extend(graph[module] - reached)
    return sorted(set(graph) - reached)


def test_every_module_is_reached_from_an_entry_point():
    """Every module under ``src/repro`` is imported, directly or through
    a chain, by an entry point; a module only tests or examples use
    reproduces nothing the paper reports (the STG front end, siphons,
    the Graphviz dump and the scaling experiment were deleted so)."""
    assert not unreached_modules(SRC), (
        f"{unreached_modules(SRC)} are reached from no entry point "
        f"{ENTRY_MODULES}; wire them into one or delete them")


def test_tripwire_sees_an_orphan_module(tmp_path):
    """The reachability scan itself: an orphan module is caught, and so
    is a module only an orphan imports; absolute imports, relative ones
    at every level, ``from . import`` of a submodule, imports inside a
    function and the packages above an imported module all count as
    reached."""
    root = tmp_path / "repro"
    for package in ("", "core", "core/deep", "tools"):
        (root / package).mkdir(exist_ok=True)
        (root / package / "__init__.py").write_text("")
    (root / "__init__.py").write_text("from .core import api\n")
    (root / "core" / "api.py").write_text(
        "import repro.tools.absolute\n"
        "from . import sibling\n"
        "def run():\n"
        "    from .deep.leaf import helper\n")
    (root / "core" / "sibling.py").write_text("")
    (root / "core" / "deep" / "leaf.py").write_text(
        "from ...tools import shared\n")
    for name in ("absolute", "shared", "only_from_orphan"):
        (root / "tools" / f"{name}.py").write_text("")
    (root / "orphan.py").write_text(
        "from .tools import only_from_orphan\n")
    assert unreached_modules(root, ("repro",)) == [
        "repro.orphan", "repro.tools.only_from_orphan"]


# The rule holds for definitions too: a public function or method stays
# only if code outside it names it, in src/ or in the two benchmark
# directories (perfbench's tracer resolves its spans by name, so string
# constants count).  Tests and examples do not count.  Four kinds are
# kept for the test suite, each with its reason.
CALLER_ROOTS = (SRC, SRC.parents[1] / "benchmarks",
                SRC.parents[1] / "perfbench")
KEPT_FOR_TESTS = {
    "petri/reachability.py:count_reachable_markings":
        "reference oracle: explicit enumeration the engines are checked "
        "against",
    "petri/invariants.py:is_semipositive_invariant":
        "reference oracle for the Farkas elimination",
    "bdd/function.py:Function.cofactor":
        "reference oracle: the composed step the fused kernel "
        "operations are checked against",
    "dd/manager.py:DDManager.assert_consistent":
        "debug self-check of the node tables",
    "bdd/zdd.py:ZDD.from_sets":
        "test fixture: builds the families the ZDD operations are "
        "checked on",
    "symbolic/transition.py:SymbolicNet.markings_of":
        "test fixture: decodes reached sets for the oracle comparisons",
    "symbolic/kbounded.py:KBoundedNet.markings_of":
        "test fixture: decodes reached sets for the oracle comparisons",
    "symbolic/zdd_relational.py:ZddStateOps.markings_of":
        "test fixture: decodes reached sets for the oracle comparisons",
}
# A string constant names a definition when it is a dotted identifier
# (``"SymbolicNet.preimage_all"``, ``getattr(obj, "name")``).
DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def public_definitions(path):
    """``(qualified name, name, node)`` of the public top-level functions
    and the public methods of top-level classes of ``path``."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name, node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item


def named_identifiers(path):
    """``(name, line)`` of every identifier the code of ``path`` names:
    names, attributes and dotted string constants, but not docstrings,
    ``__all__`` lists or the export tables of ``lazy_exports``."""
    tree = ast.parse(path.read_text())
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            skipped.update(id(stmt.value) for stmt in node.body
                           if isinstance(stmt, ast.Expr)
                           and isinstance(stmt.value, ast.Constant))
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            skipped.update(id(part) for part in ast.walk(node.value))
        elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Name) and node.func.id == "lazy_exports":
            skipped.update(id(part) for arg in node.args
                           for part in ast.walk(arg))
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED_NAME.fullmatch(node.value)):
            for name in node.value.split("."):
                yield name, node.lineno


def unnamed_definitions(root, callers=CALLER_ROOTS):
    """``module:qualified name`` of every public definition under
    ``root`` that no code under ``callers`` names outside the
    definition itself, sorted."""
    uses = {}
    for caller in callers:
        for path in caller.rglob("*.py"):
            for name, line in named_identifiers(path):
                uses.setdefault(name, []).append((path, line))
    found = []
    for path in sorted(root.rglob("*.py")):
        for qualname, name, node in public_definitions(path):
            start = min([node.lineno]
                        + [dec.lineno for dec in node.decorator_list])
            if not any(other != path or not start <= line <= node.end_lineno
                       for other, line in uses.get(name, ())):
                found.append(
                    f"{path.relative_to(root).as_posix()}:{qualname}")
    return found


def test_every_public_definition_is_named_outside_tests():
    """Every public function and method under ``src/repro`` is named by
    code outside it in src/, benchmarks/ or perfbench/, or is one of
    the few kept for the tests (``KEPT_FOR_TESTS``, with its reason).
    A definition only tests name reproduces nothing the paper reports:
    wire it into an entry point or delete it."""
    unnamed = unnamed_definitions(SRC)
    assert not set(unnamed) - set(KEPT_FOR_TESTS), (
        f"{sorted(set(unnamed) - set(KEPT_FOR_TESTS))} are named by no "
        f"code outside tests and examples; wire them in or delete them")
    assert not set(KEPT_FOR_TESTS) - set(unnamed), (
        f"{sorted(set(KEPT_FOR_TESTS) - set(unnamed))} are kept for the "
        f"tests but have callers now; drop them from KEPT_FOR_TESTS")


def test_tripwire_sees_an_orphan_definition(tmp_path):
    """The definition scan itself: an orphan function is caught, and so
    are a method only its own body names and one only ``__all__``, an
    import or a docstring names; calls, attribute access and dotted
    string constants in other definitions or modules count (a function
    only an orphan calls is caught once the orphan is deleted)."""
    root = tmp_path / "repro"
    root.mkdir()
    (root / "__init__.py").write_text(
        "from .core import api, orphan\n"
        "__all__ = ['api', 'orphan', 'Engine']\n")
    (root / "core.py").write_text(
        "class Engine:\n"
        "    def step(self):\n"
        "        return self.step()\n"
        "    def run(self):\n"
        "        return self.helper()\n"
        "    def helper(self):\n"
        "        '''Called by run.'''\n"
        "    def traced(self):\n"
        "        pass\n"
        "    def documented(self):\n"
        "        pass\n"
        "\n"
        "\n"
        "def api():\n"
        "    '''Not Engine.documented.'''\n"
        "    return Engine().run()\n"
        "\n"
        "\n"
        "def orphan():\n"
        "    return only_from_orphan()\n"
        "\n"
        "\n"
        "def only_from_orphan():\n"
        "    pass\n")
    bench = tmp_path / "perfbench"
    bench.mkdir()
    (bench / "tracer.py").write_text(
        "SPANS = [('repro.core', 'Engine.traced', 'engine.traced')]\n"
        "from repro import api\n"
        "api()\n")
    assert unnamed_definitions(root, (root, bench)) == [
        "core.py:Engine.step", "core.py:Engine.documented",
        "core.py:orphan"]
