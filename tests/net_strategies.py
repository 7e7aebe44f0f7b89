"""Hypothesis strategies for Petri nets, shared by the test suite.

* :func:`small_nets` — any net :class:`~repro.petri.PetriNet` accepts:
  arbitrary names, token counts and arcs (the ``.pnet`` round trip).
* :func:`safe_nets` — small *safe* nets: compositions of one to four
  one-token state machines with free-choice branches (two local moves
  out of one state) and synchronisations (one transition moving two
  machines at once).  Every transition moves exactly one token inside
  each machine it touches, so each machine always holds one token and
  every reachable marking is safe by construction.
* :func:`backward_closure` — the explicit oracle for backward queries
  (``EF``, ``AG``): a backward search over a reachability graph.

pytest puts ``tests/`` (the home of the root ``conftest.py``) on
``sys.path``, so test modules anywhere under ``tests/`` import this
module as ``net_strategies``.
"""

from collections import defaultdict, deque

from hypothesis import strategies as st

from repro.petri import PetriNet


def _legal(name):
    return "#" not in name and not any(c.isspace() for c in name)


names = st.text(st.characters(exclude_categories=("Cs",)),
                min_size=1, max_size=6).filter(_legal)


@st.composite
def small_nets(draw):
    node_names = draw(st.lists(names, min_size=1, max_size=8, unique=True))
    split = draw(st.integers(min_value=0, max_value=len(node_names)))
    net = PetriNet(draw(names))
    for place in node_names[:split]:
        net.add_place(place, draw(st.integers(min_value=0, max_value=3)))
    for transition in node_names[split:]:
        net.add_transition(transition)
    pairs = [(p, t) for p in net.places for t in net.transitions]
    pairs += [(t, p) for t in net.transitions for p in net.places]
    if pairs:
        for source, target in draw(st.lists(st.sampled_from(pairs),
                                            max_size=12)):
            net.add_arc(source, target)
    return net


def compose_state_machines(machines, syncs, name="generated"):
    """A safe net from one-token state machines.

    ``machines`` lists one ``(states, initial, moves)`` triple per
    machine: its state count, the state holding its token and its local
    moves as ``(source, target)`` state pairs.  ``syncs`` lists
    two-machine synchronisations as ``((i, source, target),
    (j, source, target))`` with ``i != j``.  Place ``m{i}s{k}`` is state
    ``k`` of machine ``i``; a move's source and target must differ.
    """
    net = PetriNet(name)
    for i, (states, initial, moves) in enumerate(machines):
        for k in range(states):
            net.add_place(f"m{i}s{k}", 1 if k == initial else 0)
        for n, (source, target) in enumerate(moves):
            net.add_transition(f"m{i}t{n}", [f"m{i}s{source}"],
                               [f"m{i}s{target}"])
    for n, sync in enumerate(syncs):
        net.add_transition(
            f"y{n}", [f"m{i}s{source}" for i, source, _ in sync],
            [f"m{i}s{target}" for i, _, target in sync])
    return net


@st.composite
def _move(draw, states):
    """A ``(source, target)`` pair of distinct states."""
    source = draw(st.integers(0, states - 1))
    step = draw(st.integers(1, states - 1))
    return source, (source + step) % states


@st.composite
def _machine(draw):
    states = draw(st.integers(2, 4))
    initial = draw(st.integers(0, states - 1))
    moves = draw(st.lists(_move(states), min_size=1, max_size=2 * states))
    return states, initial, moves


@st.composite
def safe_nets(draw):
    machines = draw(st.lists(_machine(), min_size=1, max_size=4))
    syncs = []
    if len(machines) > 1:
        pairs = [(i, j) for i in range(len(machines))
                 for j in range(i + 1, len(machines))]
        for i, j in draw(st.lists(st.sampled_from(pairs), max_size=3)):
            syncs.append(tuple((k, *draw(_move(machines[k][0])))
                               for k in (i, j)))
    return compose_state_machines(machines, syncs)


def backward_closure(graph, targets):
    """Indices of the markings of ``graph`` (a
    :class:`~repro.petri.reachability.ReachabilityGraph`) that can reach
    one of the marking indices ``targets``."""
    predecessors = defaultdict(list)
    for src, _, dst in graph.edges:
        predecessors[dst].append(src)
    seen = set(targets)
    queue = deque(seen)
    while queue:
        for src in predecessors[queue.popleft()]:
            if src not in seen:
                seen.add(src)
                queue.append(src)
    return seen
