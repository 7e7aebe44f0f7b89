"""Dynamic variable reordering by sifting (Rudell, 1993).

The paper applies dynamic reordering "at each iteration" of the symbolic
traversal; this module provides the sifting pass used for that, built on
:meth:`repro.dd.manager.DDManager.swap_levels` — and therefore generic
over every diagram flavour sharing the kernel: the same pass reorders
BDD managers and ZDD managers alike.

Sifting moves one variable (or one variable *group*) at a time through
the whole order, keeping the position that minimizes the number of live
nodes, subject to a growth bound that aborts clearly losing directions
early.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .manager import DDManager


def sift(manager: DDManager, max_growth: float = 1.2,
         groups: Optional[Sequence[Tuple[int, ...]]] = None) -> int:
    """Run one sifting pass over the variables of ``manager``.

    Variables are processed from the largest unique table to the smallest
    (the classic heuristic: big levels have the most to gain).  Each
    variable is swapped to every position; the best position seen is kept.
    A direction is abandoned when the total live node count exceeds
    ``max_growth`` times the size when the variable started moving.

    Parameters
    ----------
    max_growth:
        Growth bound for abandoning a direction.
    groups:
        Variable groups (tuples of indices/names) that must stay
        adjacent: each group moves through the order as one block, and
        positions are only evaluated with every block whole.  Variables
        not mentioned in any group sift individually.  This is how the
        chained ZDD net keeps its interleaved current/next pairs —
        and therefore the order-monotonicity of its rename maps —
        intact while still reordering (cf. CUDD's group sifting).

    Returns the number of live nodes after the pass.
    """
    manager.collect_garbage()
    num = manager.num_vars
    if num < 2:
        return manager.live_nodes()

    if groups:
        return _sift_blocks(manager, groups, max_growth)

    by_size = sorted(range(num), key=lambda v: -len(manager._unique[v]))
    for var in by_size:
        _sift_one(manager, var, max_growth)
    return manager.live_nodes()


def _sift_one(manager: DDManager, var: int, max_growth: float) -> None:
    num = manager.num_vars
    start_level = manager.level_of_var(var)
    start_size = manager.live_nodes()
    limit = int(start_size * max_growth) + 1

    best_size = start_size
    best_level = start_level

    # Choose the cheaper direction first: fewer levels to traverse.
    go_down_first = (num - 1 - start_level) <= start_level

    level = start_level
    if go_down_first:
        level, best_level, best_size = _walk_down(
            manager, var, level, best_level, best_size, limit)
        level, best_level, best_size = _walk_up(
            manager, var, level, best_level, best_size, limit)
    else:
        level, best_level, best_size = _walk_up(
            manager, var, level, best_level, best_size, limit)
        level, best_level, best_size = _walk_down(
            manager, var, level, best_level, best_size, limit)

    # Return to the best position seen.
    while level < best_level:
        manager.swap_levels(level)
        level += 1
    while level > best_level:
        manager.swap_levels(level - 1)
        level -= 1


def _walk_down(manager: DDManager, var: int, level: int, best_level: int,
               best_size: int, limit: int):
    num = manager.num_vars
    while level < num - 1:
        manager.swap_levels(level)
        level += 1
        size = manager.live_nodes()
        if size < best_size:
            best_size = size
            best_level = level
        if size > limit:
            break
    return level, best_level, best_size


def _walk_up(manager: DDManager, var: int, level: int, best_level: int,
             best_size: int, limit: int):
    while level > 0:
        manager.swap_levels(level - 1)
        level -= 1
        size = manager.live_nodes()
        if size < best_size:
            best_size = size
            best_level = level
        if size > limit:
            break
    return level, best_level, best_size


# ---------------------------------------------------------------------
# Group (block) sifting
# ---------------------------------------------------------------------

def _normalize_blocks(manager: DDManager,
                      groups: Sequence[Tuple[int, ...]]) -> List[List[int]]:
    """Resolve ``groups`` to disjoint variable blocks and make each one
    contiguous in the current order (members bubble up below their
    group's topmost variable; passing variables shift whole, so other
    blocks are never split).  Ungrouped variables become singletons.
    Returns the blocks top-to-bottom."""
    blocks: List[List[int]] = []
    seen = set()
    for group in groups:
        members = [manager.var_index(v) for v in group]
        if not members:
            continue
        if len(set(members)) != len(members) \
                or seen.intersection(members):
            raise ValueError(f"sift groups overlap: {groups!r}")
        seen.update(members)
        blocks.append(members)
    for var in range(manager.num_vars):
        if var not in seen:
            blocks.append([var])
    for members in blocks:
        members.sort(key=manager.level_of_var)
        top = manager.level_of_var(members[0])
        for offset, var in enumerate(members[1:], start=1):
            current = manager.level_of_var(var)
            while current > top + offset:
                manager.swap_levels(current - 1)
                current -= 1
    blocks.sort(key=lambda members: manager.level_of_var(members[0]))
    return blocks


def _exchange_blocks(manager: DDManager, blocks: List[List[int]],
                     index: int) -> None:
    """Swap the adjacent blocks at ``index`` and ``index + 1`` (both stay
    internally ordered) via adjacent-level swaps."""
    level = sum(map(len, blocks[:index]))
    upper, lower = len(blocks[index]), len(blocks[index + 1])
    for passed in range(lower):
        for step in range(upper):
            manager.swap_levels(level + passed + upper - 1 - step)
    blocks[index], blocks[index + 1] = blocks[index + 1], blocks[index]


def _sift_blocks(manager: DDManager, groups: Sequence[Tuple[int, ...]],
                 max_growth: float) -> int:
    blocks = _normalize_blocks(manager, groups)
    if len(blocks) < 2:
        return manager.live_nodes()
    by_size = sorted(blocks,
                     key=lambda b: -sum(len(manager._unique[v]) for v in b))
    for block in by_size:
        _sift_one_block(manager, blocks, block, max_growth)
    return manager.live_nodes()


def _sift_one_block(manager: DDManager, blocks: List[List[int]],
                    block: List[int], max_growth: float) -> None:
    last = len(blocks) - 1
    index = blocks.index(block)
    size = manager.live_nodes()
    limit = int(size * max_growth) + 1
    best_size, best_index = size, index

    def walk(index: int, step: int, stop: int) -> int:
        nonlocal best_size, best_index
        while index != stop:
            _exchange_blocks(manager, blocks, min(index, index + step))
            index += step
            size = manager.live_nodes()
            if size < best_size:
                best_size, best_index = size, index
            if size > limit:
                break
        return index

    if last - index <= index:
        index = walk(index, +1, last)
        index = walk(index, -1, 0)
    else:
        index = walk(index, -1, 0)
        index = walk(index, +1, last)
    while index < best_index:
        _exchange_blocks(manager, blocks, index)
        index += 1
    while index > best_index:
        _exchange_blocks(manager, blocks, index - 1)
        index -= 1


