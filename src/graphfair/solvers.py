"""Structure-aware solvers for proportional and envy-free division.

Each solver exploits one graph class: a matching formulation on stars, a
left-to-right sweep on paths with identical agents, prefix dynamic programs
on paths with few agent types, and a subtree dynamic program on trees that is
exponential only in the number of agents.  ``METHODS`` is the one routing
table: ``dispatch`` runs the first entry that fits the instance, and the
exhaustive oracle closes every problem's list.
"""

from __future__ import annotations

import logging
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Iterator, Optional, Sequence

from . import mms_tree
from .graphs import GraphClass, _mask_bits, classify, root_tree
# ``solve_matching`` stays bound here because bench/tracer.py wraps
# ``solvers.solve_matching``; the solvers call the core ``_assign`` directly.
from .matching import ABSENT, _assign, solve_matching  # noqa: F401
from .model import (
    AgentTypePartition,
    Allocation,
    InputError,
    Instance,
    SolveReport,
    compute_type_partition,
    integer_grid,
    make_report,
)
from .oracle import OracleBudget, oracle_ef_complete, oracle_mms_exists, oracle_prop

__all__ = [
    "Method",
    "METHODS",
    "prop_star",
    "prop_path_greedy",
    "prop_path_typed",
    "prop_tree_fpt",
    "ef_path_typed",
    "select_method",
    "dispatch",
]

logger = logging.getLogger(__name__)


def path_order(inst: Instance) -> list[int]:
    """Vertices of a path graph from one end to the other.

    The walk starts at the lower-indexed endpoint, which fixes the meaning of
    "left" for every path solver.
    """
    g = inst.graph
    if not classify(g).is_path:
        raise InputError("the item graph is not a path")
    m = g.vertex_count
    if m == 1:
        return [0]
    start = min(v for v in range(m) if g.degree(v) == 1)
    order = [start]
    prev = -1
    cur = start
    while len(order) < m:
        nxt = [w for w in g.neighbors(cur) if w != prev][0]
        order.append(nxt)
        prev, cur = cur, nxt
    return order


# ---------------------------------------------------------------------------
# stars


def prop_star(inst: Instance) -> SolveReport:
    """Proportionality on stars via one assignment problem per center owner.

    For a candidate owner i of the center, every other agent must take a
    single leaf she values at 1/n or more; among such systems a min-weight
    matching minimizes what the center owner gives away, so i keeps 1/n
    exactly when the matching total stays within (n-1)/n.  Values are
    compared on the instance's integer grid, where 1 is ``scale`` and 1/n is
    ``scale // n``, so the matchings run on ints.
    """
    g = inst.graph
    if not classify(g).is_star:
        raise InputError("the item graph is not a star")
    m, n = inst.item_count, inst.agent_count
    center = 0 if m <= 2 else max(range(m), key=g.degree)
    leaves = [v for v in range(m) if v != center]

    if n - 1 > len(leaves):
        return make_report(inst, "star", None)

    scale, grid = integer_grid(inst.utilities, [Fraction(1, n)])
    share = scale // n
    for i in range(n):
        others = [j for j in range(n) if j != i]
        rows = [
            [grid[i][v] if grid[j][v] >= share else ABSENT for v in leaves]
            for j in others
        ]
        solved = _assign(rows, len(leaves), 1)
        if solved is None or solved[1] > scale - share:
            continue
        bundles = [frozenset()] * n
        matched = set()
        for j, col in zip(others, solved[0]):
            bundles[j] = frozenset({leaves[col]})
            matched.add(leaves[col])
        bundles[i] = frozenset({center} | (set(leaves) - matched))
        return make_report(inst, "star", Allocation(tuple(bundles)))
    return make_report(inst, "star", None)


# ---------------------------------------------------------------------------
# paths, single type


def prop_path_greedy(inst: Instance) -> SolveReport:
    """Left-to-right sweep for identical agents on a path.

    Close a piece as soon as its value reaches 1/n; the instance is a yes
    exactly when n pieces close, and the last piece then absorbs the suffix.
    """
    types = compute_type_partition(inst)
    if types.type_count != 1:
        raise InputError("the greedy path solver needs all agents identical")
    order = path_order(inst)
    n = inst.agent_count
    share = Fraction(1, n)
    row = inst.utilities[0]

    pieces: list[list[int]] = []
    current: list[int] = []
    acc = Fraction(0)
    for v in order:
        current.append(v)
        acc += row[v]
        if acc >= share:
            pieces.append(current)
            current = []
            acc = Fraction(0)
    if len(pieces) < n:
        return make_report(inst, "greedy", None)
    bundles = [frozenset(p) for p in pieces[: n - 1]]
    tail: set[int] = set()
    for p in pieces[n - 1 :]:
        tail |= set(p)
    tail |= set(current)
    bundles.append(frozenset(tail))
    return make_report(inst, "greedy", Allocation(tuple(bundles)))


# ---------------------------------------------------------------------------
# paths, few types


def _typed_path_setup(inst: Instance):
    order = path_order(inst)
    types = compute_type_partition(inst)
    scale, rows = integer_grid(
        [inst.utilities[members[0]] for members in types.members],
        [Fraction(1, inst.agent_count)],
    )
    prefix = []
    for row in rows:
        acc = [0]
        for v in order:
            acc.append(acc[-1] + row[v])
        prefix.append(acc)
    return order, types, scale, prefix


def _tile(counts: tuple[int, ...], allowed: list[list[tuple[int, Optional[int]]]]):
    """Prefix DP over count vectors; returns one backpointer table per position.

    ``allowed[e]`` lists the ``(s, t)`` pieces that may end at position e:
    positions s..e-1 form a piece for type t, or a loose item when t is
    ``None``.  ``tables[e][vec]`` is ``(s, t, prev)`` for the first piece
    that reached count vector ``vec`` (at most ``counts[t]`` pieces of type
    t) from ``tables[s][prev]``, in the order of ``allowed[e]``.
    """
    tables: list[dict[tuple[int, ...], Optional[tuple]]] = [{(0,) * len(counts): None}]
    for pieces in allowed[1:]:
        entry: dict[tuple[int, ...], Optional[tuple]] = {}
        for s, t in pieces:
            if t is None:
                for vec in tables[s]:
                    if vec not in entry:
                        entry[vec] = (s, None, vec)
                continue
            for vec in tables[s]:
                if vec[t] >= counts[t]:
                    continue
                grown = vec[:t] + (vec[t] + 1,) + vec[t + 1 :]
                if grown not in entry:
                    entry[grown] = (s, t, vec)
        tables.append(entry)
    return tables


def _tiling_allocation(inst, order, types, tables) -> Allocation:
    """Follow the backpointers from the full count vector and hand out the pieces.

    ``tables[e][vec]`` is ``(s, t, prev)`` as built by ``_tile``.  The full
    vector holds one piece per agent, so every agent gets a nonempty bundle:
    each type's pieces go to its agents left to right.
    """
    pieces: list[tuple[int, int, int]] = []
    e, vec = len(order), types.agents_per_type
    while e > 0:
        s, t, prev = tables[e][vec]
        if t is not None:
            pieces.append((s, e, t))
        e, vec = s, prev
    by_type: list[list[tuple[int, int]]] = [[] for _ in range(types.type_count)]
    for s, e, t in sorted(pieces):
        by_type[t].append((s, e))
    bundles = [frozenset()] * inst.agent_count
    for t, members in enumerate(types.members):
        for agent, (s, e) in zip(members, by_type[t]):
            bundles[agent] = frozenset(order[pos] for pos in range(s, e))
    return Allocation(tuple(bundles))


def prop_path_typed(inst: Instance) -> SolveReport:
    """Proportionality on paths, exponential only in the number of types.

    A piece may go to type t when t values it at 1/n or more; any item may
    stay loose.
    """
    order, types, scale, prefix = _typed_path_setup(inst)
    threshold = scale // inst.agent_count
    p = types.type_count
    pairs = [(s, t) for s in range(len(order)) for t in range(p)]
    allowed: list[list[tuple[int, Optional[int]]]] = [[]]
    for e in range(1, len(order) + 1):
        # Utilities are nonnegative, so the pieces ending at e that type t
        # accepts are exactly those starting at s <= last[t].
        last = [bisect_right(prefix[t], prefix[t][e] - threshold, 0, e) - 1 for t in range(p)]
        low = min(last) + 1
        pieces: list[tuple[int, Optional[int]]] = pairs[: low * p]
        pieces += [(s, t) for s in range(low, max(last) + 1) for t in range(p) if s <= last[t]]
        pieces.append((e - 1, None))
        allowed.append(pieces)
    full = types.agents_per_type
    tables = _tile(full, allowed)
    if full not in tables[-1]:
        return make_report(inst, "path-dp", None)
    witness = _tiling_allocation(inst, order, types, tables)
    return make_report(inst, "path-dp", witness)


# ---------------------------------------------------------------------------
# trees


def _set_partitions(members: Sequence[int], max_blocks: int) -> Iterator[list[int]]:
    """Partitions of ``members`` into at most ``max_blocks`` bitmask blocks.

    Restricted-growth order: deterministic and duplicate-free.
    """
    if not members:
        return
    blocks: list[int] = []

    def rec(idx: int) -> Iterator[list[int]]:
        if idx == len(members):
            yield list(blocks)
            return
        bit = 1 << members[idx]
        for b in range(len(blocks)):
            blocks[b] |= bit
            yield from rec(idx + 1)
            blocks[b] &= ~bit
        if len(blocks) < max_blocks:
            blocks.append(bit)
            yield from rec(idx + 1)
            blocks.pop()

    yield from rec(0)


def _tree_dp_run(inst: Instance):
    """The subtree DP on the instance's integer grid; returns its tables.

    ``entries[(v, i, S)]`` is the most agent i can keep in a connected bundle
    that contains v and stays in v's subtree, while every agent in the
    bitmask S gets a connected bundle there worth at least 1/n to her; None
    when no such split exists.  Entries are ints: the utilities times
    ``scale`` from ``integer_grid``, so 1/n is ``share = scale // n``.  At a
    vertex with children, each set partition of S gives its blocks to
    distinct children by one max-weight matching: agent i extends into the
    child, or hands the child's subtree off to a block agent who can own it,
    and the children left over go to i whole.  ``info`` keeps the choice
    behind each entry for ``prop_tree_fpt`` to rebuild the bundles.
    """
    g = inst.graph
    if not classify(g).is_tree:
        raise InputError("the item graph is not a tree")
    n = inst.agent_count
    view = root_tree(g, 0)
    scale, grid = integer_grid(inst.utilities, [Fraction(1, n)])
    share = scale // n

    subval = [[0] * g.vertex_count for _ in range(n)]
    entries: dict[tuple[int, int, int], Optional[int]] = {}
    info: dict[tuple[int, int, int], tuple] = {}

    for v in view.postorder:
        kids = view.children[v]
        for i in range(n):
            subval[i][v] = grid[i][v] + sum(subval[i][z] for z in kids)
        # Neither a block's row nor a child's hand-off owner depends on the
        # set partition being tried, so each is worked out once per vertex.
        owners: dict[tuple[int, int], Optional[int]] = {}
        blocks: dict[tuple[int, int], Optional[tuple[list, list]]] = {}

        def block(i: int, part: int) -> Optional[tuple[list, list]]:
            """Agent i's matching row for the block ``part`` and its modes."""
            if (i, part) in blocks:
                return blocks[(i, part)]
            row: list[Optional[int]] = []
            modes: list[Optional[tuple]] = []
            for z in kids:
                ext = entries[(z, i, part)]
                if ext is not None:
                    row.append(ext)
                    modes.append(("extend", None))
                    continue
                if (z, part) not in owners:
                    owners[(z, part)] = None
                    for j in _mask_bits(part):
                        sub = entries[(z, j, part & ~(1 << j))]
                        if sub is not None and sub >= share:
                            owners[(z, part)] = j
                            break
                owner = owners[(z, part)]
                row.append(ABSENT if owner is None else 0)
                modes.append(None if owner is None else ("handoff", owner))
            usable = any(w is not ABSENT for w in row)
            blocks[(i, part)] = (row, modes) if usable else None
            return blocks[(i, part)]

        for i in range(n):
            whole = [subval[i][z] for z in kids]
            others = [j for j in range(n) if j != i]
            for S in _submasks(others):
                key = (v, i, S)
                if not kids:
                    entries[key] = grid[i][v] if S == 0 else None
                    info[key] = ("leaf",)
                    continue
                if S == 0:
                    entries[key] = subval[i][v]
                    info[key] = ("whole",)
                    continue
                best: Optional[int] = None
                best_info: Optional[tuple] = None
                for parts in _set_partitions(sorted(_mask_bits(S)), len(kids)):
                    picked = [block(i, part) for part in parts]
                    if None in picked:
                        continue
                    rows = [row for row, _ in picked]
                    rows += [whole] * (len(kids) - len(parts))
                    solved = _assign(rows, len(kids), -1)
                    if solved is not None and (best is None or solved[1] > best):
                        best = solved[1]
                        modes_per_part = [modes for _, modes in picked]
                        best_info = ("split", parts, solved[0], modes_per_part)
                if best is None:
                    entries[key] = None
                else:
                    entries[key] = grid[i][v] + best
                    assert best_info is not None
                    info[key] = best_info
    return view, entries, info, share


def _submasks(members: Sequence[int]) -> Iterator[int]:
    for r in range(1 << len(members)):
        mask = 0
        for idx, agent in enumerate(members):
            if r >> idx & 1:
                mask |= 1 << agent
        yield mask


def prop_tree_fpt(inst: Instance) -> SolveReport:
    """Proportionality on trees, exponential only in the number of agents.

    Runs ``_tree_dp_run`` on the integer grid; the instance is a yes when
    some agent, tried in index order, can own the root while all others are
    served, and the recorded choices then rebuild the bundles.
    """
    view, entries, info, share = _tree_dp_run(inst)
    n = inst.agent_count
    full = (1 << n) - 1

    owner = None
    for i in range(n):
        value = entries[(view.root, i, full & ~(1 << i))]
        if value is not None and value >= share:
            owner = i
            break
    if owner is None:
        return make_report(inst, "tree-fpt", None)

    bundles: list[set[int]] = [set() for _ in range(n)]

    def build(v: int, i: int, S: int) -> None:
        node = info[(v, i, S)]
        if node[0] == "leaf":
            bundles[i].add(v)
            return
        if node[0] == "whole":
            bundles[i] |= view.subtree[v]
            return
        _, parts, assignment, modes_per_part = node
        bundles[i].add(v)
        kids = view.children[v]
        taken = set()
        for p_idx, part in enumerate(parts):
            z = kids[assignment[p_idx]]
            taken.add(z)
            mode = modes_per_part[p_idx][assignment[p_idx]]
            assert mode is not None
            if mode[0] == "extend":
                build(z, i, part)
            else:
                j = mode[1]
                build(z, j, part & ~(1 << j))
        for z in kids:
            if z not in taken:
                bundles[i] |= view.subtree[z]

    build(view.root, owner, full & ~(1 << owner))
    return make_report(
        inst, "tree-fpt", Allocation(tuple(frozenset(b) for b in bundles))
    )


# ---------------------------------------------------------------------------
# envy-freeness on paths


def _ef_tile(inst, order, types, prefix, targets) -> Optional[Allocation]:
    """Tile the whole path with exactly one piece per agent, if possible.

    A piece may go to type t when it is worth exactly ``targets[t]`` to t
    and at most ``targets[o]`` to every other type o.
    """
    m = len(order)
    p = types.type_count
    allowed: list[list[tuple[int, Optional[int]]]] = [[] for _ in range(m + 1)]
    for s in range(m):
        for e in range(s + 1, m + 1):
            for t in range(p):
                if prefix[t][e] - prefix[t][s] != targets[t]:
                    continue
                if any(
                    prefix[o][e] - prefix[o][s] > targets[o]
                    for o in range(p)
                    if o != t
                ):
                    continue
                allowed[e].append((s, t))
    full = types.agents_per_type
    tables = _tile(full, allowed)
    if full not in tables[m]:
        return None
    return _tiling_allocation(inst, order, types, tables)


def ef_path_typed(inst: Instance) -> SolveReport:
    """Complete envy-freeness on paths by guessing per-type own values.

    A complete envy-free tiling has exactly n nonempty pieces, one per agent,
    and each piece of type t is worth exactly the guess g_t to t.  Candidate
    guesses per type are the values of contiguous intervals.  Every accepted
    g_t lies in [1/n, 1/n_t]: the path's total value 1 is split among n
    pieces each worth at most g_t to type t, and n_t own pieces worth g_t
    each cannot exceed 1.  So interval values outside that range are
    skipped, and the surviving guesses are tried in lexicographic order.
    """
    order, types, scale, prefix = _typed_path_setup(inst)
    m = len(order)
    p = types.type_count
    n = inst.agent_count
    counts = types.agents_per_type

    candidate_lists: list[list[int]] = []
    for t in range(p):
        vals = {
            prefix[t][e] - prefix[t][s] for s in range(m) for e in range(s + 1, m + 1)
        }
        lo = Fraction(scale, n)
        hi = Fraction(scale, counts[t])
        keep = sorted(v for v in vals if lo <= v <= hi)
        candidate_lists.append(keep)

    for targets in product(*candidate_lists):
        witness = _ef_tile(inst, order, types, prefix, list(targets))
        if witness is not None:
            quotas = tuple(
                Fraction(targets[types.type_of_agent[a]], scale)
                for a in range(inst.agent_count)
            )
            return make_report(inst, "ef-path", witness, quotas=quotas)
    return make_report(inst, "ef-path", None)


# ---------------------------------------------------------------------------
# routing


@dataclass(frozen=True)
class Method:
    """One routing entry: a solver for one problem and the instances it fits.

    ``run(inst, budget)`` solves; ``needs`` is the error text for a forced
    method whose ``applies(cls, types, inst)`` is false.
    """

    name: str
    problem: str
    applies: Callable[[GraphClass, AgentTypePartition, Instance], bool]
    run: Callable[[Instance, Optional[OracleBudget]], SolveReport]
    needs: str = ""


# Per problem, ``auto`` takes the first entry that applies.  Each ``run`` looks
# its solver up by module attribute at call time, never through a captured
# function object, so a wrapper installed on that attribute sees the call.
METHODS = (
    Method("greedy", "prop",
           lambda cls, types, inst: cls.is_path and types.type_count == 1,
           lambda inst, budget: prop_path_greedy(inst),
           "greedy needs a path and identical agents"),
    Method("path-dp", "prop",
           lambda cls, types, inst: cls.is_path,
           lambda inst, budget: prop_path_typed(inst),
           "the path solver needs a path graph"),
    Method("star", "prop",
           lambda cls, types, inst: cls.is_star,
           lambda inst, budget: prop_star(inst),
           "the star solver needs a star graph"),
    Method("tree-fpt", "prop",
           lambda cls, types, inst: cls.is_tree,
           lambda inst, budget: prop_tree_fpt(inst),
           "the tree solver needs a tree graph"),
    Method("oracle", "prop", lambda cls, types, inst: True,
           lambda inst, budget: oracle_prop(inst, budget)),
    Method("ef-path", "ef-complete",
           lambda cls, types, inst: cls.is_path,
           lambda inst, budget: ef_path_typed(inst),
           "the envy-free path solver needs a path graph"),
    Method("oracle", "ef-complete", lambda cls, types, inst: True,
           lambda inst, budget: oracle_ef_complete(inst, budget)),
    Method("mms-tree", "mms",
           lambda cls, types, inst: cls.is_tree and inst.item_count >= inst.agent_count,
           lambda inst, budget: mms_tree.solve_mms_tree(inst),
           "the tree maximin solver needs a tree with enough items"),
    Method("oracle", "mms", lambda cls, types, inst: True,
           lambda inst, budget: oracle_mms_exists(inst, budget)),
)


def select_method(inst: Instance, problem: str, method: str = "auto") -> Method:
    """The ``METHODS`` entry that solves ``problem`` for ``inst``.

    ``problem`` is one of prop, ef-complete, mms; ``method`` overrides the
    automatic choice and is checked against the problem before the graph is
    classified.
    """
    problem = problem.replace("_", "-")
    entries = [entry for entry in METHODS if entry.problem == problem]
    if not entries:
        raise InputError(f"unknown problem {problem!r}")
    if method != "auto":
        entries = [entry for entry in entries if entry.name == method]
        if not entries:
            raise InputError(f"method {method!r} does not solve problem {problem!r}")
    cls = classify(inst.graph)
    types = compute_type_partition(inst)
    for entry in entries:
        if entry.applies(cls, types, inst):
            return entry
    raise InputError(entries[0].needs)


def dispatch(
    inst: Instance,
    problem: str,
    method: str = "auto",
    budget: Optional[OracleBudget] = None,
) -> SolveReport:
    """Route an instance through ``select_method`` and return the solver's report."""
    entry = select_method(inst, problem, method)
    logger.debug("dispatch: problem=%s method=%s", entry.problem, entry.name)
    return entry.run(inst, budget)
