"""Exhaustive reference deciders for small instances.

Everything here trades speed for trustworthiness: decisions come from full
enumeration over connected bundles or connected partitions, guarded by an
explicit budget.  Pruning (value thresholds, minimal candidate bundles,
symmetric-agent canonicalization, forward checking) may only skip branches
that provably contain no witness, so the pruned search decides as an
unpruned one would; ``test_pruned_matches_unpruned`` in
``tests/test_oracle.py`` checks this against an unpruned search of its own.

All scans run on ``Instance.grid``, one integer grid per agent, with each
threshold put on its agent's grid by ``model.at_least``.  A bundle search
grows connected sets once per agent type, carrying each set's value down
the growth, and stops growing a set as soon as it meets the threshold, since
its supersets hold no other minimal bundle; one DFS then packs pairwise
disjoint bundles, one per agent.

Maximin shares need no partition scan: on a connected graph, an agent's
share is at least x exactly when n disjoint connected bundles each worth at
least x to her exist, so a bisection over her connected-set values asks the
same DFS, with n agents of her type.  The envy-free decision alone scans
partitions; it keeps a part-value table, so each part's value for every row
is summed once, the first time the part appears, and a partition costs only
lookups and int comparisons.  Partitions arrive as tuples of part bitmasks,
and the part-value table is keyed by mask; masks become frozensets only in a
witness.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .graphs import _mask_bits, mask_is_connected
# The oracle calls neither of these; they stay bound here because
# bench/tracer.py wraps ``oracle.classify`` and ``oracle.connected_set_masks``.
from .graphs import classify, connected_set_masks  # noqa: F401
# bench/tracer.py wraps this name for its graphs.partitions span.
from .graphs import connected_partition_masks as enumerate_connected_partitions
from .model import (
    Allocation,
    BudgetExceeded,
    InputError,
    Instance,
    ItemGraph,
    SolveReport,
    at_least,
    compute_type_partition,
    integer_grid,
    make_report,
)
from .matching import _lex_smallest_perfect

__all__ = [
    "OracleBudget",
    "oracle_prop",
    "oracle_ef_complete",
    "oracle_mms_values",
    "oracle_mms_exists",
    "mms_values_raw",
]


@dataclass(frozen=True)
class OracleBudget:
    """Hard limits for exhaustive search; exceeding any raises BudgetExceeded."""

    max_items: int = 10
    max_agents: int = 5
    max_enumerated: int = 5_000_000

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if not isinstance(value, int) or value < 0:
                raise InputError(f"{field.name} must be an int >= 0, got {value!r}")


DEFAULT_BUDGET = OracleBudget()


def _guard(inst: Instance, budget: Optional[OracleBudget]) -> OracleBudget:
    b = budget or DEFAULT_BUDGET
    if inst.item_count > b.max_items:
        raise BudgetExceeded(
            f"{inst.item_count} items exceed the oracle budget of {b.max_items}"
        )
    if inst.agent_count > b.max_agents:
        raise BudgetExceeded(
            f"{inst.agent_count} agents exceed the oracle budget of {b.max_agents}"
        )
    return b


_EXHAUSTED = "enumeration budget exhausted"


class _NodeCounter:
    __slots__ = ("left",)

    def __init__(self, limit: int):
        self.left = limit

    def spend(self, amount: int = 1) -> None:
        self.left -= amount
        if self.left < 0:
            raise BudgetExceeded(_EXHAUSTED)


def _minimal_candidates(
    g: ItemGraph,
    weights: Sequence[int],
    threshold: int,
    counter: _NodeCounter,
    below: Optional[set[int]] = None,
) -> list[int]:
    """Minimal connected bundles meeting the threshold, as bitmasks.

    The growth branches like ``connected_set_masks`` (lowest root first, then
    include-first on the lowest frontier vertex), so the result keeps that
    stream's order.  Every set below a node is a superset of the node's set,
    so once a set meets the threshold it is the only possible minimal bundle
    there and the growth stops.  A qualifying set is minimal iff no single
    connected-preserving removal still qualifies; with nonnegative utilities
    that test is equivalent to having no qualifying connected proper subset
    at all.  Every set the growth reaches spends one unit of ``counter``.
    Given a set ``below``, the growth instead adds to it the value of every
    connected set worth less than the threshold, since it reaches them all,
    and returns no bundles.
    """
    if threshold <= 0:
        return [0]
    nbr = g.neighbor_masks
    out: list[int] = []
    left = counter.left

    def grow(s: int, total: int, frontier: int, avail: int) -> None:
        # s is connected and below the threshold; avail holds the vertices
        # not yet included or excluded, frontier those of them next to s
        nonlocal left
        while frontier:
            left -= 1
            if left < 0:
                raise BudgetExceeded(_EXHAUSTED)
            w = frontier & -frontier
            frontier &= ~w
            avail &= ~w  # w is in s | w below, and excluded after it
            v = w.bit_length() - 1
            bundle, value = s | w, total + weights[v]
            if value < threshold:
                if below is not None:
                    below.add(value)
                grow(bundle, value, (frontier | nbr[v]) & avail, avail)
            elif below is None:
                # dropping v leaves s, below the threshold; drop only the rest
                slack = value - threshold
                rest = s
                while rest:
                    u = rest & -rest
                    rest &= rest - 1
                    if weights[u.bit_length() - 1] <= slack and mask_is_connected(
                        g, bundle & ~u
                    ):
                        break
                else:
                    out.append(bundle)

    full = (1 << g.vertex_count) - 1
    for root in range(g.vertex_count):
        grow(0, 0, 1 << root, full >> root << root)
    counter.left = left
    return out


def _search_thresholds(
    inst: Instance, thresholds: Sequence[Fraction], counter: _NodeCounter
) -> Optional[list[int]]:
    """First assignment (in deterministic DFS order) meeting all thresholds."""
    g = inst.graph
    scales, weights = inst.grid
    scaled = [at_least(t, scale) for t, scale in zip(thresholds, scales)]
    types = compute_type_partition(inst)
    # One growth per agent type, at the threshold of its first member; each
    # spends once per set it reaches.
    firsts = [members[0] for members in types.members]
    per_type = [_minimal_candidates(g, weights[a], scaled[a], counter) for a in firsts]
    return _pack(per_type, types.type_of_agent, counter)


def _pack(
    candidates: Sequence[list[int]],
    type_of_agent: Sequence[int],
    counter: _NodeCounter,
) -> Optional[list[int]]:
    """First pick of pairwise disjoint bundles, one per agent, in DFS order.

    Agent i picks from ``candidates[type_of_agent[i]]``.  Same-type agents
    are interchangeable, so their nonempty picks run strictly up their
    type's list.  Every pick spends one unit of ``counter``; after it, each
    distinct list of the later agents must still hold a bundle disjoint from
    the picks so far (forward checking).
    """
    n = len(type_of_agent)
    later = [
        [candidates[t] for t in dict.fromkeys(type_of_agent[i + 1 :])]
        for i in range(n)
    ]

    def rec(i: int, used: int, floors: tuple[int, ...]) -> Optional[list[int]]:
        # ``floors[t]`` is the first index type t may still take.  A list
        # holding the empty bundle holds nothing else, so its floor stays 0
        # and the empty bundle is shared.
        if i == n:
            return []
        t = type_of_agent[i]
        cand = candidates[t]
        for idx in range(floors[t], len(cand)):
            mask = cand[idx]
            if mask & used:
                continue
            counter.spend()
            taken = used | mask
            for rest in later[i]:
                if all(c & taken for c in rest):
                    break
            else:
                below = floors[:t] + (idx + 1,) + floors[t + 1 :] if mask else floors
                found = rec(i + 1, taken, below)
                if found is not None:
                    return [mask, *found]
        return None

    return rec(0, 0, (0,) * len(candidates))


def _mask_value(weights: Sequence[int], mask: int) -> int:
    total = 0
    while mask:
        v = mask & -mask
        mask &= mask - 1
        total += weights[v.bit_length() - 1]
    return total


def _masks_to_allocation(masks: Iterable[int]) -> Allocation:
    return Allocation(
        tuple(frozenset(_mask_bits(mask)) for mask in masks)
    )


def oracle_prop(
    inst: Instance, budget: Optional[OracleBudget] = None
) -> SolveReport:
    """Exhaustive decision: does a proportional valid allocation exist?

    Completeness is not required; bundles may leave items on the table.
    """
    b = _guard(inst, budget)
    share = Fraction(1, inst.agent_count)
    counter = _NodeCounter(b.max_enumerated)
    masks = _search_thresholds(inst, [share] * inst.agent_count, counter)
    witness = None if masks is None else _masks_to_allocation(masks)
    return make_report(inst, "oracle", witness)


def oracle_mms_values(
    inst: Instance,
    budget: Optional[OracleBudget] = None,
    counter: Optional[_NodeCounter] = None,
) -> tuple[Fraction, ...]:
    """Each agent's maximin share over connected n-partitions, by packing search."""
    b = _guard(inst, budget)
    if inst.item_count < inst.agent_count:
        raise InputError("maximin shares need at least as many items as agents")
    values = mms_values_raw(
        inst.graph, inst.utilities, inst.agent_count, b.max_enumerated, counter
    )
    share = Fraction(1, inst.agent_count)
    assert all(v <= share for v in values), "maximin share above 1/n is impossible"
    return values


def mms_values_raw(
    g: ItemGraph,
    weight_rows: Sequence[Sequence[Fraction]],
    parts: int,
    node_limit: int = DEFAULT_BUDGET.max_enumerated,
    counter: Optional[_NodeCounter] = None,
) -> tuple[Fraction, ...]:
    """Max-over-partitions min-part value for nonnegative rows on a connected graph.

    Shared by the oracle proper and by trace replays on residual subtrees,
    where utility rows no longer sum to 1.  Each row is scaled once to its
    own integer grid, and each distinct grid row is searched once.

    On a connected graph a row's share is at least x exactly when ``parts``
    pairwise disjoint connected bundles each worth at least x exist: the
    items left over form components, each touches some bundle, and merging
    it into that bundle lowers no value.  So the share is 0 or the value of
    a connected set in (0, L // parts], L being the row's total.  One growth
    collects those values, and a bisection over them packs ``parts`` minimal
    bundles at each probed value with the bundle search's DFS; a probe that
    succeeds moves the bisection past the smallest value it picked.  Every
    set a growth reaches and every pick spends one unit of ``counter``
    (a caller's, which meters more than this search), else of ``node_limit``.

    >>> from graphfair.graphs import ItemGraph
    >>> path = ItemGraph(("a", "b", "c"), ((0, 1), (1, 2)))
    >>> mms_values_raw(path, [(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))], 2)
    (Fraction(1, 2),)
    """
    if parts < 1:
        raise InputError("part count must be at least 1")
    if not mask_is_connected(g, (1 << g.vertex_count) - 1):
        raise InputError("maximin shares are defined on connected item graphs only")
    if parts > g.vertex_count:
        if weight_rows:
            raise InputError(
                f"the graph admits no partition into {parts} connected parts"
            )
        return ()
    counter = counter or _NodeCounter(node_limit)
    scales, grid = integer_grid(weight_rows)
    shares: dict[tuple[int, ...], int] = {}
    for row in grid:
        if row not in shares:
            shares[row] = _share(g, row, parts, counter)
    return tuple(Fraction(shares[row], scale) for row, scale in zip(grid, scales))


def _share(
    g: ItemGraph, weights: Sequence[int], parts: int, counter: _NodeCounter
) -> int:
    """One grid row's maximin share, by bisection over its connected-set values."""
    reached: set[int] = set()
    _minimal_candidates(g, weights, sum(weights) // parts + 1, counter, reached)
    values = sorted(reached - {0})
    one_type = (0,) * parts
    best = 0
    lo, hi = 0, len(values) - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        bundles = _minimal_candidates(g, weights, values[mid], counter)
        picked = _pack([bundles], one_type, counter)
        if picked is None:
            hi = mid - 1
        else:
            best = min(_mask_value(weights, mask) for mask in picked)
            lo = bisect_right(values, best)
    return best


def _part_values(
    table: dict[int, tuple[int, ...]],
    grid: Sequence[Sequence[int]],
    part: int,
) -> tuple[int, ...]:
    """Every grid row's value for the ``part`` bitmask, summed once per table."""
    values = table.get(part)
    if values is None:
        values = table[part] = tuple(_mask_value(row, part) for row in grid)
    return values


def oracle_mms_exists(
    inst: Instance, budget: Optional[OracleBudget] = None
) -> SolveReport:
    """Exhaustive decision: does an allocation meeting every maximin share exist?"""
    b = _guard(inst, budget)
    counter = _NodeCounter(b.max_enumerated)  # one bound for shares and bundles
    values = oracle_mms_values(inst, b, counter)
    masks = _search_thresholds(inst, list(values), counter)
    witness = None if masks is None else _masks_to_allocation(masks)
    return make_report(inst, "oracle", witness, quotas=values)


def oracle_ef_complete(
    inst: Instance, budget: Optional[OracleBudget] = None
) -> SolveReport:
    """Exhaustive decision: does a complete, valid, envy-free allocation exist?

    Only partitions into exactly n parts can work: with utilities summing
    to 1, an agent holding an empty bundle values some assigned part
    positively and envies its owner.  For an n-part partition every part is
    owned, so envy-freeness says each agent receives a part she values at
    least as much as every other part — a perfect-matching condition between
    agents and their maximum-value parts.
    """
    b = _guard(inst, budget)
    n = inst.agent_count
    if inst.item_count < n:
        return make_report(inst, "oracle", None)
    counter = _NodeCounter(b.max_enumerated)
    _, weights = inst.grid
    table: dict[int, tuple[int, ...]] = {}

    for partition in enumerate_connected_partitions(inst.graph, n):
        counter.spend()
        value = list(zip(*(_part_values(table, weights, part) for part in partition)))
        favorite = [max(row) for row in value]
        adj = [
            [p for p in range(n) if value[i][p] == favorite[i]] for i in range(n)
        ]
        if any(
            all(value[i][p] != favorite[i] for i in range(n)) for p in range(n)
        ):
            continue  # some part is nobody's favorite, so it cannot be owned
        assignment = _lex_smallest_perfect(adj)
        if assignment is not None:
            witness = _masks_to_allocation(partition[p] for p in assignment)
            return make_report(inst, "oracle", witness)
    return make_report(inst, "oracle", None)
