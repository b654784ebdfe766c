"""Exhaustive reference deciders for small instances.

Everything here trades speed for trustworthiness: decisions come from full
enumeration over connected bundles or connected partitions, guarded by an
explicit budget.  Pruning (value thresholds, minimal candidate bundles,
symmetric-agent canonicalization) may only skip branches that provably
contain no witness, so the pruned search decides as an unpruned one would;
``test_pruned_matches_unpruned`` in ``tests/test_oracle.py`` checks this
against an unpruned search of its own.

All scans run on ``Instance.grid``, one integer grid per agent, with each
threshold put on its agent's grid by ``model.at_least``.  The one bundle
search, ``_search_thresholds``, grows connected sets once per agent type and
stops a set once it meets the threshold, since its supersets hold no other
minimal bundle; one test, ``_is_minimal``, keeps the minimal ones, and one
DFS packs disjoint bundles, one per agent.

Maximin shares need no partition scan: on a connected graph, an agent's
share is at least x exactly when n disjoint connected bundles each worth at
least x to her exist, so a bisection over her connected-set values asks the
same DFS, with n agents of her type.  A solve grows once per distinct grid
row and records every set the growth reaches; each bisection probe, and the
bundle search at the shares, filters those records instead of growing
again, and spends what its own growth would have.

One solve has one work counter, ``_NodeCounter``, which carries the solve's
whole search state: the budget left, the recorded growths and the
connectivity memo of ``_is_minimal``.  Every route that spends the budget,
here and in ``solvers``, enters ``_bounded`` once, which builds that counter.

The envy-free decision alone scans partitions; it keeps a part-value table,
so each part's value for every row is summed once, the first time the part
appears, and a partition costs only lookups and int comparisons.
Partitions arrive as tuples of part bitmasks, and the part-value table is
keyed by mask; masks become frozensets only in a witness.
"""

from __future__ import annotations

from bisect import bisect_right
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

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
    _as_fraction,
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


_EXHAUSTED = "enumeration budget exhausted"

# One set a growth reached: (its parent's value, its value, its bitmask).
_Record = tuple[int, int, int]


class _NodeCounter:
    """One solve's work budget and its search state.

    ``left`` is the budget still unspent.  ``records`` maps each distinct
    grid row that ``_shares`` searched to its recorded growth, which
    ``_search_thresholds`` filters instead of growing again; ``connected``
    memoizes connectivity by mask for ``_is_minimal``.  Both start empty and
    hold for one graph, so a counter serves one solve.
    """

    __slots__ = ("left", "records", "connected")

    def __init__(self, limit: int):
        self.left = limit
        self.records: dict[tuple[int, ...], list[_Record]] = {}
        self.connected: dict[int, bool] = {}

    def spend(self, amount: int = 1) -> None:
        self.left -= amount
        if self.left < 0:
            raise BudgetExceeded(_EXHAUSTED)


def _checked_budget(budget: Optional[OracleBudget]) -> OracleBudget:
    """``budget``, or ``DEFAULT_BUDGET`` for None; anything else is refused."""
    if budget is None:
        return DEFAULT_BUDGET
    if not isinstance(budget, OracleBudget):
        raise InputError(f"budget must be an OracleBudget or None, got {budget!r}")
    return budget


@contextmanager
def _bounded(
    budget: Optional[OracleBudget], inst: Optional[Instance] = None
) -> Iterator[_NodeCounter]:
    """One solve's bound: its size limits, its work counter and its depth.

    Every route that spends the budget enters this once.  ``budget`` is read by
    ``_checked_budget``; ``inst``, when given, must fit ``max_items`` and then
    ``max_agents``.  The searches recurse once per vertex or agent they add,
    so one deeper than the recursion limit is a spent budget, not an answer.
    """
    budget = _checked_budget(budget)
    if inst is not None:
        for count, limit, what in (
            (inst.item_count, budget.max_items, "items"),
            (inst.agent_count, budget.max_agents, "agents"),
        ):
            if count > limit:
                raise BudgetExceeded(f"{count} {what} exceed the oracle budget of {limit}")
    try:
        yield _NodeCounter(budget.max_enumerated)
    except RecursionError:
        raise BudgetExceeded("search deeper than the recursion limit") from None


def _is_minimal(
    g: ItemGraph,
    weights: Sequence[int],
    mask: int,
    slack: int,
    connected: dict[int, bool],
) -> bool:
    """Whether no single removal keeps the connected set ``mask`` qualifying.

    ``mask`` is worth ``slack`` above the threshold; with nonnegative utilities
    that makes it a minimal bundle.  A growth's last vertex is worth more than
    ``slack``, so it is never removed.  ``connected`` memoizes connectivity by
    mask, which holds for every row and threshold of a solve.
    """
    rest = mask
    while rest:
        u = rest & -rest
        rest &= rest - 1
        if weights[u.bit_length() - 1] <= slack:
            shrunk = mask & ~u
            joined = connected.get(shrunk)
            if joined is None:
                joined = connected[shrunk] = mask_is_connected(g, shrunk)
            if joined:
                return False
    return True


def _minimal_candidates(
    g: ItemGraph,
    weights: Sequence[int],
    threshold: int,
    counter: _NodeCounter,
) -> list[int]:
    """Minimal connected bundles meeting the threshold, as bitmasks.

    The growth branches like ``connected_set_masks`` (lowest root first, then
    include-first on the lowest frontier vertex), so the result keeps that
    stream's order.  Every set below a node is a superset of the node's set,
    so once a set meets the threshold the growth stops there, keeping the set
    if ``_is_minimal`` holds with the counter's memo.  Every set the growth
    reaches spends one unit of ``counter``.
    """
    if threshold <= 0:
        return [0]
    nbr = g.neighbor_masks
    connected = counter.connected
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
                grow(bundle, value, (frontier | nbr[v]) & avail, avail)
            elif _is_minimal(g, weights, bundle, value - threshold, connected):
                out.append(bundle)

    full = (1 << g.vertex_count) - 1
    for root in range(g.vertex_count):
        grow(0, 0, 1 << root, full >> root << root)
    counter.left = left
    return out


def _record_growth(
    g: ItemGraph, weights: Sequence[int], threshold: int, counter: _NodeCounter
) -> list[_Record]:
    """Every set ``_minimal_candidates`` at ``threshold`` reaches, in its order.

    Each set is kept as ``(parent value, value, mask)``, the parent being the
    set it grew from (worth 0 for a root), and spends one unit of
    ``counter``; the sets that meet the threshold, where the growth stops,
    are kept too.  Values only rise down the growth, so a growth at any
    x <= ``threshold`` reaches exactly the records whose parent value is
    below x, in the same order, and stops at those with
    ``parent < x <= value``: ``_filter_candidates`` answers it from them.
    """
    nbr = g.neighbor_masks
    records: list[_Record] = []
    record = records.append
    left = counter.left

    def grow(s: int, total: int, frontier: int, avail: int) -> None:
        nonlocal left
        while frontier:
            left -= 1
            if left < 0:
                raise BudgetExceeded(_EXHAUSTED)
            w = frontier & -frontier
            frontier &= ~w
            avail &= ~w
            v = w.bit_length() - 1
            bundle, value = s | w, total + weights[v]
            record((total, value, bundle))
            if value < threshold:
                grow(bundle, value, (frontier | nbr[v]) & avail, avail)

    full = (1 << g.vertex_count) - 1
    for root in range(g.vertex_count):
        grow(0, 0, 1 << root, full >> root << root)
    counter.left = left
    return records


def _filter_candidates(
    g: ItemGraph,
    weights: Sequence[int],
    records: Sequence[_Record],
    threshold: int,
    counter: _NodeCounter,
) -> list[int]:
    """``_minimal_candidates`` at ``threshold`` from recorded sets.

    ``records`` come from ``_record_growth`` on the same graph and row, at a
    threshold of at least this one.  The growth's stop nodes are kept in
    record order if ``_is_minimal`` holds, with the counter's memo, so the
    list is the growth's own.  One bulk spend of ``counter``, at the
    end, pays for every set the growth would have reached.
    """
    if threshold <= 0:
        return [0]
    connected = counter.connected
    reached = 0
    out: list[int] = []
    for parent, value, mask in records:
        if parent >= threshold:
            continue
        reached += 1
        if value >= threshold and _is_minimal(
            g, weights, mask, value - threshold, connected
        ):
            out.append(mask)
    counter.spend(reached)
    return out


def _search_thresholds(
    inst: Instance, thresholds: Sequence[Fraction], counter: _NodeCounter
) -> Optional[list[int]]:
    """First assignment (in deterministic DFS order) meeting all thresholds.

    Each agent type grows its minimal bundles at its first member's threshold,
    or filters its row's growth if the counter recorded one, as the share
    search of an mms solve does; the types share the counter's connectivity
    memo.
    """
    g = inst.graph
    scales, weights = inst.grid
    types = compute_type_partition(inst)
    per_type = []
    for a in (members[0] for members in types.members):
        row, x = weights[a], at_least(thresholds[a], scales[a])
        grown = counter.records.get(row)
        if grown is None:
            per_type.append(_minimal_candidates(g, row, x, counter))
        else:
            per_type.append(_filter_candidates(g, row, grown, x, counter))
    return _pack(per_type, types.type_of_agent, counter)


def _pack(
    candidates: Sequence[list[int]],
    type_of_agent: Sequence[int],
    counter: _NodeCounter,
) -> Optional[list[int]]:
    """First pick of pairwise disjoint bundles, one per agent, in DFS order.

    Agent i picks from ``candidates[type_of_agent[i]]``.  Same-type agents
    are interchangeable, so their nonempty picks run strictly up their
    type's list.  Every pick spends one unit of ``counter``.  No pick looks
    ahead: the next agent's own scan finds out whether any of its bundles
    is still disjoint from the picks so far.
    """
    n = len(type_of_agent)

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
            below = floors[:t] + (idx + 1,) + floors[t + 1 :] if mask else floors
            found = rec(i + 1, used | mask, below)
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
    share = Fraction(1, inst.agent_count)
    with _bounded(budget, inst) as counter:
        masks = _search_thresholds(inst, [share] * inst.agent_count, counter)
    witness = None if masks is None else _masks_to_allocation(masks)
    return make_report(inst, "oracle", witness)


def oracle_mms_values(
    inst: Instance,
    budget: Optional[OracleBudget] = None,
    counter: Optional[_NodeCounter] = None,
) -> tuple[Fraction, ...]:
    """Each agent's maximin share over connected n-partitions, by packing search.

    Too few items and a disconnected graph are input errors at any size, so
    ``_require_partitionable`` tests them before the budget's size limits.
    Given a ``counter``, the caller has run those tests and entered
    ``_bounded`` already.  The shares come from ``_shares`` on
    ``Instance.grid``, whose rows are already scaled and checked.
    """
    with ExitStack() as stack:
        if counter is None:
            _require_partitionable(inst)
            counter = stack.enter_context(_bounded(budget, inst))
        scales, grid = inst.grid
        shares = _shares(inst.graph, grid, inst.agent_count, counter)
    values = tuple(Fraction(shares[row], scale) for row, scale in zip(grid, scales))
    share = Fraction(1, inst.agent_count)
    assert all(v <= share for v in values), "maximin share above 1/n is impossible"
    return values


def _require_partitionable(inst: Instance) -> None:
    """``InputError`` unless the items admit a connected partition into n parts."""
    if inst.item_count < inst.agent_count:
        raise InputError("maximin shares need at least as many items as agents")
    _require_connected(inst.graph)


def _require_connected(g: ItemGraph) -> None:
    if not mask_is_connected(g, (1 << g.vertex_count) - 1):
        raise InputError("maximin shares are defined on connected item graphs only")


def mms_values_raw(
    g: ItemGraph,
    weight_rows: Sequence[Sequence[Fraction]],
    parts: int,
) -> tuple[Fraction, ...]:
    """Max-over-partitions min-part value for nonnegative rows on a connected graph.

    The oracle's share search for rows that need not come from an
    ``Instance``, such as trace replays on residual subtrees, where utility
    rows no longer sum to 1.  Each row is scaled once to its own integer
    grid, and ``_shares`` searches each distinct grid row once: one growth
    per row, whose recorded sets every probe of the row's bisection filters.
    Every set the growth reaches, every set a probe's own growth would have
    reached, and every pick spends one unit of the default budget.  Entries go
    through ``_as_fraction``, as ``Instance`` rows do; a part count that is
    not an int of at least 1, or a row that is not a sequence, has the wrong
    length or has a negative entry, is an ``InputError``.

    >>> from graphfair.graphs import ItemGraph
    >>> path = ItemGraph(("a", "b", "c"), ((0, 1), (1, 2)))
    >>> mms_values_raw(path, [(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))], 2)
    (Fraction(1, 2),)
    """
    if not (isinstance(parts, int) and parts >= 1):
        raise InputError(f"part count must be an int >= 1, got {parts!r}")
    m = g.vertex_count
    try:
        rows = [tuple(map(_as_fraction, row)) for row in weight_rows]
    except TypeError:  # the rows, or one of them, are not iterable
        raise InputError("weight rows must be sequences of rationals") from None
    _require_connected(g)
    if parts > m:
        if rows:
            raise InputError(
                f"the graph admits no partition into {parts} connected parts"
            )
        return ()
    scales, grid = integer_grid(rows)
    # checked on the grid, where ints compare far faster than Fractions
    if any(len(row) != m or min(row) < 0 for row in grid):
        raise InputError(f"each weight row needs {m} nonnegative entries")
    with _bounded(None) as counter:
        shares = _shares(g, grid, parts, counter)
    return tuple(Fraction(shares[row], scale) for row, scale in zip(grid, scales))


def _shares(
    g: ItemGraph,
    grid: Sequence[tuple[int, ...]],
    parts: int,
    counter: _NodeCounter,
) -> dict[tuple[int, ...], int]:
    """Each distinct grid row's maximin share, keyed by row.

    On a connected graph a row's share is at least x exactly when ``parts``
    pairwise disjoint connected bundles each worth at least x exist: the
    items left over form components, each touches some bundle, and merging
    it into that bundle lowers no value.  So the share is 0 or the value of
    a connected set in (0, L // parts], L being the row's total.  One growth
    per distinct row, at L // parts + 1, records every set it reaches; its
    values below that threshold are the candidate shares.  A bisection over
    them packs ``parts`` minimal bundles at each probed value with the bundle
    search's DFS, taking the bundles from ``_filter_candidates`` on the
    records, and a probe that succeeds moves the bisection past the smallest
    value it picked.  One connectivity memo serves every row and probe.

    The records and the memo stay on ``counter`` for the rest of the solve:
    they answer ``_filter_candidates`` for any x <= L // parts + 1, the
    shares included.  There are at most as many records as units of
    ``counter`` spent.
    """
    records = counter.records
    one_type = (0,) * parts
    shares: dict[tuple[int, ...], int] = {}
    for row in grid:
        if row in shares:
            continue
        cap = sum(row) // parts + 1
        grown = records[row] = _record_growth(g, row, cap, counter)
        values = sorted({value for _, value, _ in grown if 0 < value < cap})
        best = 0
        lo, hi = 0, len(values) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            bundles = _filter_candidates(g, row, grown, values[mid], counter)
            picked = _pack([bundles], one_type, counter)
            if picked is None:
                hi = mid - 1
            else:
                best = min(_mask_value(row, mask) for mask in picked)
                lo = bisect_right(values, best)
        shares[row] = best
    return shares


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
    """Exhaustive decision: does an allocation meeting every maximin share exist?

    The bundle search at the shares is ``_search_thresholds``, which filters
    the share search's recorded growths and spends what growing would.
    """
    # a bad budget is reported first, then input errors, then the size limits
    _checked_budget(budget)
    _require_partitionable(inst)
    with _bounded(budget, inst) as counter:
        values = oracle_mms_values(inst, budget, counter)
        masks = _search_thresholds(inst, values, counter)
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
    agents and their maximum-value parts.  A part that is nobody's favorite
    leaves no perfect matching, so ``_lex_smallest_perfect`` rejects it.
    """
    n = inst.agent_count
    with _bounded(budget, inst) as counter:
        _, weights = inst.grid
        table: dict[int, tuple[int, ...]] = {}
        for partition in enumerate_connected_partitions(inst.graph, n):
            counter.spend()
            value = list(
                zip(*(_part_values(table, weights, part) for part in partition))
            )
            favorite = [max(row) for row in value]
            adj = [
                [p for p in range(n) if value[i][p] == favorite[i]] for i in range(n)
            ]
            assignment = _lex_smallest_perfect(adj)
            if assignment is not None:
                witness = _masks_to_allocation(partition[p] for p in assignment)
                return make_report(inst, "oracle", witness)
    return make_report(inst, "oracle", None)
