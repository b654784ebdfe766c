"""Maximin-share computation and allocation on trees.

A maximin share is a binary search over the agent's integer value grid.  A
probe q is decided by one postorder sweep that cuts a vertex off, with the
uncut weight of its children, once that weight reaches q (Perl and Schach,
"Max-min tree partitioning", JACM 1981); with nonnegative weights, n
connected parts all worth at least q exist iff there are at least n cuts.
The search runs over [0, L // n] on a grid of scale L, since n parts worth
at least q each sum to at most L; a sweep stops at its n-th cut and the
search jumps up to the least part of the split that cut completes.  A
sweep that ends short of n cuts lowers the upper end to the largest total
it added into a parent's slot: every probe above that total and at most q
sweeps the same way and fails too.  Agents of one type share one search.

The allocator peels subtrees in one postorder sweep with the probe's idiom:
each claimant, an agent not yet served whose quota is above 0, copies her
row, and each vertex that nobody takes adds its total into its parent's
slot.  At each vertex the first claimant, in agent order, whose total meets
her quota takes the vertex's residual subtree, which is inclusion-minimal
for every claimant.  Peeling minimal subtrees never destroys feasibility
for the others, so with quotas set to the agents' maximin shares the peel
always ends in a full allocation.  A vertex that satisfies nobody never
does later, as claimants only leave and its subtree does not change, so
the sweep looks at each vertex once.

Shares and peel run on one view of the tree rooted at vertex 0 and on each
agent's integer grid from ``Instance.grid``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

# ``classify`` stays bound here because bench/tracer.py wraps ``mms_tree.classify``;
# ``root_tree`` does the tree check itself.
from .graphs import RootedTreeView, classify, root_tree  # noqa: F401
from .model import (
    Allocation,
    InputError,
    Instance,
    ItemGraph,
    Record,
    SolveReport,
    _as_fraction,
    at_least,
    compute_type_partition,
    make_report,
)
from .serialize import rational_to_str

__all__ = [
    "DiminisherRound",
    "DiminisherTrace",
    "allocate_with_quotas",
    "mms_value_tree",
    "mms_values_tree",
    "solve_mms_tree",
]


class DiminisherRound(Record):
    """One peeling step: who moved, what was taken, from which residual.

    ``vertex`` is the root of the subtree taken, or None for an award of the
    whole residual or of nothing.
    """

    _fields = ("agent", "vertex", "awarded", "residual_before")

    def __init__(self, agent: int, vertex: Optional[int], awarded: frozenset[int],
                 residual_before: frozenset[int]):
        self.__dict__.update(agent=agent, vertex=vertex, awarded=awarded,
                             residual_before=residual_before)


class DiminisherTrace(Record):
    """The quotas of one peel and its rounds in order."""

    _fields = ("quotas", "rounds")

    def __init__(self, quotas: tuple[Fraction, ...], rounds: tuple[DiminisherRound, ...]):
        self.__dict__.update(quotas=quotas, rounds=rounds)

    def to_dict(self, labels: Sequence[str]) -> dict:
        return {
            "quotas": [rational_to_str(q) for q in self.quotas],
            "rounds": [
                {
                    "agent": r.agent,
                    "vertex": None if r.vertex is None else labels[r.vertex],
                    "awarded": sorted(labels[v] for v in r.awarded),
                    "residual_before": sorted(labels[v] for v in r.residual_before),
                }
                for r in self.rounds
            ],
        }


def allocate_with_quotas(
    inst: Instance, quotas: Sequence[Fraction]
) -> Optional[tuple[Allocation, DiminisherTrace]]:
    """Connected bundles giving each agent at least her quota, or None.

    The item graph must be a tree.  Failure is honest only when the quotas
    are simultaneously satisfiable by no peeling order; with maximin-share
    quotas the call always succeeds.

    Quotas are read as exact rationals; quota q goes onto its agent's grid
    of scale L as ``at_least(q, L)``.  One postorder sweep looks at each
    vertex once.  Each claimant, a remaining agent whose quota is above 0,
    copies her row with a spare slot for the root's parent -1, and a vertex
    nobody takes adds its total into its parent's slot, so her total at v
    is v's subtree value in the residual.  The first claimant in agent order
    whose total meets her quota takes that subtree: the last ``size[v]``
    vertices swept and not yet awarded.  A vertex that fails fails for good,
    since claimants only leave and its subtree does not change.  Before the
    sweep and after each award, the call returns None if an agent values the
    residual below her quota, the last agent takes the whole residual, and
    the lowest agent steps aside with nothing if her quota is 0 or less.
    """
    view = _rooted_tree(inst.graph)
    n = inst.agent_count
    try:
        quotas = tuple(map(_as_fraction, quotas))
    except TypeError:  # None or another non-iterable
        raise InputError("quotas must be a sequence of rationals") from None
    if len(quotas) != n:
        raise InputError("one quota per agent is required")
    scales, rows = inst.grid
    need = [at_least(q, scale) for q, scale in zip(quotas, scales)]
    left = [sum(row) for row in rows]  # each claimant's value of the residual
    claimants = [(j, need[j], [*rows[j], 0]) for j in range(n) if need[j] > 0]
    size = [1] * inst.item_count + [0]  # residual subtree sizes
    sweep = iter(view.postorder)
    swept: list[int] = []  # swept and not yet awarded, in postorder
    remaining = list(range(n))
    awards: list[tuple[int, Optional[int], frozenset[int]]] = []
    while remaining:
        # an agent who is no claimant needs 0 or less and cannot fall short
        if any(left[j] < q for j, q, _ in claimants):
            return None
        i = remaining[0]
        if len(remaining) == 1:
            awards.append((i, None, frozenset(swept).union(sweep)))
            break
        if need[i] <= 0:
            # nothing to claim: step aside so agents still needing value
            # race for minimal subtrees undisturbed
            awards.append((remaining.pop(0), None, frozenset()))
            continue
        # The first qualifying subtree is inclusion-minimal for every
        # claimant, and the root qualifies: each values it at her quota.
        for v in sweep:
            swept.append(v)
            k = next((k for k, (_, q, t) in enumerate(claimants) if t[v] >= q), -1)
            if k >= 0:
                break
            u = view.parent[v]
            for _, _, total in claimants:
                total[u] += total[v]
            size[u] += size[v]
        winner = claimants.pop(k)[0]
        for j, _, total in claimants:
            left[j] -= total[v]
        awards.append((winner, v, frozenset(swept[-size[v] :])))
        del swept[-size[v] :]
        remaining.remove(winner)
    bundles, rounds = [frozenset()] * n, []
    residual = frozenset(range(inst.item_count))
    for i, v, awarded in awards:
        bundles[i] = awarded
        rounds.append(DiminisherRound(i, v, awarded, residual))
        residual -= awarded
    return Allocation(tuple(bundles)), DiminisherTrace(quotas, tuple(rounds))


@lru_cache(maxsize=1)
def _rooted_tree(graph: ItemGraph) -> RootedTreeView:
    """``graph`` rooted at vertex 0; ``root_tree`` rejects a graph that is not a tree.

    ``solve_mms_tree`` asks ``mms_value_tree`` for one agent type's share
    after another on the same graph and then peels with
    ``allocate_with_quotas``; keeping the last graph's view lets the binary
    searches and the peel share one ``root_tree``.  The view is immutable
    and only one is kept.
    """
    return root_tree(graph, 0)


def mms_value_tree(inst: Instance, agent: int) -> Fraction:
    """Exact maximin share of one agent over connected n-partitions of a tree.

    The agent's row of ``Instance.grid`` sums to her scale L, and her share
    is q / L for the largest int q such that the tree splits into n connected
    parts each worth at least q.  That test is monotone in q and decided by
    counting greedy postorder cuts, so a binary search finds q exactly.  It
    searches [0, L // n]: n parts worth at least q sum to at most L.

    A probe copies the row once and adds each uncut vertex's total into its
    parent's slot.  It stops at the n-th cut: the first n - 1 cuts and the
    rest of the tree, which holds the root and is worth at least that cut,
    are n connected parts, so the least of them is feasible and at least the
    probe, and the search raises its lower end to it.  A probe q that ends
    short of n cuts lowers the upper end to a, the largest total it added
    into a parent's slot, the root's into the spare slot included.  That is
    exact: at any q' with a < q' <= q each absorbed total stays below q' and
    each cut total at or above it, so every vertex takes the same branch, the
    sweep makes the same cuts and fails too.

    >>> path = ItemGraph(("a", "b", "c", "d"), ((0, 1), (1, 2), (2, 3)))
    >>> row = (Fraction(1, 2), Fraction(1, 6), Fraction(1, 6), Fraction(1, 6))
    >>> inst = Instance(path, ("x", "y"), (row, row))
    >>> mms_value_tree(inst, 0)
    Fraction(1, 2)
    """
    view = _rooted_tree(inst.graph)
    n = inst.agent_count
    if not isinstance(agent, int):
        raise InputError(f"agent index {agent!r} is not an int")
    if not 0 <= agent < n:
        raise InputError(f"agent {agent} outside 0..{n - 1}")
    if inst.item_count < n:
        raise InputError("fewer items than agents: no complete connected partition")
    scale, weights = inst.grid[0][agent], inst.grid[1][agent]
    postorder, parent = view.postorder, view.parent

    lo, hi = 0, scale // n  # a split into n parts worth 0 always exists
    while lo < hi:
        q = (lo + hi + 1) // 2
        uncut = [*weights, 0]  # the root adds into the spare slot, parent -1
        cuts = taken = absorbed = 0
        least = scale  # the least cut total so far
        for v in postorder:
            total = uncut[v]
            if total < q:
                uncut[parent[v]] += total
                if total > absorbed:
                    absorbed = total
            elif cuts < n - 1:
                cuts += 1
                taken += total
                least = min(least, total)
            else:
                lo = min(least, scale - taken)
                break
        else:
            hi = absorbed  # every probe in (absorbed, q] makes these cuts and fails
    return Fraction(lo, scale)


def mms_values_tree(inst: Instance) -> tuple[Fraction, ...]:
    """Every agent's ``mms_value_tree``, one search per agent type.

    Agents of one type have equal utilities and so equal shares; each
    type's search runs at its first member.  The search is called through
    this module's global name, which is where bench/tracer.py wraps it.

    >>> star = ItemGraph(("c", "x", "y"), ((0, 1), (0, 2)))
    >>> even = (Fraction(1, 3),) * 3
    >>> on_x = (Fraction(0), Fraction(1), Fraction(0))
    >>> mms_values_tree(Instance(star, ("a", "b", "c"), (even, on_x, even)))
    (Fraction(1, 3), Fraction(0, 1), Fraction(1, 3))
    """
    types = compute_type_partition(inst)
    shares = [mms_value_tree(inst, members[0]) for members in types.members]
    return tuple(shares[t] for t in types.type_of_agent)


def solve_mms_tree(inst: Instance) -> SolveReport:
    """Maximin-share allocation on a tree; on trees one always exists."""
    quotas = mms_values_tree(inst)
    out = allocate_with_quotas(inst, quotas)
    if out is None:  # pragma: no cover - contradicts the peeling guarantee
        raise RuntimeError("peeling failed with maximin quotas on a tree")
    alloc, _ = out
    return make_report(inst, "mms-tree", alloc, quotas=quotas)
