"""Maximin-share computation and allocation on trees.

A maximin share is a binary search over the agent's integer value grid.  A
probe q is decided by one postorder sweep that cuts a vertex off, with the
uncut weight of its children, once that weight reaches q (Perl and Schach,
"Max-min tree partitioning", JACM 1981); with nonnegative weights, n
connected parts all worth at least q exist iff there are at least n cuts.
The search runs over [0, L // n] on a grid of scale L, since n parts worth
at least q each sum to at most L; a sweep stops at its n-th cut and the
search jumps to the least part of the split that cut completes.  Agents
of one type share one search.

The allocator is a last-diminisher loop: the lowest-indexed remaining agent
walks the residual tree in postorder and takes the first subtree worth her
quota, which is automatically inclusion-minimal among qualifying subtrees.
Peeling minimal subtrees never destroys feasibility for the others, so with
quotas set to the agents' maximin shares the loop always terminates with a
full allocation.

Shares and peel run on one view of the tree rooted at vertex 0 and on each
agent's integer grid from ``Instance.grid``; each award is a contiguous run
of the residual postorder, so no round roots the tree again.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    SolveReport,
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


@dataclass(frozen=True)
class DiminisherRound:
    """One peeling step: who moved, what was taken, from which residual."""

    agent: int
    vertex: Optional[int]  # subtree root taken; None for whole-residual/empty awards
    awarded: frozenset[int]
    residual_before: frozenset[int]


@dataclass(frozen=True)
class DiminisherTrace:
    quotas: tuple[Fraction, ...]
    rounds: tuple[DiminisherRound, ...]

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

    Quota q goes onto its agent's grid of scale L as ``at_least(q, L)``.
    Every award is a whole subtree of the residual, so the residual keeps
    vertex 0 as its root until it is awarded whole, and its postorder is the
    postorder of ``_rooted_tree`` with the awarded runs cut out.  A round
    walks that list once, taking each subtree size from the children and
    each claimant's subtree sum as a difference of her prefix sums.
    """
    view = _rooted_tree(inst.graph)
    n = inst.agent_count
    if len(quotas) != n:
        raise InputError("one quota per agent is required")
    scales, rows = inst.grid
    need = [at_least(q, scale) for q, scale in zip(quotas, scales)]
    left = [sum(row) for row in rows]  # each agent's value of the residual
    children = view.children
    post = list(view.postorder)  # the residual's postorder
    bundles: list[frozenset[int]] = [frozenset()] * n
    remaining = list(range(n))
    rounds: list[DiminisherRound] = []

    while remaining:
        for j in remaining:
            if left[j] < need[j]:
                return None
        residual = frozenset(post)
        if len(remaining) == 1:
            i = remaining.pop()
            rounds.append(DiminisherRound(i, None, residual, residual))
            bundles[i] = residual
            continue
        i = remaining[0]
        if need[i] <= 0:
            # nothing to claim: step aside so agents still needing value
            # race for minimal subtrees undisturbed
            remaining.pop(0)
            rounds.append(DiminisherRound(i, None, frozenset(), residual))
            continue
        # The first postorder vertex whose subtree satisfies any claimant is
        # an inclusion-minimal qualifying subtree for every one of them;
        # awarding a non-minimal subtree could swallow the only piece some
        # other agent can reach her quota with.
        claimants = [(j, rows[j], need[j], [0]) for j in remaining if need[j] > 0]
        size = [0] * inst.item_count  # residual subtree sizes
        winner = -1
        for pos, v in enumerate(post):
            s = 1
            for c in children[v]:
                s += size[c]
            size[v] = s
            start = pos + 1 - s
            for j, row, q, prefix in claimants:
                total = prefix[-1] + row[v]
                prefix.append(total)
                if total - prefix[start] >= q:
                    winner = j
                    break
            if winner >= 0:
                break
        assert winner >= 0  # the root qualifies
        awarded = post[start : pos + 1]
        del post[start : pos + 1]
        for j in remaining:
            left[j] -= sum(rows[j][u] for u in awarded)
        bundles[winner] = frozenset(awarded)
        rounds.append(DiminisherRound(winner, v, bundles[winner], residual))
        remaining.remove(winner)
    trace = DiminisherTrace(tuple(Fraction(q) for q in quotas), tuple(rounds))
    return Allocation(tuple(bundles)), trace


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
    probe, and the search raises its lower end to it.

    >>> path = ItemGraph(("a", "b", "c", "d"), ((0, 1), (1, 2), (2, 3)))
    >>> row = (Fraction(1, 2), Fraction(1, 6), Fraction(1, 6), Fraction(1, 6))
    >>> inst = Instance(path, ("x", "y"), (row, row))
    >>> mms_value_tree(inst, 0)
    Fraction(1, 2)
    """
    view = _rooted_tree(inst.graph)
    n = inst.agent_count
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
        cuts = taken = 0
        least = scale  # the least cut total so far
        for v in postorder:
            total = uncut[v]
            if total < q:
                uncut[parent[v]] += total
            elif cuts < n - 1:
                cuts += 1
                taken += total
                least = min(least, total)
            else:
                lo = min(least, scale - taken)
                break
        else:
            hi = q - 1
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
