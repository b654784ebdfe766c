"""Maximin-share computation and allocation on trees.

A maximin share is a binary search over the agent's integer value grid.  A
probe q is decided by one postorder sweep that cuts a vertex off, with the
uncut weight of its children, once that weight reaches q (Perl and Schach,
"Max-min tree partitioning", JACM 1981); with nonnegative weights, n
connected parts all worth at least q exist iff there are at least n cuts.

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
    make_report,
)
from .serialize import rational_to_str

__all__ = [
    "DiminisherRound",
    "DiminisherTrace",
    "allocate_with_quotas",
    "mms_value_tree",
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

    ``solve_mms_tree`` asks ``mms_value_tree`` for one agent's share after
    another on the same graph and then peels with ``allocate_with_quotas``;
    keeping the last graph's view lets the n binary searches and the peel
    share one ``root_tree``.  The view is immutable and only one is kept.
    """
    return root_tree(graph, 0)


def mms_value_tree(inst: Instance, agent: int) -> Fraction:
    """Exact maximin share of one agent over connected n-partitions of a tree.

    The agent's row of ``Instance.grid`` sums to her scale L.  Whether the
    tree splits into n connected parts each worth at least q is monotone in
    q and decided by counting greedy postorder cuts, so a binary search over
    q in [0, L] finds the share exactly.
    """
    view = _rooted_tree(inst.graph)
    n = inst.agent_count
    if not 0 <= agent < n:
        raise InputError(f"agent {agent} outside 0..{n - 1}")
    if inst.item_count < n:
        raise InputError("fewer items than agents: no complete connected partition")
    scale, weights = inst.grid[0][agent], inst.grid[1][agent]
    children = view.children

    def feasible(q: int) -> bool:
        uncut = [0] * inst.item_count
        cuts = 0
        for v in view.postorder:
            total = weights[v] + sum(uncut[c] for c in children[v])
            if total >= q:
                cuts += 1
            else:
                uncut[v] = total
        return cuts >= n

    lo, hi = 0, scale  # feasible(0) always; the total value is exactly scale
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if feasible(mid):
            lo = mid
        else:
            hi = mid - 1
    return Fraction(lo, scale)


def solve_mms_tree(inst: Instance) -> SolveReport:
    """Maximin-share allocation on a tree; on trees one always exists."""
    quotas = tuple(mms_value_tree(inst, i) for i in range(inst.agent_count))
    out = allocate_with_quotas(inst, quotas)
    if out is None:  # pragma: no cover - contradicts the peeling guarantee
        raise RuntimeError("peeling failed with maximin quotas on a tree")
    alloc, _ = out
    return make_report(inst, "mms-tree", alloc, quotas=quotas)
