"""Metamorphic relations: answers that must agree where the oracle cannot check.

Each test changes an instance in a way whose effect on the answer is known
(relabel the items, add an edge, ask a weaker problem) and compares the
answers before and after, so it reaches sizes and routes the exhaustive
oracle's cross-checks do not.  Every draw is seeded.
"""

import random
from itertools import combinations

from graphfair import BudgetExceeded, Instance, ItemGraph, OracleBudget, dispatch
from graphfair.cli import _mms_values
from graphfair.generators import gen_random
from graphfair.oracle import oracle_mms_exists

PROBLEMS = ("prop", "ef-complete", "mms")


def relabeled(inst, perm):
    """The instance with item v moved to index ``perm[v]``, label and utilities too."""
    g = inst.graph
    labels = [None] * g.vertex_count
    for v, label in enumerate(g.labels):
        labels[perm[v]] = label
    edges = tuple((perm[a], perm[b]) for a, b in g.edges)
    rows = []
    for row in inst.utilities:
        moved = [None] * len(row)
        for v, value in enumerate(row):
            moved[perm[v]] = value
        rows.append(tuple(moved))
    return Instance(ItemGraph(tuple(labels), edges), inst.agent_names, tuple(rows))


def with_edge(inst, edge):
    g = inst.graph
    return Instance(ItemGraph(g.labels, g.edges + (edge,)), inst.agent_names, inst.utilities)


def outcome(inst, problem):
    """The decision and quotas of a solve, or the budget's refusal."""
    try:
        report = dispatch(inst, problem)
    except BudgetExceeded:
        return "budget"
    return report.decision, report.quotas


def test_two_agents_always_have_a_maximin_share_allocation():
    # Cut and choose: the second agent takes the better of the first
    # agent's maximin parts, worth at least 1/2 to her, so the answer is
    # yes on every connected graph, above the default size limit too.
    budget = OracleBudget(max_items=14)
    for seed in range(40):
        for cls in ("cycle", "connected"):
            inst = gen_random(seed + 5100, cls, 11 + seed % 4, 2)
            assert oracle_mms_exists(inst, budget).decision, (seed, cls)


def test_relabeling_leaves_every_answer_unchanged():
    rng = random.Random(2828)
    decided = 0
    for cls, sizes, count in (
        ("tree", (20, 40), 12),
        ("star", (20, 40), 12),
        ("path", (20, 40), 12),
        ("cycle", (4, 9), 12),
        ("connected", (4, 9), 12),
    ):
        for k in range(count):
            m = rng.randint(*sizes)
            n = rng.randint(2, 4)
            inst = gen_random(k + 7300, cls, m, n, types=rng.randint(1, 3))
            perm = list(range(m))
            rng.shuffle(perm)
            moved = relabeled(inst, perm)
            for problem in PROBLEMS:
                before = outcome(inst, problem)
                assert outcome(moved, problem) == before, (cls, k, problem)
                decided += before != "budget"
    # ef-complete on the 24 trees and stars, none a path, goes to the
    # oracle, which refuses 20 items or more; the other 156 solves decide
    assert decided == 156


def test_adding_an_edge_keeps_yes_and_raises_no_share():
    # An extra edge keeps every bundle connected, so a prop or ef-complete
    # witness stays one, and every connected partition stays one, so no
    # maximin share falls.  A tree plus an edge leaves the tree solvers
    # for the oracle, so the two answers come from different routes.
    rng = random.Random(4646)
    graphs = yes = 0
    for cls in ("cycle", "connected", "tree", "path"):
        for k in range(40):
            inst = gen_random(k + 8800, cls, rng.randint(4, 9), rng.randint(2, 3))
            g = inst.graph
            missing = [e for e in combinations(range(g.vertex_count), 2) if e not in g.edges]
            if not missing:
                continue  # a complete graph takes no further edge
            denser = with_edge(inst, rng.choice(missing))
            graphs += 1
            for problem in ("prop", "ef-complete"):
                if dispatch(inst, problem).decision:
                    yes += 1
                    assert dispatch(denser, problem).decision, (cls, k, problem)
            before, after = _mms_values(inst, None)[1], _mms_values(denser, None)[1]
            assert all(a >= b for a, b in zip(after, before)), (cls, k)
    assert graphs > 150 and yes > 100


def test_ef_path_yes_implies_path_dp_yes():
    # A complete envy-free allocation gives each agent a bundle she values
    # at least as much as each of the n bundles, so at least 1/n.
    rng = random.Random(5757)
    ef_yes = 0
    for k in range(200):
        inst = gen_random(k + 9900, "path", rng.randint(20, 40), rng.randint(2, 4),
                          types=rng.randint(1, 2))
        if dispatch(inst, "ef-complete", method="ef-path").decision:
            ef_yes += 1
            assert dispatch(inst, "prop", method="path-dp").decision, k
    assert ef_yes > 20
