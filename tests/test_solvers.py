"""Polynomial solvers: frozen examples, DP invariants, and routing."""

import argparse
import gc
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

import graphfair
from graphfair import (
    BudgetExceeded,
    InputError,
    OracleBudget,
    bundle_value,
    dispatch,
    ef_path_typed,
    is_complete,
    is_envy_free,
    is_proportional,
    is_valid,
    oracle_ef_complete,
    oracle_mms_values,
    oracle_prop,
    prop_path_greedy,
    prop_path_typed,
    prop_star,
    prop_tree_fpt,
)
from graphfair.cli import build_parser
from graphfair.generators import RANDOM_CLASSES, fixture_cycle8, gen_random
from graphfair.graphs import _mask_bits, classify, root_tree
from graphfair.model import (
    Allocation,
    Instance,
    ItemGraph,
    at_least,
    compute_type_partition,
)
from graphfair.serialize import dumps, instance_to_dict
from graphfair.solvers import (
    METHODS,
    _tiling_allocation,
    _tree_dp_run,
    _typed_path_setup,
    path_order,
    select_method,
)

from conftest import (
    DIFFERENTIAL,
    cycle_graph,
    mk,
    path_graph,
    path_instances,
    star_graph,
    tree_instances,
)


def broom_graph():
    """A tree that is neither a path nor a star."""
    return ItemGraph(("a", "b", "c", "d", "e"), ((0, 1), (1, 2), (2, 3), (2, 4)))


# ---------------------------------------------------------------------------
# stars


def test_star_two_agents_canonical_witness():
    inst = mk(star_graph(2), ("0", "1/2", "1/2"), ("0", "1/2", "1/2"))
    rep = prop_star(inst)
    assert rep.decision and rep.method == "star"
    assert rep.witness.bundles == (frozenset({0, 2}), frozenset({1}))


def test_star_single_agent_whole_graph():
    inst = mk(star_graph(4), ("1/5",) * 5)
    rep = prop_star(inst)
    assert rep.decision
    assert rep.witness.bundles == (frozenset(range(5)),)


def test_star_contested_leaf():
    row = ("0", "1", "0")
    inst = mk(star_graph(2), row, row, row)
    rep = prop_star(inst)
    assert not rep.decision and rep.witness is None


def test_star_with_three_hundred_leaves():
    # Each agent values two leaves at 1/3 and spreads 1/3 over the other 298.
    leaves = 300
    rows = []
    for a in range(3):
        favorites = (2 * a + 1, 2 * a + 2)
        rows.append(
            [0]
            + [
                Fraction(1, 3) if v in favorites else Fraction(1, 3 * (leaves - 2))
                for v in range(1, leaves + 1)
            ]
        )
    inst = mk(star_graph(leaves), *rows)
    rep = prop_star(inst)
    assert rep.decision
    assert is_valid(inst, rep.witness) and is_proportional(inst, rep.witness)


def test_star_witness_takes_cheap_leaves_by_augmenting_paths():
    # Agents 1 and 3 are identical.  With agent 2 on the center, leaf v1
    # (worth 0 to agent 2) goes to agent 1 first; v3 is then admitted through
    # agent 1, who moves to it, and agent 3 takes v1.
    inst = gen_random(seed=26, cls="star", m=4, n=3, denom_bound=6, types=2)
    rep = prop_star(inst)
    assert rep.decision
    assert rep.witness.bundles == (frozenset({2}), frozenset({1, 3}), frozenset({0}))


def test_star_rejects_non_star():
    inst = mk(path_graph(4), ("1/4",) * 4)
    with pytest.raises(InputError):
        prop_star(inst)


# ---------------------------------------------------------------------------
# paths, single type


def test_greedy_uniform_singletons():
    inst = mk(path_graph(4), *(("1/4",) * 4,) * 4)
    rep = prop_path_greedy(inst)
    assert rep.decision and rep.method == "greedy"
    assert rep.witness.bundles == tuple(frozenset({i}) for i in range(4))


def test_greedy_too_few_pieces():
    inst = mk(path_graph(2), *(("1/2", "1/2"),) * 3)
    rep = prop_path_greedy(inst)
    assert not rep.decision


def test_greedy_single_agent():
    inst = mk(path_graph(3), ("1/3", "1/3", "1/3"))
    rep = prop_path_greedy(inst)
    assert rep.decision
    assert rep.witness.bundles == (frozenset({0, 1, 2}),)


def greedy_reference(inst):
    """The left-to-right ``Fraction`` sweep: close a piece once it is worth 1/n.

    n closed pieces make a yes; the first n-1 go to agents 0..n-2 and the
    last agent takes the rest of the path.  Returns the witness or None.
    """
    n = inst.agent_count
    share = Fraction(1, n)
    row = inst.utilities[0]
    pieces, current, acc = [], [], Fraction(0)
    for v in path_order(inst):
        current.append(v)
        acc += row[v]
        if acc >= share:
            pieces.append(current)
            current, acc = [], Fraction(0)
    if len(pieces) < n:
        return None
    tail = [v for piece in pieces[n - 1 :] for v in piece] + current
    return Allocation(tuple(frozenset(p) for p in pieces[: n - 1]) + (frozenset(tail),))


def test_greedy_matches_fraction_sweep():
    rng = random.Random(2024)
    yes = 0
    for seed in range(600):
        inst = gen_random(seed=seed, cls="path", m=rng.randint(1, 14), n=rng.randint(1, 6),
                          denom_bound=rng.choice([2, 5, 10, 30]), types=1)
        expected = greedy_reference(inst)
        rep = prop_path_greedy(inst)
        assert rep.method == "greedy"
        assert rep.decision == (expected is not None)
        assert rep.witness == expected
        if expected is None:
            assert rep.achieved is None
        else:
            assert rep.achieved == tuple(
                bundle_value(inst, i, b) for i, b in enumerate(expected.bundles)
            )
        yes += rep.decision
    assert 100 < yes < 500  # both answers are well represented


def test_greedy_preconditions():
    with pytest.raises(InputError):
        prop_path_greedy(mk(path_graph(2), ("1", "0"), ("0", "1")))  # two types
    with pytest.raises(InputError):
        prop_path_greedy(mk(star_graph(3), ("1/4",) * 4))  # not a path


# ---------------------------------------------------------------------------
# paths, typed DP


def test_path_dp_two_identical_agents():
    inst = mk(path_graph(3), ("1/2", "0", "1/2"), ("1/2", "0", "1/2"))
    rep = prop_path_typed(inst)
    assert rep.decision and rep.method == "path-dp"
    assert rep.witness.bundles == (frozenset({0}), frozenset({1, 2}))


def test_path_dp_witness_breaks_ties_to_the_lower_type():
    # a2 and a3 both accept v2 and v3 alone; walking back from v3, both can
    # cut the last piece at the same start, and the lower type takes it.
    inst = mk(path_graph(3), ("1", "0", "0"), ("0", "2/3", "1/3"), ("1/5", "2/5", "2/5"))
    rep = prop_path_typed(inst)
    assert rep.witness.bundles == (frozenset({0}), frozenset({2}), frozenset({1}))


def test_path_dp_on_a_thousand_items():
    inst = gen_random(0, "path", 1000, 10, 10, types=3)
    assert compute_type_partition(inst).type_count == 3
    rep = prop_path_typed(inst)
    assert rep.decision
    assert is_valid(inst, rep.witness) and is_proportional(inst, rep.witness)


def test_path_dp_rejects_cycle():
    inst = mk(cycle_graph(4), ("1/4",) * 4)
    with pytest.raises(InputError):
        prop_path_typed(inst)


def test_path_order_rejects_non_paths():
    spider = ItemGraph(tuple("abcdefg"), ((0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)))
    path_and_vertex = ItemGraph(tuple("abcde"), ((1, 2), (2, 3), (3, 4)))
    for graph in (spider, cycle_graph(5), path_and_vertex):
        row = (Fraction(1, graph.vertex_count),) * graph.vertex_count
        with pytest.raises(InputError, match="not a path"):
            path_order(mk(graph, row))
    single = mk(ItemGraph(("v",), ()), ("1",))
    assert path_order(single) == [0]
    # the walk starts at the lower end, whatever the labels' order
    bent = ItemGraph(tuple("abcd"), ((0, 2), (1, 3), (2, 3)))
    assert path_order(mk(bent, ("1/4",) * 4)) == [0, 2, 3, 1]


# Smallest work budgets that let the path solvers decide.  The path DP pays
# for its whole table, one unit per count vector and type, before it fills
# it; ef-path pays, at each position, for the pieces of every state there.
@pytest.mark.parametrize("solver, args, least", [
    (prop_path_typed, (1, "path", 60, 16), 2**16 * 16),
    (prop_path_typed, (0, "path", 1000, 10, 10, 3), 225),
    (prop_path_greedy, (0, "path", 20, 5, 10, 1), 6),
    (ef_path_typed, (0, "path", 40, 4, 10, 2), 2_170),
    (ef_path_typed, (2, "path", 20, 6, 10), 36_564),
])
def test_path_budget_spend_is_pinned(solver, args, least):
    inst = gen_random(*args)
    solver(inst, OracleBudget(max_enumerated=least))
    with pytest.raises(BudgetExceeded):
        solver(inst, OracleBudget(max_enumerated=least - 1))


def test_path_solvers_spend_the_work_budget():
    # Each path route takes its budget from dispatch.
    uniform = mk(path_graph(4), *(("1/4",) * 4,) * 2)
    typed = gen_random(0, "path", 40, 4, 10, types=2)
    tiny = OracleBudget(max_enumerated=2)
    for inst, problem, method in (
        (uniform, "prop", "greedy"),
        (typed, "prop", "path-dp"),
        (typed, "ef-complete", "ef-path"),
    ):
        assert dispatch(inst, problem).method == method
        with pytest.raises(BudgetExceeded):
            dispatch(inst, problem, budget=tiny)


@settings(DIFFERENTIAL, max_examples=300)
@given(path_instances(max_items=9, max_types=3))
def test_path_solvers_match_oracle(inst):
    expected = oracle_prop(inst).decision
    solvers = [prop_path_typed]
    if compute_type_partition(inst).type_count == 1:
        solvers.append(prop_path_greedy)
    for solve in solvers:
        rep = solve(inst)
        assert rep.decision == expected
        if rep.decision:
            assert is_valid(inst, rep.witness)
            assert is_proportional(inst, rep.witness)


def test_path_dp_matches_greedy_on_uniform():
    inst = mk(path_graph(4), *(("1/4",) * 4,) * 4)
    rep = prop_path_typed(inst)
    assert rep.decision == prop_path_greedy(inst).decision == True  # noqa: E712
    assert is_proportional(inst, rep.witness)


def test_path_witnesses_tile_the_whole_path():
    """Every yes-witness of both path solvers hands out every item."""
    rng = random.Random(2929)
    yes = 0
    for trial in range(300):
        n = rng.randint(1, 6)
        types = rng.choice((None, 1, 2, 3))
        inst = gen_random(seed=trial + 29000, cls="path", m=rng.randint(1, 40), n=n,
                          types=types)
        solvers = [prop_path_typed]
        if compute_type_partition(inst).type_count == 1:
            solvers.append(prop_path_greedy)
        for solver in solvers:
            rep = solver(inst)
            if rep.decision:
                yes += 1
                assert is_proportional(inst, rep.witness), (solver, inst)
                assert is_complete(inst, rep.witness), (solver, inst)
    assert yes >= 150


# ---------------------------------------------------------------------------
# trees


def test_tree_fpt_single_agent():
    inst = mk(broom_graph(), ("1/5",) * 5)
    rep = prop_tree_fpt(inst)
    assert rep.decision and rep.method == "tree-fpt"
    assert rep.witness.bundles == (frozenset(range(5)),)


def test_tree_fpt_rejects_cycle():
    with pytest.raises(InputError):
        prop_tree_fpt(mk(cycle_graph(3), ("1/3",) * 3))


def test_tree_fpt_agrees_with_star_solver():
    rng = random.Random(7777)
    for trial in range(200):
        n = rng.randint(1, 4)
        inst = gen_random(seed=trial + 7000, cls="star", m=rng.randint(2, 8), n=n)
        a = prop_star(inst)
        b = prop_tree_fpt(inst)
        assert a.decision == b.decision, inst
        for rep in (a, b):
            if rep.decision:
                assert is_valid(inst, rep.witness)
                assert is_proportional(inst, rep.witness)


def test_tree_fpt_agrees_with_path_solver():
    rng = random.Random(8888)
    for trial in range(200):
        n = rng.randint(1, 4)
        inst = gen_random(seed=trial + 8000, cls="path", m=rng.randint(2, 8), n=n,
                          types=rng.randint(1, n))
        a = prop_path_typed(inst)
        b = prop_tree_fpt(inst)
        assert a.decision == b.decision, inst
        for rep in (a, b):
            if rep.decision:
                assert is_proportional(inst, rep.witness)


@settings(DIFFERENTIAL, max_examples=300)
@given(tree_instances(max_items=9))
def test_prop_tree_and_star_match_oracle(inst):
    expected = oracle_prop(inst).decision
    solvers = [prop_tree_fpt] + ([prop_star] if classify(inst.graph).is_star else [])
    for solve in solvers:
        rep = solve(inst)
        assert rep.decision == expected
        if rep.decision:
            assert is_valid(inst, rep.witness)
            assert is_proportional(inst, rep.witness)


def test_tree_fpt_witness_on_tied_matching():
    # The arms v2-v3 and v4-v5 are each worth 1/2 to a2 and to a3, so the
    # root's fold ties between the two ways of handing them out.  The fold
    # keeps the first best split with the agents served before a child, as
    # a bitmask, descending: a3 (bit 4) stays with the earlier arm v2-v3,
    # and a2 takes the later arm v4-v5.
    graph = ItemGraph(
        tuple(f"v{i + 1}" for i in range(7)),
        ((0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)),
    )
    arms = ("0", "1/4", "1/4", "1/4", "1/4", "0", "0")
    inst = mk(graph, ("2/5",) + ("1/10",) * 6, arms, arms)
    rep = prop_tree_fpt(inst)
    assert rep.decision
    assert rep.witness.bundles == (
        frozenset({0, 5, 6}),
        frozenset({3, 4}),
        frozenset({1, 2}),
    )


@pytest.mark.parametrize("seed, m, n, options, bundles", [
    (15, 8, 5, {"denom_bound": 3}, ({0, 4, 7}, {2, 3}, {1}, {5}, {6})),
    (46, 7, 5, {"denom_bound": 3}, ({0, 4, 5}, {2}, {6}, {1}, {3})),
    (69, 7, 5, {"denom_bound": 3}, ({0, 1, 6}, {2}, {4}, {3}, {5})),
    (34, 9, 4, {"types": 2}, ({3}, {0, 2, 4, 5, 6}, {1, 8}, {7})),
])
def test_tree_fpt_witness_on_tied_root_partitions(seed, m, n, options, bundles):
    # The root has three or more children, and several splits of the agents
    # it serves among them reach the best entry.  The witness is the fold's
    # own choice: walking the children from last to first, each child serves
    # the agents that leave the numerically largest bitmask, among the best
    # splits, to the children before it.
    inst = gen_random(seed=seed, cls="tree", m=m, n=n, **options)
    assert inst.graph.degree(0) >= 3
    rep = prop_tree_fpt(inst)
    assert rep.decision
    assert rep.witness.bundles == tuple(frozenset(b) for b in bundles)


def test_tree_fpt_witness_realizes_the_dp():
    # Few denominators and few agent types make ties common.  On every yes,
    # the root owner's bundle is worth exactly the DP entry the decision
    # read, and every agent reaches 1/n on its own grid.
    rng = random.Random(1111)
    yes = 0
    for trial in range(320):
        n = rng.randint(2, 6)
        options = (
            {"denom_bound": rng.randint(2, 3)}
            if trial % 2
            else {"types": rng.randint(1, 2)}
        )
        inst = gen_random(seed=trial + 11000, cls=("tree", "star")[trial % 4 == 3],
                          m=rng.randint(2, 12), n=n, **options)
        rep = prop_tree_fpt(inst)
        if not rep.decision:
            continue
        yes += 1
        assert is_valid(inst, rep.witness)
        view, folds, _, _ = _tree_dp_run(inst)
        scales, grid = inst.grid
        values = [sum(grid[i][v] for v in b) for i, b in enumerate(rep.witness.bundles)]
        owner = next(i for i, b in enumerate(rep.witness.bundles) if view.root in b)
        others = ((1 << n) - 1) & ~(1 << owner)
        assert values[owner] == folds[view.root][owner][-1][others]
        for i in range(n):
            assert values[i] >= at_least(Fraction(1, n), scales[i])
    assert yes >= 100


def _submasks_reference(mask):
    """Every submask of ``mask``, from ``mask`` itself down to 0."""
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask
    yield 0


def tree_dp_reference(inst):
    """The subtree DP with a per-agent owner scan and a dict ``kept`` table.

    Returns ``folds``, ``cell`` and the witness (None for a no) of the fold
    that builds ``kept`` through ``cell`` for every T and walks submask
    generators, testing ``T in kept`` on each step; ``cell`` scans T for the
    lowest j who can own z's subtree, once per asking agent i.
    """
    g, n = inst.graph, inst.agent_count
    full = (1 << n) - 1
    view = root_tree(g, 0)
    scales, grid = inst.grid
    share = [at_least(Fraction(1, n), scale) for scale in scales]
    folds = [[None] * n for _ in range(g.vertex_count)]

    def cell(z, i, T):
        if folds[z][i][-1][T] is not None:
            return folds[z][i][-1][T], i
        for j in _mask_bits(T):
            sub = folds[z][j][-1][T & ~(1 << j)]
            if sub is not None and sub >= share[j]:
                return 0, j
        return None

    for v in view.postorder:
        for i in range(n):
            others = full & ~(1 << i)
            f = [None] * (full + 1)
            f[0] = grid[i][v]
            folds[v][i] = [f]
            for z in view.children[v]:
                kept = {
                    T: c[0]
                    for T in _submasks_reference(others)
                    if (c := cell(z, i, T)) is not None
                }
                folded = [None] * (full + 1)
                for A in _submasks_reference(others):
                    if f[A] is None:
                        continue
                    for T in _submasks_reference(others & ~A):
                        if T in kept and (
                            folded[A | T] is None or f[A] + kept[T] > folded[A | T]
                        ):
                            folded[A | T] = f[A] + kept[T]
                f = folded
                folds[v][i].append(f)

    kept = [folds[view.root][i][-1][full & ~(1 << i)] for i in range(n)]
    owner = next((i for i, k in enumerate(kept) if k is not None and k >= share[i]), None)
    if owner is None:
        return folds, cell, None
    bundles = [set() for _ in range(n)]
    stack = [(view.root, owner, full & ~(1 << owner))]
    while stack:
        v, i, S = stack.pop()
        bundles[i].add(v)
        kids, tables = view.children[v], folds[v][i]
        for k in reversed(range(len(kids))):
            z, before, after = kids[k], tables[k], tables[k + 1]
            for A in _submasks_reference(S):
                c = cell(z, i, S & ~A) if before[A] is not None else None
                if c is not None and before[A] + c[0] == after[S]:
                    break
            stack.append((z, c[1], S & ~A & ~(1 << c[1])))
            S = A
    return folds, cell, Allocation(tuple(frozenset(b) for b in bundles))


def test_tree_dp_matches_owner_scan_reference():
    # Denominators 2-3 and capped types make ties common, so the fold's
    # first-best rule and the walk back's first match decide the witness.
    rng = random.Random(212121)
    yes = 0
    for trial in range(1500):
        n = rng.randint(1, 6)
        inst = gen_random(seed=trial + 21000, cls=("tree", "star", "path")[trial % 3],
                          m=rng.randint(1, 12), n=n, denom_bound=rng.randint(2, 3),
                          types=rng.choice((None, 1, 2, 3)))
        folds, cell, witness = tree_dp_reference(inst)
        _, got, _, got_cell = _tree_dp_run(inst)
        assert got == folds, trial
        for z in range(inst.item_count):
            for i in range(n):
                for T in range(1 << n):
                    assert got_cell(z, i, T) == cell(z, i, T), (trial, z, i, T)
        assert prop_tree_fpt(inst).witness == witness, trial
        yes += witness is not None
    assert 300 < yes < 1300  # both answers are well represented


def test_tree_fpt_twelve_items_eight_agents():
    inst = gen_random(seed=0, cls="tree", m=12, n=8)
    rep = prop_tree_fpt(inst)
    assert rep.decision
    assert is_valid(inst, rep.witness)
    assert is_proportional(inst, rep.witness)


def test_tree_fpt_star_with_one_usable_root_partition():
    # Eight identical agents and seven leaves worth 1/8 each: at the root
    # each of the seven served agents needs one of those leaves to itself,
    # and the fold over 59 children and its walk back must find them among
    # 52 worthless leaves.
    row = ("1/8",) * 8 + ("0",) * 52
    inst = mk(star_graph(59), *(row,) * 8)
    rep = prop_tree_fpt(inst)
    assert rep.decision
    assert is_valid(inst, rep.witness)
    assert is_proportional(inst, rep.witness)


def test_tree_fpt_spends_the_work_budget():
    inst = gen_random(seed=4, cls="tree", m=10, n=6)
    assert select_method(inst, "prop").name == "tree-fpt"
    assert dispatch(inst, "prop").method == "tree-fpt"
    with pytest.raises(BudgetExceeded):
        dispatch(inst, "prop", budget=OracleBudget(max_enumerated=100))


# Smallest work budgets that let the tree DP decide; a change to what a fold
# spends, or to when, moves them.  The 13-agent tree needs more than the
# default budget of 5,000,000.
@pytest.mark.parametrize("seed, m, n, least", [
    (4, 10, 6, 5_296),
    (0, 12, 8, 34_528),
    (1, 13, 13, 7_862_528),
])
def test_tree_fpt_budget_spend_is_pinned(seed, m, n, least):
    inst = gen_random(seed=seed, cls="tree", m=m, n=n)
    assert prop_tree_fpt(inst, OracleBudget(max_enumerated=least)).decision
    with pytest.raises(BudgetExceeded):
        prop_tree_fpt(inst, OracleBudget(max_enumerated=least - 1))


def test_tree_fpt_leaves_no_reference_cycles():
    # A solve frees all it builds by reference counting alone, so the cyclic
    # collector finds nothing afterwards.
    inst = gen_random(seed=3, cls="tree", m=10, n=4)
    prop_tree_fpt(inst)
    gc.collect()
    gc.disable()
    try:
        prop_tree_fpt(inst)
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# envy-freeness on paths


def test_ef_path_two_item_examples():
    inst = mk(path_graph(2), ("1/2", "1/2"), ("1/2", "1/2"))
    rep = ef_path_typed(inst)
    assert rep.decision and rep.method == "ef-path"
    assert rep.witness.bundles == (frozenset({0}), frozenset({1}))
    assert rep.quotas == (Fraction(1, 2), Fraction(1, 2))

    inst = mk(path_graph(2), ("1", "0"), ("1", "0"))
    rep = ef_path_typed(inst)
    assert not rep.decision and rep.quotas is None


def test_ef_path_takes_the_smallest_guess_tuple():
    # a1 is indifferent between the cuts after v1, v2 and v3; a2 gets 7/8,
    # 5/8 and 7/8 from them, so the tuples (1/2, 7/8) and (1/2, 5/8) are both
    # feasible and the smaller one sets the quotas.
    inst = mk(path_graph(4), ("1/2", "0", "0", "1/2"), ("1/8", "1/4", "1/2", "1/8"))
    rep = ef_path_typed(inst)
    assert rep.quotas == (Fraction(1, 2), Fraction(5, 8))
    assert rep.witness.bundles == (frozenset({0, 1}), frozenset({2, 3}))


def test_ef_path_single_agent():
    inst = mk(path_graph(3), ("1/2", "1/4", "1/4"))
    rep = ef_path_typed(inst)
    assert rep.decision
    assert is_complete(inst, rep.witness) and is_envy_free(inst, rep.witness)


def test_ef_path_rejects_non_path():
    with pytest.raises(InputError):
        ef_path_typed(mk(star_graph(3), ("1/4",) * 4))


def test_ef_path_pieces_hit_their_guess():
    rng = random.Random(9999)
    hits = 0
    for trial in range(120):
        n = rng.randint(2, 4)
        inst = gen_random(seed=trial + 9000, cls="path", m=rng.randint(2, 7), n=n,
                          types=rng.randint(1, 2))
        rep = ef_path_typed(inst)
        assert rep.decision == oracle_ef_complete(inst).decision, inst
        if rep.decision:
            hits += 1
            assert is_envy_free(inst, rep.witness)
            assert is_complete(inst, rep.witness)
            for agent, bundle in enumerate(rep.witness.bundles):
                # every piece is nonempty, which is why no guess is ever 0
                assert bundle
                assert bundle_value(inst, agent, bundle) == rep.quotas[agent]
    assert hits >= 10


@settings(DIFFERENTIAL, max_examples=300)
@given(path_instances(max_items=8, max_types=3))
def test_ef_path_matches_oracle(inst):
    rep = ef_path_typed(inst)
    assert rep.decision == oracle_ef_complete(inst).decision
    if rep.decision:
        assert is_valid(inst, rep.witness)
        assert is_envy_free(inst, rep.witness) and is_complete(inst, rep.witness)


def test_ef_path_on_forty_items():
    # In the built instance every run of ten items is worth 1/4 to both
    # types, so four such runs are a complete envy-free allocation.
    m = 40
    even = tuple(Fraction(1 - v % 2, m // 2) for v in range(m))
    built = mk(path_graph(m), (Fraction(1, m),) * m, even, even, (Fraction(1, m),) * m)
    drawn = gen_random(0, "path", m, 4, 10, types=2)
    assert ef_path_typed(built).decision
    for inst in (built, drawn):
        assert compute_type_partition(inst).type_count == 2
        rep = ef_path_typed(inst)
        if rep.decision:
            assert is_envy_free(inst, rep.witness) and is_complete(inst, rep.witness)


def test_ef_path_more_agents_than_items():
    # A complete envy-free tiling gives every agent a nonempty piece, so three
    # identical agents cannot split two items.
    inst = mk(path_graph(2), ("1/2", "1/2"), ("1/2", "1/2"), ("1/2", "1/2"))
    rep = ef_path_typed(inst)
    assert not rep.decision and rep.quotas is None


def ef_two_phase_reference(inst):
    """The guess pass over a set of states, then a second DP that tiles for the guesses.

    The second DP keeps, per position e and count vector, the first piece
    s..e-1 in the order s ascending, t ascending (then the vectors at s in
    the order they were reached) that is worth exactly its type's guess to
    that type and at most the guess to every other type, and the witness
    follows those back-pointers from the full vector at m.  Returns the
    quotas and the witness, or None for a no.
    """
    types = compute_type_partition(inst)
    order, scales, prefix = _typed_path_setup(inst, types)
    m, p, n = len(order), types.type_count, inst.agent_count
    full = types.agents_per_type
    states = [set() for _ in range(m + 1)]
    states[0].add(((0,) * p, (None,) * p, (0,) * p))
    for s in range(m):
        for vec, guess, seen in states[s]:
            for t in range(p):
                if vec[t] == full[t]:
                    continue
                grown = vec[:t] + (vec[t] + 1,) + vec[t + 1 :]
                for e in range(s + 1, m + 1):
                    values = [prefix[o][e] - prefix[o][s] for o in range(p)]
                    if any(values[o] > guess[o] for o in range(p)
                           if o != t and guess[o] is not None):
                        break
                    own = values[t]
                    if guess[t] is None:
                        if own * full[t] > scales[t]:
                            break
                        if own < seen[t] or own * n < scales[t]:
                            continue
                        fixed = guess[:t] + (own,) + guess[t + 1 :]
                    elif own == guess[t]:
                        fixed = guess
                    elif own > guess[t]:
                        break
                    else:
                        continue
                    seen_after = tuple(0 if fixed[o] is not None else max(seen[o], values[o])
                                       for o in range(p))
                    states[e].add((grown, fixed, seen_after))
    finished = [guess for vec, guess, _ in states[m] if vec == full]
    if not finished:
        return None
    targets = min(finished)

    tables = [{(0,) * p: None}] + [{} for _ in range(m)]
    for s in range(m):
        for e in range(s + 1, m + 1):
            values = [prefix[o][e] - prefix[o][s] for o in range(p)]
            for t in range(p):
                if values[t] != targets[t] or any(
                    values[o] > targets[o] for o in range(p) if o != t
                ):
                    continue
                for vec in tables[s]:
                    if vec[t] < full[t]:
                        grown = vec[:t] + (vec[t] + 1,) + vec[t + 1 :]
                        tables[e].setdefault(grown, (s, t, vec))
    pieces = []
    e, vec = m, full
    while e > 0:
        s, t, vec = tables[e][vec]
        pieces.append((s, e, t))
        e = s
    quotas = tuple(Fraction(targets[t], scales[t]) for t in types.type_of_agent)
    return quotas, _tiling_allocation(inst, order, types, pieces)


def test_ef_path_matches_two_phase_reference():
    # Half the draws have one-item denominators 1 or 2, where many tilings
    # share the smallest guess tuple and the tie rule decides the witness.
    rng = random.Random(4242)
    yes = 0
    for trial in range(1500):
        options = {"types": rng.choice([None, 1, 2, 3])}
        if trial % 2:
            options["denom_bound"] = rng.randint(1, 2)
        inst = gen_random(seed=trial + 42000, cls="path", m=rng.randint(1, 12),
                          n=rng.randint(1, 6), **options)
        expected = ef_two_phase_reference(inst)
        rep = ef_path_typed(inst)
        assert rep.decision == (expected is not None), inst
        if expected is None:
            assert rep.witness is None and rep.quotas is None
        else:
            yes += 1
            assert (rep.quotas, rep.witness) == expected, inst
    assert 300 < yes < 1300  # both answers are well represented


def test_ef_path_witness_is_the_same_in_every_process(tmp_path):
    # Along the path v4 v3 v2 v1 v5 v8 v6 v7 the smallest guess tuple is 1/3
    # for all three types and 9 tilings reach it.  The partial guesses hold
    # None, whose hash before Python 3.12 differs per process, so a walk over
    # set order would pick different tilings in different processes.
    inst = gen_random(seed=2145, cls="path", m=8, n=4, denom_bound=1, types=3)
    rep = ef_path_typed(inst)
    assert rep.witness.bundles == (
        frozenset({5, 6}), frozenset({3}), frozenset({0, 4, 7}), frozenset({1, 2})
    )
    path = tmp_path / "path.json"
    path.write_text(dumps(instance_to_dict(inst)))
    package_parent = str(Path(graphfair.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(
        p for p in (package_parent, os.environ.get("PYTHONPATH")) if p
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
    env["PYTHONPATH"] = pythonpath
    outs = [
        subprocess.run(
            [sys.executable, "-m", "graphfair", "solve", str(path), "--problem", "ef-complete"],
            capture_output=True, env=env, cwd=str(tmp_path), check=True,
        ).stdout
        for _ in range(3)
    ]
    assert outs[0] == outs[1] == outs[2]
    assert json.loads(outs[0])["allocation"]["bundles"] == {
        "agent1": ["v6", "v7"], "agent2": ["v4"], "agent3": ["v1", "v5", "v8"],
        "agent4": ["v2", "v3"],
    }


# ---------------------------------------------------------------------------
# dispatch


def test_dispatch_routing_tags():
    uniform4 = (("1/4",) * 4,)
    assert dispatch(mk(path_graph(4), *uniform4 * 2), "prop").method == "greedy"
    two_types = (("1/2", "1/4", "1/8", "1/8"), ("1/4",) * 4)
    assert dispatch(mk(path_graph(4), *two_types), "prop").method == "path-dp"
    assert dispatch(mk(star_graph(3), ("1/4",) * 4, ("1/4",) * 4), "prop").method == "star"
    broom = mk(broom_graph(), ("1/5",) * 5, ("1/5",) * 5, ("1/5",) * 5)
    assert dispatch(broom, "prop").method == "tree-fpt"
    assert dispatch(fixture_cycle8(), "prop").method == "oracle"

    assert dispatch(mk(path_graph(2), ("1/2", "1/2")), "ef-complete").method == "ef-path"
    assert dispatch(mk(star_graph(3), ("1/4",) * 4), "ef-complete").method == "oracle"

    assert dispatch(broom, "mms").method == "mms-tree"
    assert dispatch(fixture_cycle8(), "mms").method == "oracle"
    with pytest.raises(InputError):
        # tree but m < n: routed to the oracle, which rejects (no n-partition)
        dispatch(mk(path_graph(2), *(("1/2", "1/2"),) * 3), "mms")


def test_dispatch_cycle8_mms():
    rep = dispatch(fixture_cycle8(), "mms")
    assert rep.method == "oracle"
    assert not rep.decision
    assert rep.quotas == (Fraction(1, 4),) * 4


def test_dispatch_underscore_alias():
    inst = mk(path_graph(2), ("1/2", "1/2"), ("1/2", "1/2"))
    assert dispatch(inst, "ef_complete").decision


def test_dispatch_rejects_bad_requests():
    inst = mk(path_graph(4), ("1/4",) * 4)
    with pytest.raises(InputError):
        dispatch(inst, "unknown-problem")
    with pytest.raises(InputError):
        dispatch(inst, "prop", method="ef-path")  # wrong problem
    with pytest.raises(InputError):
        dispatch(inst, "prop", method="star")  # wrong graph class
    with pytest.raises(InputError):
        dispatch(mk(cycle_graph(4), ("1/4",) * 4), "mms", method="mms-tree")
    with pytest.raises(InputError):
        dispatch(mk(path_graph(2), ("1", "0"), ("0", "1")), "prop", method="greedy")


@pytest.mark.parametrize("call", [
    lambda tree, path: dispatch(tree, None),
    lambda tree, path: dispatch(tree, 5),
    lambda tree, path: oracle_prop(tree, 5),
    lambda tree, path: oracle_ef_complete(tree, 0),
    lambda tree, path: prop_tree_fpt(tree, {"max_enumerated": 3}),
    lambda tree, path: prop_tree_fpt(tree, {}),
    lambda tree, path: prop_path_typed(path, "10"),
    lambda tree, path: dispatch(path, "ef-complete", budget=(10, 5, 3)),
    lambda tree, path: dispatch(gen_random(0, "star", 6, 2), "prop", budget=5),
    lambda tree, path: dispatch(gen_random(0, "tree", 6, 2), "mms",
                                budget={"max_enumerated": 1}),
], ids=["none-problem", "int-problem", "int-budget", "zero-budget", "dict-budget",
        "empty-dict-budget", "str-budget", "tuple-budget", "star-int-budget",
        "mms-tree-dict-budget"])
def test_a_bad_problem_or_budget_is_an_input_error(call):
    # An empty dict or a zero is no budget either, not the default one.  The
    # star matching and the tree maximin route never read the budget, yet
    # ``dispatch`` refuses a bad one there too.
    tree = gen_random(0, "tree", 5, 2)
    path = gen_random(0, "path", 5, 2)
    with pytest.raises(InputError, match=r"(problem|budget) must be"):
        call(tree, path)


def test_dispatch_follows_method_table():
    uniform4 = ("1/4",) * 4
    cases = (
        # (instance, auto's pick for prop, ef-complete, mms)
        (mk(path_graph(4), uniform4, uniform4), "greedy", "ef-path", "mms-tree"),
        (mk(path_graph(4), ("1/2", "1/4", "1/8", "1/8"), uniform4),
         "path-dp", "ef-path", "mms-tree"),
        (mk(path_graph(2), ("1", "0"), ("0", "1")), "path-dp", "ef-path", "mms-tree"),
        (mk(star_graph(3), uniform4, uniform4), "star", "oracle", "mms-tree"),
        (mk(broom_graph(), *(("1/5",) * 5,) * 3), "tree-fpt", "oracle", "mms-tree"),
        (fixture_cycle8(), "oracle", "oracle", "oracle"),
    )
    problems = ("prop", "ef-complete", "mms")
    for inst, *auto_picks in cases:
        cls = classify(inst.graph)
        for problem, auto_pick in zip(problems, auto_picks):
            entries = [e for e in METHODS if e.problem == problem]
            assert dispatch(inst, problem).method == auto_pick
            assert auto_pick == next(e.name for e in entries if e.applies(cls, inst))
            for entry in entries:
                if entry.applies(cls, inst):
                    assert dispatch(inst, problem, method=entry.name).method == entry.name
                else:
                    with pytest.raises(InputError, match=re.escape(entry.needs)):
                        dispatch(inst, problem, method=entry.name)
            for name in {e.name for e in METHODS} - {e.name for e in entries}:
                with pytest.raises(InputError, match="does not solve"):
                    dispatch(inst, problem, method=name)

    with pytest.raises(InputError, match="unknown problem"):
        dispatch(cases[0][0], "unknown-problem")
    # a tree with m < n routes mms to the oracle, which rejects it
    short = mk(path_graph(2), *(("1/2", "1/2"),) * 3)
    assert select_method(short, "mms").name == "oracle"
    with pytest.raises(InputError):
        dispatch(short, "mms")

    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    method_flag = next(a for a in sub.choices["solve"]._actions if a.dest == "method")
    assert list(method_flag.choices) == ["auto", *dict.fromkeys(e.name for e in METHODS)]


def path_walk_reference(g):
    """The walk from the lower endpoint of a graph ``classify`` calls a path."""
    m = g.vertex_count
    if m == 1:
        return [0]
    start = min(v for v in range(m) if g.degree(v) == 1)
    order, prev, cur = [start], -1, start
    while len(order) < m:
        nxt = [w for w in g.neighbors(cur) if w != prev][0]
        order.append(nxt)
        prev, cur = cur, nxt
    return order


def test_class_guards_agree_with_classify():
    # Each guard tests its class without ``classify``: the path walk, the
    # star's edge count and center degree, the oracle's connectivity test.
    rng = random.Random(18181)
    cases = []
    for trial in range(400):
        cls = RANDOM_CLASSES[trial % len(RANDOM_CLASSES)]
        m = rng.randint(3 if cls == "cycle" else 1, 8)
        inst = gen_random(seed=trial + 1800, cls=cls, m=m, n=rng.randint(1, min(m, 3)))
        cases.append(inst)
        edges = inst.graph.edges
        if edges:  # a forest, or a connected graph with one edge fewer
            drop = rng.randrange(len(edges))
            graph = ItemGraph(inst.graph.labels, edges[:drop] + edges[drop + 1 :])
            cases.append(Instance(graph, inst.agent_names, inst.utilities))
    for graph in (
        ItemGraph(tuple("abcde"), ((0, 1), (1, 2), (2, 3))),  # path and a last vertex
        ItemGraph(tuple("abcde"), ((1, 2), (2, 3), (3, 4))),  # a first vertex and path
        broom_graph(),
        ItemGraph(tuple("abcdefg"), ((0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6))),
        ItemGraph(tuple("abcd"), ((0, 1), (1, 2), (2, 0), (2, 3))),  # a cycle and a tail
    ):
        row = (Fraction(1, graph.vertex_count),) * graph.vertex_count
        cases.append(mk(graph, row, row))
    outcomes = set()
    for inst in cases:
        flags = classify(inst.graph)
        for guard, flag in (
            (path_order, flags.is_path),
            (prop_star, flags.is_star),
            (oracle_mms_values, flags.is_connected),
        ):
            try:
                out = guard(inst)
            except InputError:
                out = None
            assert (out is not None) == flag, (guard.__name__, inst.graph)
            outcomes.add((guard.__name__, flag))
        if flags.is_path:
            assert path_order(inst) == path_walk_reference(inst.graph)
    assert len(outcomes) == 6


def test_one_classify_per_dispatch(monkeypatch):
    # bench/tracer.py counts ``graphs.classify`` through these three names.
    calls = []
    for module in (graphfair.solvers, graphfair.oracle, graphfair.mms_tree):
        def counted(g, classify=module.classify):
            calls.append(g)
            return classify(g)

        monkeypatch.setattr(module, "classify", counted)
    uniform6 = ("1/6",) * 6
    candidates = (
        mk(path_graph(6), uniform6, uniform6),
        mk(path_graph(6), ("1/2", "1/4", "1/8", "1/8", "0", "0"), uniform6),
        mk(star_graph(5), uniform6, uniform6),
        mk(broom_graph(), *(("1/5",) * 5,) * 3),
        mk(cycle_graph(6), uniform6, uniform6),
    )
    for entry in METHODS:
        inst = next(c for c in candidates if select_method(c, entry.problem) is entry)
        for method in ("auto", entry.name):
            calls.clear()
            assert dispatch(inst, entry.problem, method).method == entry.name
            assert len(calls) == 1, (entry.problem, entry.name, method)


def test_tree_routes_build_no_neighbor_masks():
    # Path, star and tree solves read adjacency lists only; the bitmask
    # adjacency serves the oracle's set searches.
    rng = random.Random(2424)
    routes = set()
    for trial in range(90):
        cls = ("path", "star", "tree")[trial % 3]
        m = rng.randint(2, 12)
        drawn = gen_random(seed=trial + 2400, cls=cls, m=m, n=rng.randint(1, min(m, 4)),
                           types=rng.randint(1, 3))
        for problem in ("prop", "ef-complete", "mms"):
            graph = ItemGraph(drawn.graph.labels, drawn.graph.edges)
            inst = Instance(graph, drawn.agent_names, drawn.utilities)
            name = select_method(inst, problem).name
            if name == "oracle":  # ef-complete off paths
                continue
            assert dispatch(inst, problem).method == name
            assert "neighbor_masks" not in graph.__dict__, (problem, name, graph)
            routes.add(name)
    assert routes == {e.name for e in METHODS} - {"oracle"}
    cycle = mk(cycle_graph(5), ("1/5",) * 5, ("1/5",) * 5)
    assert dispatch(cycle, "prop").method == "oracle"
    assert "neighbor_masks" in cycle.graph.__dict__


def test_dispatch_forwards_budget():
    big = mk(cycle_graph(11), *(("1/11",) * 11,) * 2)
    with pytest.raises(BudgetExceeded):
        dispatch(big, "prop")


def test_dispatch_agrees_with_oracle():
    rng = random.Random(11011)
    for trial in range(80):
        cls = rng.choice(("path", "star", "tree", "cycle", "connected"))
        n = rng.randint(1, 4)
        m = rng.randint(3 if cls == "cycle" else 2, 7)
        inst = gen_random(seed=trial + 10000, cls=cls, m=m, n=n,
                          types=rng.randint(1, n))
        rep = dispatch(inst, "prop")
        assert rep.decision == oracle_prop(inst).decision, inst
        if rep.decision:
            assert is_proportional(inst, rep.witness)
        rep = dispatch(inst, "ef-complete")
        assert rep.decision == oracle_ef_complete(inst).decision, inst
        if rep.decision:
            assert is_envy_free(inst, rep.witness) and is_complete(inst, rep.witness)
