"""Polynomial solvers: frozen examples, DP invariants, and routing."""

import argparse
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings

from graphfair import (
    BudgetExceeded,
    InputError,
    bundle_value,
    dispatch,
    ef_path_typed,
    is_complete,
    is_envy_free,
    is_proportional,
    is_valid,
    oracle_ef_complete,
    oracle_prop,
    prop_path_greedy,
    prop_path_typed,
    prop_star,
    prop_tree_fpt,
)
from graphfair.cli import build_parser
from graphfair.generators import fixture_cycle8, gen_random
from graphfair.graphs import classify
from graphfair.model import Instance, ItemGraph, compute_type_partition
from graphfair.solvers import METHODS, select_method

from conftest import cycle_graph, mk, path_graph, star_graph, tree_instances


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


def test_path_dp_rejects_cycle():
    inst = mk(cycle_graph(4), ("1/4",) * 4)
    with pytest.raises(InputError):
        prop_path_typed(inst)


def test_path_dp_matches_greedy_on_uniform():
    inst = mk(path_graph(4), *(("1/4",) * 4,) * 4)
    rep = prop_path_typed(inst)
    assert rep.decision == prop_path_greedy(inst).decision == True  # noqa: E712
    assert is_proportional(inst, rep.witness)


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


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
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
    # root's matching ties between the two ways of handing them out; the
    # lexicographically smallest assignment gives a2 the lower child.
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
        frozenset({1, 2}),
        frozenset({3, 4}),
    )


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


def test_ef_path_more_agents_than_items():
    # A complete envy-free tiling gives every agent a nonempty piece, so three
    # identical agents cannot split two items.
    inst = mk(path_graph(2), ("1/2", "1/2"), ("1/2", "1/2"), ("1/2", "1/2"))
    rep = ef_path_typed(inst)
    assert not rep.decision and rep.quotas is None


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
        types = compute_type_partition(inst)
        for problem, auto_pick in zip(problems, auto_picks):
            entries = [e for e in METHODS if e.problem == problem]
            assert dispatch(inst, problem).method == auto_pick
            assert auto_pick == next(e.name for e in entries if e.applies(cls, types, inst))
            for entry in entries:
                if entry.applies(cls, types, inst):
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
