"""Tree maximin machinery: golden traces, exact shares, peeling invariants."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from graphfair import (
    InputError,
    allocate_with_quotas,
    bundle_value,
    dumps,
    is_mms_allocation,
    is_valid,
    mms_value_tree,
    oracle_mms_values,
    solve_mms_tree,
)
from graphfair.generators import gen_random
from graphfair.graphs import induced_subgraph, root_tree
from graphfair.mms_tree import DiminisherRound, DiminisherTrace
from graphfair.model import Instance

from conftest import (
    DIFFERENTIAL,
    cycle_graph,
    mk,
    path_graph,
    star_graph,
    subtree_of,
    tree_instances,
)


def test_two_agents_on_path3_golden_trace():
    inst = mk(path_graph(3), ("1/3", "1/3", "1/3"), ("1/3", "1/3", "1/3"))
    out = allocate_with_quotas(inst, (Fraction(1, 3), Fraction(1, 3)))
    assert out is not None
    alloc, trace = out
    assert alloc.bundles == (frozenset({2}), frozenset({0, 1}))
    assert trace.to_dict(inst.graph.labels) == {
        "quotas": ["1/3", "1/3"],
        "rounds": [
            {
                "agent": 0,
                "vertex": "v3",
                "awarded": ["v3"],
                "residual_before": ["v1", "v2", "v3"],
            },
            {
                "agent": 1,
                "vertex": None,
                "awarded": ["v1", "v2"],
                "residual_before": ["v1", "v2"],
            },
        ],
    }
    dumps(trace.to_dict(inst.graph.labels))  # JSON-clean


def test_single_agent_takes_everything():
    inst = mk(star_graph(3), ("1/4",) * 4)
    out = allocate_with_quotas(inst, (Fraction(1),))
    assert out is not None
    alloc, trace = out
    assert alloc.bundles == (frozenset(range(4)),)
    assert len(trace.rounds) == 1 and trace.rounds[0].vertex is None


def test_contested_item_fails():
    inst = mk(path_graph(2), ("1", "0"), ("1", "0"))
    assert allocate_with_quotas(inst, (Fraction(1), Fraction(1))) is None


def test_allocate_input_errors():
    with pytest.raises(InputError):
        allocate_with_quotas(mk(cycle_graph(3), ("1/3",) * 3), (Fraction(1),))
    with pytest.raises(InputError):
        allocate_with_quotas(mk(path_graph(2), ("1/2", "1/2")), (Fraction(0), Fraction(0)))


def test_zero_quotas_never_fail():
    rng = random.Random(321)
    for trial in range(20):
        n = rng.randint(1, 4)
        inst = gen_random(seed=trial + 11000, cls="tree", m=rng.randint(1, 7), n=n)
        out = allocate_with_quotas(inst, (Fraction(0),) * n)
        assert out is not None
        alloc, _ = out
        assert is_valid(inst, alloc)
        assert alloc.bundles[n - 1] == frozenset(range(inst.item_count))
        assert all(b == frozenset() for b in alloc.bundles[: n - 1])


def test_mms_value_examples():
    inst = mk(path_graph(3), ("1/3", "1/3", "1/3"), ("1/3", "1/3", "1/3"))
    assert mms_value_tree(inst, 0) == Fraction(1, 3)
    assert mms_value_tree(inst, 1) == Fraction(1, 3)

    solo = mk(star_graph(4), ("1/3", "1/6", "1/6", "1/3", "0"))
    assert mms_value_tree(solo, 0) == Fraction(1)

    with pytest.raises(InputError):
        mms_value_tree(mk(cycle_graph(3), ("1/3",) * 3), 0)
    with pytest.raises(InputError):
        mms_value_tree(mk(path_graph(2), *(("1/2", "1/2"),) * 3), 0)
    for agent in (-1, 2):  # agents are 0..n-1
        with pytest.raises(InputError):
            mms_value_tree(inst, agent)


def test_solve_path3_and_star():
    inst = mk(path_graph(3), ("1/3", "1/3", "1/3"), ("1/3", "1/3", "1/3"))
    rep = solve_mms_tree(inst)
    assert rep.decision and rep.method == "mms-tree"
    assert rep.quotas == (Fraction(1, 3), Fraction(1, 3))
    assert all(a >= q for a, q in zip(rep.achieved, rep.quotas))

    star = mk(star_graph(3), ("1/4",) * 4, ("1/4",) * 4)
    rep = solve_mms_tree(star)
    assert rep.decision
    assert rep.quotas == oracle_mms_values(star)
    assert is_mms_allocation(star, rep.witness, rep.quotas)

    solo = mk(path_graph(2), ("1/2", "1/2"))
    rep = solve_mms_tree(solo)
    assert rep.quotas == (Fraction(1),)
    assert rep.witness.bundles == (frozenset({0, 1}),)


def test_solve_errors():
    with pytest.raises(InputError):
        solve_mms_tree(mk(cycle_graph(4), ("1/4",) * 4))
    with pytest.raises(InputError):
        solve_mms_tree(mk(path_graph(2), *(("1/2", "1/2"),) * 3))


def test_random_trees_match_oracle():
    rng = random.Random(654)
    for trial in range(60):
        n = rng.randint(1, 4)
        inst = gen_random(seed=trial + 12000, cls="tree", m=rng.randint(n, 8), n=n,
                          denom_bound=8)
        expected = oracle_mms_values(inst)
        got = tuple(mms_value_tree(inst, i) for i in range(n))
        assert got == expected, inst
        rep = solve_mms_tree(inst)
        assert rep.decision
        assert rep.quotas == expected
        assert is_mms_allocation(inst, rep.witness, expected)


@settings(DIFFERENTIAL, max_examples=300)
@given(tree_instances(max_items=8))
def test_mms_values_and_witness_match_oracle(inst):
    expected = oracle_mms_values(inst)
    assert tuple(mms_value_tree(inst, i) for i in range(inst.agent_count)) == expected
    rep = solve_mms_tree(inst)
    assert rep.decision and rep.quotas == expected
    assert is_mms_allocation(inst, rep.witness, expected)


def test_long_uniform_path_splits_into_equal_runs():
    m, n = 400, 20
    inst = Instance(
        path_graph(m),
        tuple(f"a{i + 1}" for i in range(n)),
        ((Fraction(1, m),) * m,) * n,
    )
    rep = solve_mms_tree(inst)
    assert rep.decision
    assert rep.quotas == (Fraction(1, n),) * n
    assert sorted(rep.witness.bundles, key=min) == [
        frozenset(range(k, k + m // n)) for k in range(0, m, m // n)
    ]


def replay_minimality(inst, quotas, trace):
    """Awarded subtrees are minimal: no child subtree satisfies any claimant."""
    remaining_after = set()
    claims = {}
    for r in reversed(trace.rounds):
        claims[id(r)] = set(remaining_after)
        remaining_after.add(r.agent)
    for r in trace.rounds:
        if r.vertex is None:
            continue
        live = claims[id(r)] | {r.agent}
        claimants = [j for j in live if quotas[j] > 0]
        sub, back = induced_subgraph(inst.graph, r.residual_before)
        view = root_tree(sub, 0)
        for w in view.children[back.index(r.vertex)]:
            below = [back[u] for u in subtree_of(view, w)]
            for j in claimants:
                assert bundle_value(inst, j, below) < quotas[j]


def test_awarded_subtrees_are_minimal():
    rng = random.Random(987)
    for trial in range(30):
        n = rng.randint(2, 4)
        inst = gen_random(seed=trial + 13000, cls="tree", m=rng.randint(n, 8), n=n)
        quotas = tuple(mms_value_tree(inst, i) for i in range(n))
        out = allocate_with_quotas(inst, quotas)
        assert out is not None
        _, trace = out
        replay_minimality(inst, quotas, trace)


def peel_reference(inst, quotas):
    """The peel with Fractions, rooting the residual afresh every round.

    The residual is relabelled through ``induced_subgraph`` and rooted at its
    lowest vertex; subtree sets come from the children lists, so this does
    not lean on subtrees being postorder runs.
    """
    rows = inst.utilities
    n = inst.agent_count
    bundles = [frozenset()] * n
    residual = frozenset(range(inst.item_count))
    remaining = list(range(n))
    rounds = []

    def value(j, vertices):
        return sum((rows[j][v] for v in vertices), Fraction(0))

    while remaining:
        if any(value(j, residual) < quotas[j] for j in remaining):
            return None
        i = remaining[0]
        if len(remaining) == 1:
            rounds.append(DiminisherRound(i, None, residual, residual))
            bundles[i] = residual
            break
        if quotas[i] <= 0:
            remaining.pop(0)
            rounds.append(DiminisherRound(i, None, frozenset(), residual))
            continue
        claimants = [j for j in remaining if quotas[j] > 0]
        sub, back = induced_subgraph(inst.graph, residual)
        view = root_tree(sub, 0)
        below = {}
        for v in view.postorder:
            below[v] = frozenset({back[v]}).union(*(below[c] for c in view.children[v]))
        v, j = next(
            (v, j)
            for v in view.postorder
            for j in claimants
            if value(j, below[v]) >= quotas[j]
        )
        rounds.append(DiminisherRound(j, back[v], below[v], residual))
        bundles[j] = below[v]
        residual -= below[v]
        remaining.remove(j)
    return bundles, rounds


def test_peel_matches_fraction_reference():
    """Bundles and traces equal the re-rooting Fraction peel on seeded trees."""
    rng = random.Random(2024)
    checked = failed = 0
    for trial in range(150):
        cls = ("tree", "path", "star")[trial % 3]
        m = rng.randint(1, 24)
        n = rng.randint(1, min(5, m))
        inst = gen_random(seed=trial + 14000, cls=cls, m=m, n=n,
                          denom_bound=rng.choice((3, 10, 30)))
        shares = tuple(mms_value_tree(inst, i) for i in range(n))
        for quotas in (
            shares,
            tuple(Fraction(0) if i % 2 else q for i, q in enumerate(shares)),
            tuple(q + Fraction(1, 50) for q in shares),
        ):
            expected = peel_reference(inst, quotas)
            out = allocate_with_quotas(inst, quotas)
            checked += 1
            if expected is None:
                failed += 1
                assert out is None, (inst, quotas)
                continue
            bundles, rounds = expected
            alloc, trace = out
            assert alloc.bundles == tuple(bundles), (inst, quotas)
            want = DiminisherTrace(tuple(quotas), tuple(rounds))
            assert trace.to_dict(inst.graph.labels) == want.to_dict(inst.graph.labels)
    assert checked == 450 and 0 < failed < checked
