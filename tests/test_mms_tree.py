"""Tree maximin machinery: golden traces, exact shares, peeling invariants."""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

import graphfair.mms_tree as mms_tree
from graphfair import (
    InputError,
    ItemGraph,
    allocate_with_quotas,
    bundle_value,
    dumps,
    is_complete,
    is_mms_allocation,
    is_valid,
    mms_value_tree,
    mms_values_tree,
    oracle_mms_values,
    solve_mms_tree,
)
from graphfair.cli import _mms_values
from graphfair.generators import gen_random
from graphfair.graphs import induced_subgraph, root_tree
from graphfair.mms_tree import DiminisherRound, DiminisherTrace
from graphfair.model import Instance, at_least

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


def test_allocate_rejects_float_quotas():
    inst = mk(path_graph(2), ("1/2", "1/2"), ("1/2", "1/2"))
    with pytest.raises(InputError):
        allocate_with_quotas(inst, (0.5, 0.25))


def test_allocate_reads_string_quotas_as_rationals():
    inst = mk(path_graph(3), ("1/3", "1/3", "1/3"), ("1/3", "1/3", "1/3"))
    alloc, trace = allocate_with_quotas(inst, ("1/3", "1/3"))
    assert (alloc, trace) == allocate_with_quotas(inst, (Fraction(1, 3),) * 2)
    assert trace.quotas == (Fraction(1, 3),) * 2


def test_allocate_rejects_quotas_that_are_no_sequence():
    inst = mk(path_graph(2), ("1/2", "1/2"), ("1/2", "1/2"))
    with pytest.raises(InputError):
        allocate_with_quotas(inst, None)


def test_mms_value_rejects_an_agent_index_that_is_no_int():
    inst = mk(path_graph(2), ("1/2", "1/2"), ("1/2", "1/2"))
    with pytest.raises(InputError):
        mms_value_tree(inst, 1.0)


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


def mms_value_full_range(inst, agent):
    """The share by bisecting all of [0, L], every probe a complete sweep."""
    view = root_tree(inst.graph, 0)
    scale, weights = inst.grid[0][agent], inst.grid[1][agent]

    def feasible(q):
        uncut = [0] * inst.item_count
        cuts = 0
        for v in view.postorder:
            total = weights[v] + sum(uncut[c] for c in view.children[v])
            if total >= q:
                cuts += 1
            else:
                uncut[v] = total
        return cuts >= inst.agent_count

    lo, hi = 0, scale
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if feasible(mid):
            lo = mid
        else:
            hi = mid - 1
    return Fraction(lo, scale)


def test_shares_match_full_range_bisection():
    """Searching [0, L // n] with early stops and jumps finds the same shares."""
    rng = random.Random(1515)
    seen = {"n=1": 0, "m=n": 0, "zero item": 0, "shared row": 0}
    for trial in range(1500):
        cls = ("tree", "path", "star")[trial % 3]
        m = rng.randint(1, 31)
        n = rng.choice((1, m, rng.randint(1, min(6, m))))
        inst = gen_random(seed=trial + 15000, cls=cls, m=m, n=n,
                          denom_bound=rng.choice((1, 2, 3, 10)),
                          types=rng.choice((None, 1, 2, 3)))
        expected = tuple(mms_value_full_range(inst, i) for i in range(n))
        assert tuple(mms_value_tree(inst, i) for i in range(n)) == expected, inst
        assert mms_values_tree(inst) == expected, inst
        seen["n=1"] += n == 1
        seen["m=n"] += m == n > 1
        seen["zero item"] += any(0 in row for row in inst.grid[1])
        seen["shared row"] += len(set(inst.grid[1])) < n
    assert min(seen.values()) >= 100, seen


def mms_probes_upward_jump_only(inst, agent):
    """Probes of the share search that lowers ``hi`` only to ``q - 1`` on a failure."""
    view = root_tree(inst.graph, 0)
    n = inst.agent_count
    scale, weights = inst.grid[0][agent], inst.grid[1][agent]
    probes = 0
    lo, hi = 0, scale // n
    while lo < hi:
        q = (lo + hi + 1) // 2
        probes += 1
        uncut = [*weights, 0]
        cuts = taken = 0
        least = scale
        for v in view.postorder:
            total = uncut[v]
            if total < q:
                uncut[view.parent[v]] += total
            elif cuts < n - 1:
                cuts += 1
                taken += total
                least = min(least, total)
            else:
                lo = min(least, scale - taken)
                break
        else:
            hi = q - 1
    return probes


def test_a_failed_sweep_caps_the_share(monkeypatch):
    """On the sweep above, each search bisects at most, and jumps down often.

    A failed probe lowers the search's upper end to the largest total it
    added into a parent's slot, so the searches take at most 60% of the
    probes they take with the upward jump alone.  Each probe iterates the
    rooted view's postorder once, which is what is counted.
    """
    sweeps = [0]

    class CountedPostorder(tuple):
        def __iter__(self):
            sweeps[0] += 1
            return super().__iter__()

    rooted = mms_tree._rooted_tree

    def counting_view(graph):
        view = rooted(graph)
        return dataclasses.replace(view, postorder=CountedPostorder(view.postorder))

    monkeypatch.setattr(mms_tree, "_rooted_tree", counting_view)
    rng = random.Random(1515)
    total = reference = 0
    for trial in range(1500):
        cls = ("tree", "path", "star")[trial % 3]
        m = rng.randint(1, 31)
        n = rng.choice((1, m, rng.randint(1, min(6, m))))
        inst = gen_random(seed=trial + 15000, cls=cls, m=m, n=n,
                          denom_bound=rng.choice((1, 2, 3, 10)),
                          types=rng.choice((None, 1, 2, 3)))
        for i in range(n):
            sweeps[0] = 0
            mms_value_tree(inst, i)
            assert sweeps[0] <= (inst.grid[0][i] // n).bit_length(), (inst, i)
            total += sweeps[0]
            reference += mms_probes_upward_jump_only(inst, i)
    assert total <= 0.6 * reference, (total, reference)


def test_one_search_per_distinct_row(monkeypatch):
    """The solve and the CLI's shares search each distinct grid row once.

    The count goes through the ``mms_tree.mms_value_tree`` binding, the one
    that bench/tracer.py wraps.
    """
    inst = gen_random(seed=16000, cls="tree", m=12, n=6, types=2)
    rows = inst.grid[1]
    firsts = [rows.index(row) for row in dict.fromkeys(rows)]
    assert len(firsts) == 2
    calls = []
    search = mms_tree.mms_value_tree

    def counted(inst, agent):
        calls.append(agent)
        return search(inst, agent)

    monkeypatch.setattr(mms_tree, "mms_value_tree", counted)
    rep = solve_mms_tree(inst)
    assert calls == firsts
    assert rep.quotas == tuple(search(inst, i) for i in range(inst.agent_count))
    calls.clear()
    assert _mms_values(inst, None) == ("tree", rep.quotas)
    assert calls == firsts


def test_large_tree_gets_an_mms_allocation():
    """3,000 items, 100 agents: every agent meets her share on a deep, bushy tree."""
    m, n = 3000, 100
    rng = random.Random(3000)
    # a 1,000-item spine, then each item hangs from a random earlier one
    edges = [(v, v - 1) for v in range(1, 1000)]
    edges += [(v, rng.randrange(v)) for v in range(1000, m)]
    graph = ItemGraph(tuple(f"v{v}" for v in range(m)), tuple(edges))
    rows = []
    for _ in range(n):
        draws = [rng.choice((0, 1, 1, 2, 5, 9)) for _ in range(m)]
        value = {w: Fraction(w, sum(draws)) for w in set(draws)}
        rows.append(tuple(value[w] for w in draws))
    inst = Instance(graph, tuple(f"a{i}" for i in range(n)), tuple(rows))
    rep = solve_mms_tree(inst)
    assert rep.decision and rep.method == "mms-tree"
    assert all(0 < q <= Fraction(1, n) for q in rep.quotas)
    assert is_complete(inst, rep.witness)
    assert is_mms_allocation(inst, rep.witness, rep.quotas)
    assert all(a >= q for a, q in zip(rep.achieved, rep.quotas))


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


def peel_by_rounds(inst, quotas):
    """The round-based peel that the one-sweep peel replaced.

    Every round checks the round-start rule, then walks the residual postorder
    from its first vertex, each claimant summing subtrees as differences of
    her prefix sums, and cuts the awarded run out of the list.
    """
    view = root_tree(inst.graph, 0)
    n = inst.agent_count
    scales, rows = inst.grid
    need = [at_least(q, scale) for q, scale in zip(quotas, scales)]
    left = [sum(row) for row in rows]
    post = list(view.postorder)
    bundles = [frozenset()] * n
    remaining = list(range(n))
    rounds = []
    while remaining:
        if any(left[j] < need[j] for j in remaining):
            return None
        residual = frozenset(post)
        if len(remaining) == 1:
            i = remaining.pop()
            rounds.append(DiminisherRound(i, None, residual, residual))
            bundles[i] = residual
            continue
        i = remaining[0]
        if need[i] <= 0:
            remaining.pop(0)
            rounds.append(DiminisherRound(i, None, frozenset(), residual))
            continue
        claimants = [(j, rows[j], need[j], [0]) for j in remaining if need[j] > 0]
        size = [0] * inst.item_count
        winner = -1
        for pos, v in enumerate(post):
            size[v] = 1 + sum(size[c] for c in view.children[v])
            start = pos + 1 - size[v]
            for j, row, q, prefix in claimants:
                prefix.append(prefix[-1] + row[v])
                if prefix[-1] - prefix[start] >= q:
                    winner = j
                    break
            if winner >= 0:
                break
        awarded = post[start : pos + 1]
        del post[start : pos + 1]
        for j in remaining:
            left[j] -= sum(rows[j][u] for u in awarded)
        bundles[winner] = frozenset(awarded)
        rounds.append(DiminisherRound(winner, v, bundles[winner], residual))
        remaining.remove(winner)
    return bundles, DiminisherTrace(tuple(quotas), tuple(rounds))


def assert_same_peel(inst, quotas):
    """The sweep's bundles and trace equal the round-based peel's; True on None."""
    expected = peel_by_rounds(inst, quotas)
    out = allocate_with_quotas(inst, quotas)
    if expected is None:
        assert out is None, (inst, quotas)
        return True
    bundles, want = expected
    alloc, trace = out
    assert alloc.bundles == tuple(bundles), (inst, quotas)
    labels = inst.graph.labels
    assert trace.to_dict(labels) == want.to_dict(labels), (inst, quotas)
    return False


def test_sweep_matches_round_based_peel():
    """One sweep awards what a round-by-round rescan of the residual awards.

    Type caps of 1 and 2 give claimants equal rows, so ties between them
    are decided by agent order in both peels.
    """
    rng = random.Random(1919)
    checked = failed = tied = 0
    for trial in range(2100):
        cls = ("tree", "path", "star")[trial % 3]
        m = rng.randint(1, 30)
        n = rng.randint(1, min(6, m))
        inst = gen_random(seed=trial + 19000, cls=cls, m=m, n=n,
                          denom_bound=rng.choice((2, 3, 10, 30)),
                          types=(None, 1, 2)[trial // 3 % 3])
        tied += len(set(inst.grid[1])) < n
        shares = mms_values_tree(inst)
        for quotas in (
            shares,
            tuple(Fraction(0) if i % 2 else q for i, q in enumerate(shares)),
            tuple(q + Fraction(1, 50) for q in shares),
            (Fraction(0),) * n,
        ):
            failed += assert_same_peel(inst, quotas)
            checked += 1
    assert checked == 8400 and 0 < failed < checked
    assert tied >= 900


def test_sweep_matches_round_based_peel_on_a_large_tree():
    inst = gen_random(seed=19, cls="tree", m=3000, n=60, types=3)
    shares = mms_values_tree(inst)
    assert not assert_same_peel(inst, shares)
    assert not assert_same_peel(inst, tuple(Fraction(0) if i % 2 else q
                                            for i, q in enumerate(shares)))
