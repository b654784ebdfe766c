"""Brute-force deciders: frozen small cases, cross-checks, and budget guards."""

import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphfair.oracle as oracle
from graphfair import (
    Allocation,
    BudgetExceeded,
    InputError,
    Instance,
    ItemGraph,
    OracleBudget,
    bundle_value,
    is_complete,
    is_envy_free,
    is_mms_allocation,
    is_proportional,
    is_valid,
    mms_values_raw,
    oracle_ef_complete,
    oracle_mms_exists,
    oracle_mms_values,
    oracle_prop,
)
from graphfair.generators import (
    RANDOM_CLASSES,
    X3cInstance,
    fixture_cycle8,
    gen_random,
    gen_x3c_prop_path,
)
from graphfair.graphs import (
    _mask_bits,
    classify,
    connected_partition_masks,
    connected_set_masks,
    enumerate_connected_partitions,
    mask_is_connected,
)
from graphfair.model import at_least, compute_type_partition, integer_grid
from graphfair.oracle import _mask_value, _minimal_candidates, _NodeCounter

from conftest import DIFFERENTIAL, mk, path_graph, star_graph, types_by_equality


def ef_complete_naive(inst):
    """Reference decider: walk every complete valid allocation directly."""
    n = inst.agent_count
    for k in range(1, n + 1):
        for partition in enumerate_connected_partitions(inst.graph, k):
            for owners in permutations(range(n), k):
                bundles = [frozenset()] * n
                for part, owner in zip(partition, owners):
                    bundles[owner] = part
                alloc = Allocation(tuple(bundles))
                if is_envy_free(inst, alloc):
                    return True
    return False


def test_prop_x3c_unique_cover():
    x3c = X3cInstance(("x1", "x2", "x3"), (frozenset({"x1", "x2", "x3"}),))
    inst = gen_x3c_prop_path(x3c)
    rep = oracle_prop(inst)
    assert rep.decision and rep.method == "oracle"
    labels = inst.graph.labels
    named = {
        name: sorted(labels[v] for v in bundle)
        for name, bundle in zip(inst.agent_names, rep.witness.bundles)
    }
    assert named == {
        "triple1": ["b1"],
        "elem-x1": ["T1.1"],
        "elem-x2": ["T1.2"],
        "elem-x3": ["T1.3"],
        "sink": ["w"],
    }
    assert all(v >= Fraction(1, 5) for v in rep.achieved)


def test_prop_cycle8_no():
    rep = oracle_prop(fixture_cycle8())
    assert not rep.decision
    assert rep.witness is None and rep.achieved is None


def test_prop_single_agent_trivial():
    inst = mk(star_graph(3), ("1/4", "1/4", "1/4", "1/4"))
    rep = oracle_prop(inst)
    assert rep.decision
    assert is_proportional(inst, rep.witness)


def test_ef_complete_path2():
    inst = mk(path_graph(2), ("1", "0"), ("1", "0"))
    assert not oracle_ef_complete(inst).decision

    inst = mk(path_graph(2), ("1/2", "1/2"), ("1/2", "1/2"))
    rep = oracle_ef_complete(inst)
    assert rep.decision
    assert rep.witness.bundles == (frozenset({0}), frozenset({1}))


def test_mms_values_frozen():
    assert oracle_mms_values(fixture_cycle8()) == (Fraction(1, 4),) * 4

    inst = mk(path_graph(3), ("1/3", "1/3", "1/3"), ("1/3", "1/3", "1/3"))
    assert oracle_mms_values(inst) == (Fraction(1, 3), Fraction(1, 3))

    solo = mk(path_graph(2), ("1/2", "1/2"))
    assert oracle_mms_values(solo) == (Fraction(1),)


def test_mms_values_input_errors():
    with pytest.raises(InputError):
        oracle_mms_values(mk(path_graph(2), ("1", "0"), ("1", "0"), ("1", "0")))
    disconnected = Instance(
        ItemGraph(("a", "b"), ()),
        ("a1",),
        ((Fraction(1), Fraction(0)),),
    )
    with pytest.raises(InputError):
        oracle_mms_values(disconnected)


def test_mms_values_raw_partition_shortage():
    g = ItemGraph(("a", "b"), ())
    with pytest.raises(InputError):
        mms_values_raw(g, ((Fraction(1), Fraction(0)),), 1)


def test_mms_values_raw_checks_its_rows():
    path = path_graph(3)
    # a negative entry used to give 0; over connected 2-partitions it is -3
    for rows in (
        [(2, -5, 2)],
        [(0.5, 0.25, 0.25)],  # floats are not exact rationals
        [(Fraction(1, 2), Fraction(1, 2))],  # too short
        [(1, 1, 1, 1)],  # too long
        [(1, 1, 1), (1, 1)],
    ):
        with pytest.raises(InputError):
            mms_values_raw(path, rows, 2)
    # entries are read as Instance rows are: ints, rational strings, Fractions
    half = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
    assert mms_values_raw(path, [("1/2", "1/4", "1/4")], 2) == mms_values_raw(path, [half], 2)
    assert mms_values_raw(path, [(2, 1, 1)], 2) == (Fraction(2),)


def test_mms_values_raw_rows_must_be_sequences():
    # Instance maps the same input to InputError; a bare TypeError escaped here
    path = path_graph(3)
    for rows in ([5], 5, None, [(1, 1, 1), None]):
        with pytest.raises(InputError, match="sequences"):
            mms_values_raw(path, rows, 2)


def mms_reference(g, rows, parts):
    """Reference maximin values: Fraction sums over every connected partition."""
    partitions = list(enumerate_connected_partitions(g, parts))
    return tuple(
        Fraction(max(min(sum(row[v] for v in part) for part in p) for p in partitions))
        for row in rows
    )


def test_mms_values_raw_matches_fraction_reference():
    rng = random.Random(9090)
    for trial in range(36):
        cls = ("cycle", "connected", "tree")[trial % 3]
        m = rng.randint(3, 7)
        parts = rng.randint(1, min(m, 4))
        inst = gen_random(seed=trial + 6000, cls=cls, m=m, n=2)
        rows = (
            inst.utilities[0],
            # residual-style rows: scaled, so they no longer sum to 1
            tuple(x * rng.randint(1, 5) / 7 for x in inst.utilities[1]),
            tuple(rng.randint(0, 9) for _ in range(m)),  # plain ints
        )
        values = mms_values_raw(inst.graph, rows, parts)
        assert values == mms_reference(inst.graph, rows, parts), inst
        assert all(type(v) is Fraction for v in values)
        assert mms_values_raw(inst.graph, (), parts) == ()
        assert mms_values_raw(inst.graph, (), m + 1) == ()
        with pytest.raises(InputError):
            mms_values_raw(inst.graph, rows, m + 1)


def mms_values_scan(g, rows, parts):
    """The partition scan the packing search replaced, kept as the reference.

    Every connected ``parts``-partition's min-part value per grid row, with
    each part's values summed once into a table keyed by mask; ``parts`` is
    at most the vertex count.
    """
    scales, grid = integer_grid(rows)
    table = {}
    best = None
    for partition in connected_partition_masks(g, parts):
        values = []
        for part in partition:
            if part not in table:
                table[part] = tuple(_mask_value(row, part) for row in grid)
            values.append(table[part])
        worst = map(min, zip(*values))
        best = list(worst) if best is None else list(map(max, best, worst))
    return tuple(Fraction(v, scale) for v, scale in zip(best, scales))


def test_share_search_matches_partition_scan(monkeypatch):
    """The packing search gives the scan's shares and never probes a decided value.

    Each probe, a filter of its row's recorded growth, is recorded with its
    outcome.  A probe must lie above the best share known so far for its
    grid row (the smallest value picked by the row's last probe that
    succeeded), below every value that failed, and at most L // parts; so a
    row searched twice fails the test too.
    """
    probes = []
    filter_candidates, pack = oracle._filter_candidates, oracle._pack

    def recorded_probe(g, weights, records, threshold, counter):
        probes.append([weights, threshold, None])
        return filter_candidates(g, weights, records, threshold, counter)

    def recorded_pack(candidates, type_of_agent, counter):
        picked = pack(candidates, type_of_agent, counter)
        probes[-1][2] = picked
        return picked

    monkeypatch.setattr(oracle, "_filter_candidates", recorded_probe)
    monkeypatch.setattr(oracle, "_pack", recorded_pack)
    rng = random.Random(202020)
    seen = set()
    for trial in range(2000):
        cls = RANDOM_CLASSES[trial % len(RANDOM_CLASSES)]
        m = rng.randint(3 if cls == "cycle" else 1, 9)
        parts = rng.randint(1, min(m, 5))
        inst = gen_random(seed=trial + 11000, cls=cls, m=m, n=2,
                          denom_bound=rng.choice((2, 3, 10)))
        seen.add((cls, m, parts))
        rows = (
            inst.utilities[0],
            # residual-style rows: scaled, so they no longer sum to 1
            tuple(x * rng.randint(1, 5) / 7 for x in inst.utilities[1]),
            tuple(rng.randint(0, 9) for _ in range(m)),  # plain ints
            (0,) * m,
            inst.utilities[0],
        )
        probes.clear()
        values = mms_values_raw(inst.graph, rows, parts)
        assert values == mms_values_scan(inst.graph, rows, parts), (trial, inst)
        scales, grid = integer_grid(rows)
        known = {}  # grid row -> [best share so far, least failed value]
        for weights, x, picked in probes:
            best, failed = known.setdefault(weights, [0, None])
            assert best < x <= sum(weights) // parts, (trial, weights, x)
            assert failed is None or x < failed, (trial, weights, x)
            if picked is None:
                known[weights][1] = x
            else:
                assert len(picked) == parts
                known[weights][0] = min(_mask_value(weights, mask) for mask in picked)
        for row, scale, value in zip(grid, scales, values):
            assert known.get(row, [0])[0] == value * scale
    assert {c for c, _, _ in seen} == set(RANDOM_CLASSES)
    assert {m for _, m, _ in seen} == set(range(1, 10))
    assert {p for _, _, p in seen} == {1, 2, 3, 4, 5}


@st.composite
def connected_weighted_graphs(draw, max_items):
    """Any connected graph on up to ``max_items`` vertices, int rows 0-9 and a part count.

    A spanning tree comes from a parent for each vertex after the first;
    any other pair may be an edge too.
    """
    m = draw(st.integers(1, max_items))
    tree = {(draw(st.integers(0, v - 1)), v) for v in range(1, m)}
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m) if (a, b) not in tree]
    edges = tuple(sorted(tree)) + tuple(e for e in pairs if draw(st.booleans()))
    graph = ItemGraph(tuple(f"v{i + 1}" for i in range(m)), edges)
    row = st.lists(st.integers(0, 9), min_size=m, max_size=m).map(tuple)
    rows = draw(st.lists(row, min_size=1, max_size=3))
    return graph, rows, draw(st.integers(1, m))


@settings(DIFFERENTIAL, max_examples=300)
@given(connected_weighted_graphs(max_items=9))
def test_share_search_matches_partition_scan_on_any_connected_graph(case):
    g, rows, parts = case
    assert mms_values_raw(g, rows, parts) == mms_values_scan(g, rows, parts)


def test_mms_values_twelve_items_four_agents():
    # the partition scan gives these values too, in about a second
    inst = gen_random(seed=0, cls="connected", m=12, n=4)
    assert not classify(inst.graph).is_tree
    values = oracle_mms_values(inst, OracleBudget(max_items=12))
    assert values == (
        Fraction(474, 1973), Fraction(34, 189), Fraction(1575, 7687), Fraction(95, 403)
    )


# Smallest enumeration budgets that let each search finish; a change to the
# search order or to what it counts moves them.  An mms solve meters its share
# search and its bundle search with one counter, so its least budget is their
# sum.
@pytest.mark.parametrize("make, prop_least, mms_least, decision", [
    (fixture_cycle8, 59, 220, False),
    (lambda: gen_random(seed=1, cls="connected", m=8, n=3), 280, 1780, True),
], ids=["cycle8", "connected-seed1"])
def test_oracle_budget_spend_is_pinned(make, prop_least, mms_least, decision):
    inst = make()
    for solve, least in ((oracle_prop, prop_least), (oracle_mms_exists, mms_least)):
        assert solve(inst, OracleBudget(max_enumerated=least)).decision == decision
        with pytest.raises(BudgetExceeded):
            solve(inst, OracleBudget(max_enumerated=least - 1))


def test_budget_stops_the_bundle_growth():
    inst = gen_random(seed=3, cls="connected", m=10, n=5)
    with pytest.raises(BudgetExceeded):
        oracle_prop(inst, OracleBudget(max_enumerated=1))


def minimal_candidates_reference(g, sets, weights, threshold):
    """The list-then-filter search the pruned growth replaced.

    ``sets`` are the graph's connected sets in ``connected_set_masks`` order;
    every one is summed, and each qualifying one is kept unless a single
    connected-preserving removal still qualifies.
    """
    if threshold <= 0:
        return [0]
    out = []
    for mask in sets:
        total = _mask_value(weights, mask)
        if total < threshold:
            continue
        for w in _mask_bits(mask):
            shrunk = mask & ~(1 << w)
            if total - weights[w] >= threshold and mask_is_connected(g, shrunk):
                break
        else:
            out.append(mask)
    return out


def test_minimal_candidates_match_list_then_filter():
    # m runs to 8, and to 12 on every tenth instance; finer denominators go
    # with fewer items, which keeps each row's distinct connected-set values,
    # and so the thresholds tried, to a few hundred.
    rng = random.Random(161616)
    seen = set()
    for trial in range(1500):
        cls = RANDOM_CLASSES[trial % len(RANDOM_CLASSES)]
        m = rng.randint(3 if cls == "cycle" else 1, 12 if trial % 10 == 0 else 8)
        n = rng.randint(1, 5)
        denom = rng.choice((1, 2, 3, 10) if m <= 6 else (1, 2, 3) if m <= 8 else (1, 2))
        inst = gen_random(seed=trial + 7000, cls=cls, m=m, n=n, denom_bound=denom)
        seen.add((cls, m, n))
        g = inst.graph
        sets = list(connected_set_masks(g))
        scales, grid = inst.grid
        for scale, row in zip(scales, grid):
            values = {_mask_value(row, mask) for mask in sets}
            share = at_least(Fraction(1, n), scale)
            for t in sorted({share, 0, -1, scale + 1} | values):
                counter = _NodeCounter(10**9)
                got = _minimal_candidates(g, row, t, counter)
                assert got == minimal_candidates_reference(g, sets, row, t), (inst, t)
                if t <= 0:
                    assert got == [0]
                elif t > scale:
                    assert got == []
                # every root vertex is reached at a positive threshold
                assert 10**9 - counter.left >= (m if t > 0 else 0)
    assert {c for c, _, _ in seen} == set(RANDOM_CLASSES)
    assert max(m for _, m, _ in seen) == 12
    assert {n for _, _, n in seen} == {1, 2, 3, 4, 5}


def test_filtered_records_match_the_growth():
    """Filtering a row's recorded growth gives ``_minimal_candidates`` and its spend.

    Each distinct row's growth is recorded at L // parts + 1 for one part
    (which reaches every connected set) and for n parts, and filtered at every
    threshold up to that cap among the row's connected-set values, 0, -1 and
    L + 1.  One connectivity memo serves every row of a graph.
    """
    rng = random.Random(242424)
    seen = set()
    for trial in range(500):
        cls = ("cycle", "connected")[trial % 2]
        m = rng.randint(3, 10)
        n = rng.randint(1, 5)
        denom = rng.choice((2, 3, 10) if m <= 6 else (2, 3) if m <= 8 else (1, 2))
        inst = gen_random(seed=trial + 24000, cls=cls, m=m, n=n, denom_bound=denom,
                          types=rng.randint(1, 3))
        seen.add((cls, m, n))
        g = inst.graph
        sets = list(connected_set_masks(g))
        connected = {}
        for row in dict.fromkeys(inst.grid[1]):
            total = sum(row)
            thresholds = sorted({_mask_value(row, mask) for mask in sets} | {0, -1, total + 1})
            for parts in {1, n}:
                cap = total // parts + 1
                recorded, grown = _NodeCounter(10**9), _NodeCounter(10**9)
                records = oracle._record_growth(g, row, cap, recorded)
                _minimal_candidates(g, row, cap, grown)
                assert recorded.left == grown.left, (trial, row, parts)
                for t in thresholds:
                    if t > cap:
                        break
                    want_counter, got_counter = _NodeCounter(10**9), _NodeCounter(10**9)
                    got_counter.connected = connected
                    want = _minimal_candidates(g, row, t, want_counter)
                    got = oracle._filter_candidates(g, row, records, t, got_counter)
                    assert got == want, (trial, row, parts, t)
                    assert got_counter.left == want_counter.left, (trial, row, parts, t)
    assert {c for c, _, _ in seen} == {"cycle", "connected"}
    assert {m for _, m, _ in seen} == set(range(3, 11))
    assert {n for _, _, n in seen} == {1, 2, 3, 4, 5}


def test_mms_solve_grows_once_per_distinct_row(monkeypatch):
    """An mms solve records one growth per distinct grid row and grows nothing else."""
    grown = []
    record_growth = oracle._record_growth

    def counted(g, weights, threshold, counter):
        grown.append(weights)
        return record_growth(g, weights, threshold, counter)

    def forbidden(*args):
        raise AssertionError("an mms solve grew candidates instead of filtering")

    monkeypatch.setattr(oracle, "_record_growth", counted)
    monkeypatch.setattr(oracle, "_minimal_candidates", forbidden)
    for trial in range(40):
        cls = ("cycle", "connected")[trial % 2]
        inst = gen_random(seed=trial + 25000, cls=cls, m=6 + trial % 4, n=2 + trial % 3,
                          types=1 + trial % 3)
        grown.clear()
        oracle_mms_exists(inst)
        assert grown == list(dict.fromkeys(inst.grid[1])), trial


def test_prop_solve_floods_each_mask_once(monkeypatch):
    """One connectivity memo serves every agent type of a prop solve.

    The minimality test meets the same shrunk set again, under another stop
    node or another type's row; the memo answers it after the first flood.
    """
    flooded = []

    def counted(g, mask):
        flooded.append(mask)
        return mask_is_connected(g, mask)

    monkeypatch.setattr(oracle, "mask_is_connected", counted)
    rng = random.Random(252525)
    tested = 0
    for trial in range(200):
        cls = ("cycle", "connected")[trial % 2]
        inst = gen_random(seed=trial + 25500, cls=cls, m=rng.randint(6, 10),
                          n=rng.randint(2, 5), types=rng.randint(1, 3))
        flooded.clear()
        oracle_prop(inst)
        assert len(flooded) == len(set(flooded)), trial
        tested += len(flooded) > 0
    assert tested > 150


def test_bundle_searches_pack_through_search_thresholds(monkeypatch):
    """prop and mms-exists pick their bundles in ``_search_thresholds``.

    Every pack of a prop solve runs inside it.  An mms solve packs its
    share probes outside it, one type at a time, and then packs its bundles
    once inside it, for the instance's own types.
    """
    search, pack = oracle._search_thresholds, oracle._pack
    depth = [0]
    packs = []

    def searched(inst, thresholds, counter):
        depth[0] += 1
        try:
            return search(inst, thresholds, counter)
        finally:
            depth[0] -= 1

    def packed(candidates, type_of_agent, counter):
        packs.append((depth[0], tuple(type_of_agent)))
        return pack(candidates, type_of_agent, counter)

    monkeypatch.setattr(oracle, "_search_thresholds", searched)
    monkeypatch.setattr(oracle, "_pack", packed)
    for trial in range(20):
        cls = ("cycle", "connected")[trial % 2]
        inst = gen_random(seed=trial + 25800, cls=cls, m=6 + trial % 4, n=2 + trial % 3,
                          types=1 + trial % 3)
        types = compute_type_partition(inst).type_of_agent
        packs.clear()
        oracle_prop(inst)
        assert packs == [(1, types)], trial
        packs.clear()
        oracle_mms_exists(inst)
        *probes, last = packs
        assert last == (1, types), trial
        assert probes and all(d == 0 and set(t) == {0} for d, t in probes), trial


def test_share_search_keeps_nothing_between_graphs():
    """Solves on different graphs, alternated, each match their own references.

    The graphs share a vertex count, so the same bitmask names different
    sets, connected on one graph and not on another: a record or a
    connectivity answer that outlived its solve would be read for the wrong
    graph.
    """
    rng = random.Random(262626)
    insts = [
        gen_random(seed=seed + 26000, cls=cls, m=6, n=n, denom_bound=rng.choice((3, 10)))
        for seed, (cls, n) in enumerate([("cycle", 2), ("connected", 3), ("cycle", 3),
                                         ("connected", 2), ("path", 2), ("star", 3)] * 2)
    ]
    rows = [tuple(rng.randint(0, 9) for _ in range(6)) for _ in range(2)]
    for _ in range(2):
        for inst in insts:
            g, n = inst.graph, inst.agent_count
            for parts in (2, 3, 4):
                assert mms_values_raw(g, rows, parts) == mms_values_scan(g, rows, parts)
            quotas = mms_values_scan(g, inst.utilities, n)
            rep = oracle_mms_exists(inst)
            assert rep.quotas == quotas
            assert rep.decision == exists_unpruned(inst, quotas), inst
            if rep.decision:
                assert is_mms_allocation(inst, rep.witness, quotas)


def search_thresholds_reference(inst, thresholds, budget):
    """The pruned bundle search with its type rule kept in a saved dict.

    Types come from ``==`` on the utility rows and each grows its candidates
    at its first agent.  Same-type agents pick nonempty bundles at strictly
    increasing candidate indices: ``last_pick_of_type`` is set before each
    descent and restored after it.
    """
    g, n = inst.graph, inst.agent_count
    counter = oracle._NodeCounter(budget.max_enumerated)
    scales, weights = inst.grid
    scaled = [at_least(t, scale) for t, scale in zip(thresholds, scales)]
    type_of = types_by_equality(inst)
    candidates = []
    per_type_cache = {}
    for a in range(n):
        t = type_of[a]
        if t not in per_type_cache:
            per_type_cache[t] = _minimal_candidates(g, weights[a], scaled[a], counter)
        candidates.append(per_type_cache[t])
    last_pick_of_type = {}
    chosen = []

    def rec(i, used):
        if i == n:
            return list(chosen)
        t = type_of[i]
        for idx, mask in enumerate(candidates[i]):
            if mask != 0 and idx <= last_pick_of_type.get(t, -1):
                continue
            if mask & used:
                continue
            counter.spend()
            taken = used | mask
            prev = last_pick_of_type.get(t)
            if mask != 0:
                last_pick_of_type[t] = idx
            chosen.append(mask)
            found = rec(i + 1, taken)
            if found is not None:
                return found
            chosen.pop()
            if mask != 0:
                if prev is None:
                    del last_pick_of_type[t]
                else:
                    last_pick_of_type[t] = prev
        return None

    return rec(0, 0)


def test_type_floors_match_saved_dict_rule(monkeypatch):
    # Type caps 1-3 make agents repeat rows; each type's threshold is 0, the
    # proportional share 1/n, or a draw in [0, 1/n], so some types take the
    # empty bundle and others need a bundle for every member.
    counters = []

    class Recorded(_NodeCounter):
        def __init__(self, limit):
            super().__init__(limit)
            counters.append(self)

    monkeypatch.setattr(oracle, "_NodeCounter", Recorded)
    budget = OracleBudget()
    rng = random.Random(181818)
    shared_yes = 0
    for trial in range(1200):
        cls = RANDOM_CLASSES[trial % len(RANDOM_CLASSES)]
        m = rng.randint(3 if cls == "cycle" else 1, 8)
        n = rng.randint(1, 5)
        inst = gen_random(seed=trial + 9000, cls=cls, m=m, n=n, types=rng.randint(1, 3))
        type_of = types_by_equality(inst)
        per_type = [
            rng.choice((Fraction(0), Fraction(1, n), Fraction(rng.randint(0, 12), 12 * n)))
            for _ in range(max(type_of) + 1)
        ]
        thresholds = [per_type[t] for t in type_of]
        got = oracle._search_thresholds(
            inst, thresholds, Recorded(budget.max_enumerated)
        )
        want = search_thresholds_reference(inst, thresholds, budget)
        assert got == want, (trial, thresholds)
        new, ref = counters[-2:]
        assert new.left == ref.left, trial  # the same spend
        if want is not None and len(set(type_of)) < n:
            shared_yes += 1
    assert shared_yes > 200


@st.composite
def weighted_graphs(draw, max_items):
    """Any graph on up to ``max_items`` vertices, int weights and a threshold.

    The threshold runs from below zero to above the weight total.
    """
    m = draw(st.integers(1, max_items))
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    edges = tuple(e for e in pairs if draw(st.booleans()))
    graph = ItemGraph(tuple(f"v{i + 1}" for i in range(m)), edges)
    weights = draw(st.lists(st.integers(0, 9), min_size=m, max_size=m))
    threshold = draw(st.integers(-1, sum(weights) + 1))
    return graph, weights, threshold


@settings(DIFFERENTIAL, max_examples=300)
@given(weighted_graphs(max_items=9))
def test_minimal_candidates_are_minimal_and_cover(case):
    g, weights, threshold = case
    cands = _minimal_candidates(g, weights, threshold, _NodeCounter(10**9))
    assert len(set(cands)) == len(cands)
    for c in cands:
        assert mask_is_connected(g, c) and _mask_value(weights, c) >= threshold
        for v in _mask_bits(c):
            smaller = c & ~(1 << v)
            assert not (
                mask_is_connected(g, smaller) and _mask_value(weights, smaller) >= threshold
            )
    for s in [0, *connected_set_masks(g)]:
        if _mask_value(weights, s) >= threshold:
            assert any(c & ~s == 0 for c in cands), (s, cands)


@pytest.mark.parametrize("cls, seed, m, n, options, bundles", [
    ("cycle", 0, 7, 3, {"denom_bound": 4}, ({3, 6}, {0, 1, 2, 5}, {4})),
    ("connected", 0, 7, 3, {"denom_bound": 4}, ({0, 1, 2, 4}, {3}, {5, 6})),
    ("cycle", 1, 7, 3, {"denom_bound": 4}, ({4}, {0, 2, 5, 6}, {1, 3})),
    ("connected", 7, 8, 4, {"denom_bound": 3, "types": 2},
     ({1, 7}, {0, 2, 4}, {3, 5}, {6})),
])
def test_ef_complete_first_witness_is_pinned(cls, seed, m, n, options, bundles):
    inst = gen_random(seed=seed, cls=cls, m=m, n=n, **options)
    assert not classify(inst.graph).is_tree
    rep = oracle_ef_complete(inst)
    assert rep.decision
    assert rep.witness.bundles == tuple(frozenset(b) for b in bundles)


def test_mms_exists_examples():
    rep = oracle_mms_exists(fixture_cycle8())
    assert not rep.decision
    assert rep.quotas == (Fraction(1, 4),) * 4

    solo = mk(path_graph(2), ("1/2", "1/2"))
    assert oracle_mms_exists(solo).decision

    rng = random.Random(5150)
    for trial in range(25):
        inst = gen_random(seed=trial, cls="tree", m=rng.randint(2, 7), n=rng.randint(1, 3))
        if inst.item_count < inst.agent_count:
            continue
        rep = oracle_mms_exists(inst)
        assert rep.decision, inst
        assert is_mms_allocation(inst, rep.witness, rep.quotas)


def test_budget_guards():
    big_graph = path_graph(11)
    rows = tuple(tuple([Fraction(1, 11)] * 11) for _ in range(2))
    inst = Instance(big_graph, ("a1", "a2"), rows)
    with pytest.raises(BudgetExceeded):
        oracle_prop(inst)
    # Raising the cap lifts the guard; two agents cannot both reach 6/11.
    assert not oracle_prop(inst, OracleBudget(max_items=11)).decision

    crowded = mk(path_graph(3), *(("1/3", "1/3", "1/3"),) * 6)
    with pytest.raises(BudgetExceeded):
        oracle_prop(crowded)

    starved = OracleBudget(max_enumerated=1)
    with pytest.raises(BudgetExceeded):
        oracle_mms_values(fixture_cycle8(), starved)

    # A budget field must be an int >= 0; zero is a valid, if useless, budget.
    for bad in ({"max_agents": -1}, {"max_items": -1}, {"max_enumerated": -5},
                {"max_items": 2.0}, {"max_enumerated": "10"}, {"max_agents": None}):
        with pytest.raises(InputError, match="must be an int >= 0"):
            OracleBudget(**bad)
    with pytest.raises(BudgetExceeded):
        oracle_prop(fixture_cycle8(), OracleBudget(max_enumerated=0))


def test_mms_solve_builds_one_counter(monkeypatch):
    """An oracle mms solve enters ``_bounded`` once; a bad budget is reported
    before an input error, and an input error before the size limits."""
    counters = []

    class Recorded(_NodeCounter):
        def __init__(self, limit):
            super().__init__(limit)
            counters.append(self)

    monkeypatch.setattr(oracle, "_NodeCounter", Recorded)
    for solve in (oracle_mms_exists, oracle_mms_values):
        solve(fixture_cycle8())
        assert len(counters) == 1, solve
        counters.clear()
    short = mk(path_graph(2), ("1", "0"), ("1", "0"), ("1", "0"))
    disconnected = Instance(ItemGraph(("a", "b"), ()), ("a1",), ((1, 0),))
    tiny = OracleBudget(max_items=0, max_agents=0)
    for solve in (oracle_mms_exists, oracle_mms_values):
        with pytest.raises(InputError, match="at least as many items"):
            solve(short, tiny)
        with pytest.raises(InputError, match="connected item graphs only"):
            solve(disconnected, tiny)
    with pytest.raises(InputError, match="budget must be an OracleBudget"):
        oracle_mms_exists(short, 5)
    assert counters == []


def test_share_search_deeper_than_the_recursion_limit_exceeds_the_budget():
    # One part: the share search's growth recurses once per item it adds,
    # up to all 1,200, which is deeper than Python's stack allows.
    cycle = gen_random(0, "cycle", 1200, 1).graph
    with pytest.raises(BudgetExceeded, match="recursion limit"):
        mms_values_raw(cycle, [(1,) * 1200], 1)


def exists_unpruned(inst, thresholds):
    """Reference bundle search with no pruning at all.

    Every agent may take any connected set or nothing, disjoint from the
    earlier picks, and the thresholds are checked only at the leaves.
    """
    n = inst.agent_count
    sets = [0, *connected_set_masks(inst.graph)]
    value = [
        {s: bundle_value(inst, a, _mask_bits(s)) for s in sets} for a in range(n)
    ]

    def rec(i, used, chosen):
        if i == n:
            return all(value[a][s] >= thresholds[a] for a, s in enumerate(chosen))
        return any(rec(i + 1, used | s, chosen + [s]) for s in sets if not s & used)

    return rec(0, 0, [])


def test_pruned_matches_unpruned():
    rng = random.Random(424242)
    for trial in range(60):
        cls = rng.choice(("path", "star", "tree", "cycle", "connected"))
        m = rng.randint(3 if cls == "cycle" else 2, 6)
        inst = gen_random(seed=trial + 1000, cls=cls, m=m, n=rng.randint(1, 3))
        n = inst.agent_count
        slow = exists_unpruned(inst, [Fraction(1, n)] * n)
        assert oracle_prop(inst).decision == slow, inst
        if inst.item_count >= n:
            slow = exists_unpruned(inst, oracle_mms_values(inst))
            assert oracle_mms_exists(inst).decision == slow, inst


def test_ef_complete_matches_naive():
    rng = random.Random(31337)
    for trial in range(50):
        cls = rng.choice(("path", "star", "tree", "cycle", "connected"))
        m = rng.randint(3 if cls == "cycle" else 2, 6)
        inst = gen_random(seed=trial + 2000, cls=cls, m=m, n=rng.randint(1, 3))
        rep = oracle_ef_complete(inst)
        assert rep.decision == ef_complete_naive(inst), inst
        if rep.decision:
            assert is_envy_free(inst, rep.witness)
            assert is_complete(inst, rep.witness)
            assert is_valid(inst, rep.witness)


def test_witness_implications():
    rng = random.Random(808)
    seen_prop_yes = 0
    for trial in range(40):
        cls = rng.choice(("path", "star", "tree", "cycle"))
        m = rng.randint(3 if cls == "cycle" else 2, 7)
        inst = gen_random(seed=trial + 3000, cls=cls, m=m, n=rng.randint(2, 4))
        rep = oracle_prop(inst)
        if not rep.decision:
            continue
        seen_prop_yes += 1
        assert is_proportional(inst, rep.witness)
        if inst.item_count >= inst.agent_count:
            mrep = oracle_mms_exists(inst)
            assert mrep.decision
            assert is_mms_allocation(inst, rep.witness, mrep.quotas)
        erep = oracle_ef_complete(inst)
        if erep.decision:
            assert is_proportional(inst, erep.witness)
    assert seen_prop_yes >= 5  # the sweep actually exercised the implications


def test_relabeling_invariance():
    rng = random.Random(616)
    for trial in range(20):
        cls = rng.choice(("path", "star", "tree", "cycle"))
        m = rng.randint(3 if cls == "cycle" else 2, 6)
        inst = gen_random(seed=trial + 4000, cls=cls, m=m, n=rng.randint(2, 3))
        m, n = inst.item_count, inst.agent_count
        vperm = list(range(m))
        rng.shuffle(vperm)
        aperm = list(range(n))
        rng.shuffle(aperm)
        g = inst.graph
        labels = tuple(g.labels[vperm[i]] for i in range(m))
        inv = {vperm[i]: i for i in range(m)}
        edges = tuple((inv[a], inv[b]) for a, b in g.edges)
        rows = tuple(
            tuple(inst.utilities[aperm[i]][vperm[j]] for j in range(m))
            for i in range(n)
        )
        names = tuple(inst.agent_names[aperm[i]] for i in range(n))
        shuffled = Instance(ItemGraph(labels, edges), names, rows)

        assert oracle_prop(inst).decision == oracle_prop(shuffled).decision
        assert oracle_ef_complete(inst).decision == oracle_ef_complete(shuffled).decision
        if m >= n:
            ours = oracle_mms_values(inst)
            theirs = oracle_mms_values(shuffled)
            assert tuple(theirs[i] for i in range(n)) == tuple(ours[aperm[i]] for i in range(n))


def test_mms_values_never_exceed_share():
    rng = random.Random(2718)
    for trial in range(30):
        cls = rng.choice(("path", "star", "tree", "cycle", "connected"))
        n = rng.randint(1, 4)
        m = rng.randint(max(n, 3 if cls == "cycle" else 1), 7)
        inst = gen_random(seed=trial + 5000, cls=cls, m=m, n=n)
        values = oracle_mms_values(inst)
        assert all(v <= Fraction(1, n) for v in values)
        # And each value is genuinely achievable: some partition attains it.
        for i, target in enumerate(values):
            best = max(
                min(bundle_value(inst, i, part) for part in partition)
                for partition in enumerate_connected_partitions(inst.graph, n)
            )
            assert best == target


def test_scans_go_through_the_traced_name(monkeypatch):
    """The ef partition scan reads ``oracle.enumerate_connected_partitions``.

    That binding is the one bench/tracer.py wraps for its partition span, so
    a scan that called the stream under another name would drop the span.
    Each instance below has no envy-free complete allocation, so the ef scan
    reads the whole stream; the cycle takes the generic route, the tree the
    tree route.  Maximin shares come from the packing search and scan no
    partitions at all.
    """
    calls = []
    stream = oracle.enumerate_connected_partitions

    def counted(g, k):
        calls.append(0)
        for parts in stream(g, k):
            calls[-1] += 1
            yield parts

    monkeypatch.setattr(oracle, "enumerate_connected_partitions", counted)
    cycle = gen_random(seed=7, cls="cycle", m=7, n=3)
    tree = gen_random(seed=2, cls="tree", m=7, n=3)
    count = {
        name: len(list(enumerate_connected_partitions(inst.graph, 3)))
        for name, inst in (("cycle", cycle), ("tree", tree))
    }
    oracle_mms_values(cycle)
    assert calls == []
    for name, inst in (("cycle", cycle), ("tree", tree)):
        calls.clear()
        assert not oracle_ef_complete(inst).decision
        assert calls == [count[name]]
