"""Graph utilities: connectivity, classification, rooted trees, enumeration."""

import gc
import random
import weakref
from itertools import combinations
from math import comb

import pytest

from conftest import cycle_graph, path_graph, star_graph, subtree_of
from graphfair import (
    InputError,
    ItemGraph,
    classify,
    enumerate_connected_partitions,
    enumerate_connected_sets,
    gen_random,
    induced_subgraph,
    is_connected_set,
    root_tree,
)
from graphfair.graphs import mask_is_connected


def test_item_graph_validation():
    with pytest.raises(InputError):
        ItemGraph(("a", "a"), ())
    with pytest.raises(InputError):
        ItemGraph(("a", "b"), ((0, 0),))  # self-loop
    with pytest.raises(InputError):
        ItemGraph(("a", "b"), ((0, 2),))  # out of range
    with pytest.raises(InputError):
        ItemGraph(("a", "b"), ((1, 0), (0, 1)))  # same edge twice
    g = ItemGraph(("a", "b", "c"), ((2, 0), (1, 0)))
    assert g.edges == ((0, 1), (0, 2))  # stored canonically
    assert g.index_of("b") == 1
    with pytest.raises(InputError):
        g.index_of("zzz")


def test_is_connected_set_path3():
    g = path_graph(3)
    assert is_connected_set(g, {0, 1})
    assert not is_connected_set(g, {0, 2})
    assert is_connected_set(g, set())
    assert is_connected_set(g, {0, 1, 2})


def test_graph_is_collected_after_mask_use():
    # The neighbor masks live on the graph, so nothing outside it keeps a
    # graph alive once a connectivity test has used it.
    g = cycle_graph(9)
    assert mask_is_connected(g, 0b111)
    assert g.neighbor_masks[0] == 0b100000010
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


def test_classify_fixed_graphs():
    c8 = classify(cycle_graph(8))
    assert c8.is_cycle and c8.is_connected and c8.is_bipartite
    assert not (c8.is_tree or c8.is_path or c8.is_star)

    k13 = classify(star_graph(3))
    assert k13.is_star and k13.is_tree and not k13.is_path

    p5 = classify(path_graph(5))
    assert p5.is_path and p5.is_tree and not p5.is_star

    single = classify(ItemGraph(("v",), ()))
    assert single.is_path and single.is_star and single.is_tree

    assert not classify(cycle_graph(3)).is_bipartite
    scattered = classify(ItemGraph(("a", "b"), ()))
    assert not scattered.is_connected and not scattered.is_tree


def test_classify_matches_brute_force():
    rng = random.Random(4)
    for trial in range(60):
        m = rng.randint(1, 12)
        keep = rng.random()
        pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
        edges = tuple(e for e in pairs if rng.random() < keep)
        g = ItemGraph(tuple(f"v{i}" for i in range(m)), edges)
        flags = classify(g)
        connected = is_connected_set(g, set(range(m)))
        assert flags.is_connected == connected
        assert flags.is_tree == (connected and len(g.edges) == m - 1)
        degrees = sorted(g.degree(v) for v in range(m))
        assert flags.is_path == (
            flags.is_tree and (m == 1 or degrees[-1] <= 2)
        )
        assert flags.is_star == (
            flags.is_tree and sum(1 for d in degrees if d >= 2) <= 1
        )
        assert flags.is_cycle == (
            connected and len(g.edges) == m and all(d == 2 for d in degrees)
        )
        assert flags.is_bipartite == _bipartite_brute(g)


def _bipartite_brute(g):
    m = g.vertex_count
    color = [None] * m
    for start in range(m):
        if color[start] is not None:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w in g.neighbors(v):
                if color[w] is None:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def test_root_tree_views():
    g = path_graph(3)
    view = root_tree(g, 0)
    assert subtree_of(view, 1) == frozenset({1, 2})
    assert view.root == 0 and view.children[0] == (1,)
    assert view.postorder == (2, 1, 0)
    assert view.parent == (-1, 0, 1)

    single = root_tree(ItemGraph(("v",), ()), 0)
    assert subtree_of(single, 0) == frozenset({0})

    star = star_graph(3)
    sview = root_tree(star, 0)
    for leaf in (1, 2, 3):
        assert subtree_of(sview, leaf) == frozenset({leaf})
    assert root_tree(star, 2).parent == (2, 0, -1, 0)


def test_root_tree_errors():
    with pytest.raises(InputError):
        root_tree(cycle_graph(4), 0)
    for root in (-1, 4):
        with pytest.raises(InputError):
            root_tree(path_graph(4), root)
    # a triangle plus an isolated vertex: m - 1 edges, but no tree
    forest = ItemGraph(("a", "b", "c", "d"), ((0, 1), (1, 2), (0, 2)))
    with pytest.raises(InputError):
        root_tree(forest, 0)
    with pytest.raises(InputError):
        root_tree(forest, 3)


def test_enumerate_connected_sets_counts():
    assert len(list(enumerate_connected_sets(path_graph(3)))) == 6
    assert len(list(enumerate_connected_sets(cycle_graph(3)))) == 7
    assert len(list(enumerate_connected_sets(ItemGraph(("v",), ())))) == 1
    # paths have m(m+1)/2 nonempty connected sets: the intervals
    for m in (2, 4, 6, 8):
        count = len(list(enumerate_connected_sets(path_graph(m))))
        assert count == m * (m + 1) // 2


def test_enumerate_connected_sets_properties():
    rng = random.Random(8)
    for trial in range(25):
        m = rng.randint(1, 8)
        inst = gen_random(200 + trial, "connected", m, 1)
        seen = set()
        for s in enumerate_connected_sets(inst.graph):
            assert s not in seen
            seen.add(s)
            assert is_connected_set(inst.graph, s)
        # cross-count against the definition
        brute = sum(
            1
            for r in range(1, m + 1)
            for combo in combinations(range(m), r)
            if is_connected_set(inst.graph, combo)
        )
        assert len(seen) == brute


def test_partitions_of_trees_count():
    rng = random.Random(21)
    for trial in range(20):
        m = rng.randint(2, 9)
        g = gen_random(300 + trial, "tree", m, 1).graph
        for k in range(1, m + 1):
            parts = list(enumerate_connected_partitions(g, k))
            assert len(parts) == comb(m - 1, k - 1)
            for p in parts:
                assert sum(len(x) for x in p) == m
                assert all(is_connected_set(g, x) for x in p)


def test_partitions_cycle8_quarterings():
    # exactly two ways to split the 8-cycle into four adjacent pairs
    quads = [
        p
        for p in enumerate_connected_partitions(cycle_graph(8), 4)
        if all(len(x) == 2 for x in p)
    ]
    as_sets = {frozenset(p) for p in quads}
    p1 = frozenset(
        {
            frozenset({0, 1}),
            frozenset({2, 3}),
            frozenset({4, 5}),
            frozenset({6, 7}),
        }
    )
    p2 = frozenset(
        {
            frozenset({1, 2}),
            frozenset({3, 4}),
            frozenset({5, 6}),
            frozenset({7, 0}),
        }
    )
    assert as_sets == {p1, p2}


def test_partitions_edge_cases():
    g = path_graph(3)
    assert list(enumerate_connected_partitions(g, 1)) == [
        (frozenset({0, 1, 2}),)
    ]
    assert list(enumerate_connected_partitions(g, 4)) == []
    with pytest.raises(InputError):
        list(enumerate_connected_partitions(g, 0))


def test_partitions_generic_matches_brute_force():
    rng = random.Random(13)
    for trial in range(12):
        m = rng.randint(2, 6)
        g = gen_random(400 + trial, "connected", m, 1).graph
        for k in range(1, m + 1):
            mine = {frozenset(p) for p in enumerate_connected_partitions(g, k)}
            brute = {
                frozenset(frozenset(part) for part in p)
                for p in _brute_partitions(list(range(m)), k)
                if all(is_connected_set(g, part) for part in p)
            }
            assert mine == brute


def _brute_partitions(items, k):
    if not items:
        if k == 0:
            yield []
        return
    head, rest = items[0], items[1:]
    for p in _brute_partitions(rest, k):
        for i in range(len(p)):
            yield p[:i] + [p[i] + [head]] + p[i + 1 :]
    for p in _brute_partitions(rest, k - 1):
        yield p + [[head]]


def test_induced_subgraph():
    g = cycle_graph(5)
    sub, mapping = induced_subgraph(g, {0, 1, 3})
    assert mapping == (0, 1, 3)
    assert sub.labels == ("v1", "v2", "v4")
    assert sub.edges == ((0, 1),)
