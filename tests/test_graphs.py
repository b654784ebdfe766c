"""Graph utilities: connectivity, classification, rooted trees, enumeration."""

import gc
import random
import weakref
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DIFFERENTIAL, cycle_graph, mk, path_graph, star_graph, subtree_of
from graphfair import (
    Allocation,
    InputError,
    ItemGraph,
    classify,
    enumerate_connected_partitions,
    enumerate_connected_sets,
    gen_random,
    induced_subgraph,
    is_complete,
    is_connected_set,
    is_envy_free,
    is_mms_allocation,
    is_proportional,
    is_valid,
    mms_values_raw,
    root_tree,
)
from graphfair.generators import RANDOM_CLASSES
from graphfair.graphs import (
    _component,
    _mask_bits,
    connected_partition_masks,
    connected_set_masks,
    mask_is_connected,
)


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


def test_index_of_an_unhashable_label_is_unknown():
    g = ItemGraph(("v1", "v2"), ((0, 1),))
    with pytest.raises(InputError, match=r"unknown vertex label \['v1'\]"):
        g.index_of(["v1"])


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
    # More graphs with m - 1 edges that are no trees.  The walk meets a
    # cycle's vertices again, so it must stop by itself and then raise.
    for graph in (
        ItemGraph(("a", "b", "c", "d"), ((1, 2), (2, 3), (1, 3))),  # isolated vertex first
        ItemGraph(tuple("abcdef"), ((0, 1), (1, 2), (2, 3), (0, 3), (4, 5))),  # 4-cycle, 2-path
    ):
        for root in range(graph.vertex_count):
            with pytest.raises(InputError, match="not a tree"):
                root_tree(graph, root)


def classify_reference(g):
    """The flags as the flood fill plus the colouring DFS decided them."""
    m = g.vertex_count
    degrees = [g.degree(v) for v in range(m)]
    edge_count = len(g.edges)
    connected = mask_is_connected(g, (1 << m) - 1)
    tree = connected and edge_count == m - 1
    return (
        connected,
        tree,
        tree and all(d <= 2 for d in degrees),
        tree and sum(1 for d in degrees if d >= 2) <= 1,
        connected and edge_count == m and all(d == 2 for d in degrees),
        _bipartite_brute(g),
    )


def test_classify_matches_flood_reference():
    rng = random.Random(2323)
    graphs = []
    for trial in range(400):
        cls = RANDOM_CLASSES[trial % len(RANDOM_CLASSES)]
        m = rng.randint(3 if cls == "cycle" else 1, 14)
        g = gen_random(seed=trial + 2300, cls=cls, m=m, n=1).graph
        graphs.append(g)
        if g.edges:  # one edge deleted: a forest, or one edge fewer
            drop = rng.randrange(len(g.edges))
            graphs.append(ItemGraph(g.labels, g.edges[:drop] + g.edges[drop + 1 :]))
        pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
        keep = rng.random()
        graphs.append(ItemGraph(g.labels, [e for e in pairs if rng.random() < keep]))
    assert len(graphs) >= 1000
    seen = set()
    for g in graphs:
        flags = classify(g)
        got = (flags.is_connected, flags.is_tree, flags.is_path, flags.is_star,
               flags.is_cycle, flags.is_bipartite)
        assert got == classify_reference(g), g
        seen.add(got)
    # connected or not, tree, path, star, cycle, bipartite or not all occur
    for k in range(6):
        assert {flags[k] for flags in seen} == {False, True}


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


def _one_bundle(v):
    """One agent of a 3-path holding the bundle {v}: a verifier's arguments."""
    return mk(path_graph(3), ("1/3", "1/3", "1/3")), Allocation((frozenset({v}),))


# Each entry point takes one int argument: a part count, a root, or a vertex
# (the verifiers' bundle vertices go through ``_check_alloc_shape``).
INT_ARGUMENT_CALLS = {
    "partitions": lambda k: list(enumerate_connected_partitions(cycle_graph(3), k)),
    "partition-masks": lambda k: list(connected_partition_masks(cycle_graph(3), k)),
    "mms-values-raw": lambda k: mms_values_raw(cycle_graph(3), [(1, 1, 1)], k),
    "root-tree": lambda root: root_tree(path_graph(3), root),
    "is-connected-set": lambda v: is_connected_set(cycle_graph(3), [0, v]),
    "induced-subgraph": lambda v: induced_subgraph(cycle_graph(3), [0, v]),
    "is-valid": lambda v: is_valid(*_one_bundle(v)),
    "is-proportional": lambda v: is_proportional(*_one_bundle(v)),
    "is-envy-free": lambda v: is_envy_free(*_one_bundle(v)),
    "is-complete": lambda v: is_complete(*_one_bundle(v)),
    "is-mms-allocation": lambda v: is_mms_allocation(*_one_bundle(v), (0,)),
}
_VERTEX_ENTRIES = ("is-connected-set", "induced-subgraph", "is-valid", "is-proportional",
                   "is-envy-free", "is-complete", "is-mms-allocation")


@pytest.mark.parametrize("entry, value", [
    *((entry, k) for entry in ("partitions", "partition-masks", "mms-values-raw")
      for k in (2.0, "2", None)),
    ("root-tree", 0.0), ("root-tree", "0"),
    *((entry, v) for entry in _VERTEX_ENTRIES for v in ("a", 1.0)),
])
def test_non_int_arguments_are_input_errors(entry, value):
    """A non-int count, root or vertex is an ``InputError``, never a ``TypeError``.

    A float that equals an int is refused too, rather than read as that int.
    """
    with pytest.raises(InputError):
        INT_ARGUMENT_CALLS[entry](value)


def test_bool_arguments_count_as_ints():
    assert len(list(connected_partition_masks(cycle_graph(3), True))) == 1
    assert root_tree(path_graph(3), False).root == 0
    assert is_connected_set(cycle_graph(3), [0, True])


# The partition and connected-set streams as they were before they moved to
# one flood fill and a carried frontier, kept as the order reference.
def _reference_connected_set_masks(g):
    m = g.vertex_count
    nbr = g.neighbor_masks
    full = (1 << m) - 1

    def grow(s, excluded, allowed):
        frontier = 0
        rest = s
        while rest:
            v = rest & -rest
            rest &= rest - 1
            frontier |= nbr[v.bit_length() - 1]
        cands = frontier & allowed & ~s & ~excluded
        if cands == 0:
            yield s
            return
        w = cands & -cands
        yield from grow(s | w, excluded, allowed)
        yield from grow(s, excluded | w, allowed)

    for v in range(m):
        allowed = full & ~((1 << v) - 1)
        yield from grow(1 << v, 0, allowed)


def _reference_tree_partitions(g, k):
    m = g.vertex_count
    for removed in combinations(range(len(g.edges)), k - 1):
        removed_set = set(removed)
        adj = [[] for _ in range(m)]
        for idx, (a, b) in enumerate(g.edges):
            if idx not in removed_set:
                adj[a].append(b)
                adj[b].append(a)
        seen = [False] * m
        parts = []
        for s in range(m):
            if seen[s]:
                continue
            comp = []
            stack = [s]
            seen[s] = True
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            parts.append(frozenset(comp))
        parts.sort(key=min)
        yield tuple(parts)


def _reference_generic_partitions(g, k):
    m = g.vertex_count
    nbr = g.neighbor_masks
    full = (1 << m) - 1

    def can_still_connect(part, remaining):
        scope = part | remaining
        start = part & -part
        reached = start
        frontier = start
        while frontier:
            v = frontier & -frontier
            frontier &= frontier - 1
            grow = nbr[v.bit_length() - 1] & scope & ~reached
            reached |= grow
            frontier |= grow
        return part & ~reached == 0

    def assign(v, parts):
        if v == m:
            if len(parts) == k:
                yield tuple(frozenset(_mask_bits(p)) for p in parts)
            return
        remaining = full & ~((1 << (v + 1)) - 1)
        bit = 1 << v
        open_budget = m - v - (k - len(parts))
        for idx in range(len(parts)):
            if open_budget < 0:
                break
            grown = parts[idx] | bit
            parts[idx] = grown
            if all(can_still_connect(p, remaining) for p in parts):
                yield from assign(v + 1, parts)
            parts[idx] = grown & ~bit
        if len(parts) < k:
            parts.append(bit)
            if all(can_still_connect(p, remaining) for p in parts):
                yield from assign(v + 1, parts)
            parts.pop()

    yield from assign(1, [1])


def _reference_partitions(g, k):
    if k > g.vertex_count:
        return []
    if classify(g).is_tree:
        return list(_reference_tree_partitions(g, k))
    return list(_reference_generic_partitions(g, k))


def test_streams_match_reference_order():
    """1,000 seeded graphs; trees and cycles also with their first edge deleted.

    Deleting an edge from a cycle leaves a path, which takes the tree route,
    and from a tree a forest with m - 2 edges, which does not.  A graph on
    8 or 9 vertices has thousands of partitions, so only every tenth graph
    of each class may have more than 7 vertices.
    """
    rng = random.Random(1717)
    for trial in range(1000):
        cls = RANDOM_CLASSES[trial % len(RANDOM_CLASSES)]
        top = 9 if trial % 50 < len(RANDOM_CLASSES) else 7
        m = rng.randint(3 if cls == "cycle" else 1, top)
        g = gen_random(trial + 17000, cls, m, 1).graph
        cut = () if cls == "connected" else (ItemGraph(g.labels, g.edges[1:]),)
        for h in (g, *cut):
            sets = list(_reference_connected_set_masks(h))
            assert list(connected_set_masks(h)) == sets
            assert list(enumerate_connected_sets(h)) == [frozenset(_mask_bits(s)) for s in sets]
            for k in range(1, m + 2):
                expected = _reference_partitions(h, k)
                assert list(enumerate_connected_partitions(h, k)) == expected
                masks = list(connected_partition_masks(h, k))
                assert [tuple(frozenset(_mask_bits(p)) for p in ps) for ps in masks] == expected


@settings(DIFFERENTIAL, max_examples=300)
@given(data=st.data())
def test_component_matches_set_bfs(data):
    m = data.draw(st.integers(1, 10))
    pairs = list(combinations(range(m), 2))
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = ItemGraph(tuple(f"v{i}" for i in range(m)), tuple(edges))
    scope = data.draw(st.integers(0, (1 << m) - 1))
    start = data.draw(st.sampled_from([0] + [1 << v for v in range(m)]))

    inside = set(_mask_bits(scope))
    reached = set(_mask_bits(start))
    queue = list(reached)
    while queue:
        v = queue.pop(0)
        for w in g.neighbors(v):
            if w in inside and w not in reached:
                reached.add(w)
                queue.append(w)
    assert set(_mask_bits(_component(g.neighbor_masks, start, scope))) == reached
    assert mask_is_connected(g, 0)
