"""Reduction generators and the random instance factory."""

import random
from fractions import Fraction

import pytest

from graphfair import (
    InputError,
    OracleBudget,
    classify,
    compute_type_partition,
    oracle_ef_complete,
    oracle_prop,
    prop_path_typed,
)
from graphfair.generators import (
    IndepSetInstance,
    PartitionInstance,
    RANDOM_CLASSES,
    X3cInstance,
    _random_tree_edges,
    fixture_cycle8,
    gen_indepset_ef_star,
    gen_partition_bipartite,
    gen_random,
    gen_x3c_prop_path,
)
from graphfair.model import ItemGraph

from conftest import frac_row


# ---------------------------------------------------------------------------
# exact-cover reduction


def test_x3c_tiny_layout():
    x3c = X3cInstance(("x1", "x2", "x3"), (frozenset({"x1", "x2", "x3"}),))
    assert x3c.cover_size == 1 and x3c.triple_count == 1
    inst = gen_x3c_prop_path(x3c)
    assert inst.graph.labels == ("T1.1", "T1.2", "T1.3", "b1", "w")
    assert inst.agent_names == ("triple1", "elem-x1", "elem-x2", "elem-x3", "sink")
    assert classify(inst.graph).is_path
    # n = 5: the triple player spreads 1/15 over her slots, 1/5 per big
    # vertex, remainder on the far endpoint.
    assert inst.utilities[0] == frac_row((1, 1, 1), 15) [:3] + (Fraction(1, 5), Fraction(3, 5))
    assert inst.utilities[1] == (Fraction(1, 5),) * 3 + (Fraction(0), Fraction(2, 5))
    assert inst.utilities[4] == (Fraction(0),) * 4 + (Fraction(1),)


def test_x3c_undersized_cover_is_no():
    x3c = X3cInstance(
        ("x1", "x2", "x3", "x4", "x5", "x6"),
        (frozenset({"x1", "x2", "x3"}),),
    )
    inst = gen_x3c_prop_path(x3c)
    assert inst.agent_count == 8  # 3s + r + 1 with s=2, r=1
    rep = oracle_prop(inst, OracleBudget(max_agents=8))
    assert not rep.decision


def test_x3c_frequency_guard():
    triples = (
        frozenset({"x1", "x2", "x3"}),
        frozenset({"x1", "x4", "x5"}),
        frozenset({"x1", "x2", "x4"}),
        frozenset({"x1", "x3", "x5"}),
    )
    x3c = X3cInstance(("x1", "x2", "x3", "x4", "x5", "x6"), triples)
    with pytest.raises(InputError):
        gen_x3c_prop_path(x3c)  # x1 sits in 4 triples; 12 > n = 11


def test_x3c_instance_validation():
    with pytest.raises(InputError):
        X3cInstance(("x1", "x2"), ())  # not a multiple of 3
    with pytest.raises(InputError):
        X3cInstance(("x1", "x1", "x2"), ())
    with pytest.raises(InputError):
        X3cInstance(("x1", "x2", "x3"), (frozenset({"x1", "x2"}),))
    with pytest.raises(InputError):
        X3cInstance(("x1", "x2", "x3"), (frozenset({"x1", "x2", "zz"}),))
    with pytest.raises(InputError):
        X3cInstance(
            ("x1", "x2", "x3"),
            (frozenset({"x1", "x2", "x3"}), frozenset({"x3", "x2", "x1"})),
        )


# ---------------------------------------------------------------------------
# number-partition reduction


def test_partition_examples():
    p = PartitionInstance((1, 1, 2))
    assert p.half_sum == 2
    inst = gen_partition_bipartite(p)
    assert inst.graph.labels == ("v1", "v2", "v3", "w1", "w2")
    assert inst.agent_count == 2
    assert inst.utilities[0] == inst.utilities[1]
    assert inst.utilities[0] == (
        Fraction(1, 4), Fraction(1, 4), Fraction(1, 2), Fraction(0), Fraction(0),
    )
    assert oracle_prop(inst).decision

    assert not oracle_prop(gen_partition_bipartite(PartitionInstance((3, 1)))).decision


def test_partition_validation():
    with pytest.raises(InputError):
        PartitionInstance((1, 1, 1))  # odd sum
    with pytest.raises(InputError):
        PartitionInstance(())
    with pytest.raises(InputError):
        PartitionInstance((2, 0))
    with pytest.raises(InputError):
        PartitionInstance((3, -1))


# ---------------------------------------------------------------------------
# independent-set reduction


def k2():
    return ItemGraph(("a", "b"), ((0, 1),))


def triangle():
    return ItemGraph(("a", "b", "c"), ((0, 1), (1, 2), (0, 2)))


def test_indepset_k2_layout():
    inst = gen_indepset_ef_star(IndepSetInstance(k2(), 1))
    assert inst.graph.labels == ("hub", "a", "b", "a|b", "dummy1")
    assert classify(inst.graph).is_star
    assert inst.agent_names == ("vertex-a", "vertex-b", "edge-a|b", "center")
    assert inst.utilities[0] == (
        Fraction(0), Fraction(1, 2), Fraction(0), Fraction(0), Fraction(1, 2),
    )
    assert inst.utilities[2] == (
        Fraction(0), Fraction(2, 7), Fraction(2, 7), Fraction(3, 7), Fraction(0),
    )
    assert inst.utilities[3] == (Fraction(1),) + (Fraction(0),) * 4
    assert oracle_ef_complete(inst).decision


def test_indepset_triangle_k2_is_no():
    inst = gen_indepset_ef_star(IndepSetInstance(triangle(), 2))
    assert inst.item_count == 9 and inst.agent_count == 7
    rep = oracle_ef_complete(inst, OracleBudget(max_agents=7))
    assert not rep.decision


def test_indepset_validation():
    with pytest.raises(InputError):
        IndepSetInstance(k2(), 0)
    with pytest.raises(InputError):
        IndepSetInstance(k2(), 3)
    reserved = ItemGraph(("hub", "x"), ((0, 1),))
    with pytest.raises(InputError):
        gen_indepset_ef_star(IndepSetInstance(reserved, 1))
    clash = ItemGraph(("dummy1", "x"), ((0, 1),))
    with pytest.raises(InputError):
        gen_indepset_ef_star(IndepSetInstance(clash, 1))


# ---------------------------------------------------------------------------
# fixed instance


def test_fixture_rows():
    inst = fixture_cycle8()
    assert inst.utilities[0] == frac_row((1, 4, 4, 1, 3, 2, 2, 3), 20)
    assert inst.utilities[0] == inst.utilities[1]
    assert inst.utilities[2] == frac_row((4, 4, 1, 3, 2, 2, 3, 1), 20)
    assert inst.utilities[2] == inst.utilities[3]
    assert compute_type_partition(inst).type_count == 2


# ---------------------------------------------------------------------------
# random factory


def test_gen_random_deterministic():
    a = gen_random(seed=42, cls="tree", m=7, n=3)
    b = gen_random(seed=42, cls="tree", m=7, n=3)
    assert a == b
    c = gen_random(seed=43, cls="tree", m=7, n=3)
    assert a != c


def test_gen_random_classes():
    rng = random.Random(5)
    for cls in RANDOM_CLASSES:
        for _ in range(10):
            m = rng.randint(3, 9)
            inst = gen_random(seed=rng.randrange(10**6), cls=cls, m=m, n=2)
            flags = classify(inst.graph)
            assert flags.is_connected
            if cls == "path":
                assert flags.is_path
            elif cls == "star":
                assert flags.is_star
            elif cls == "tree":
                assert flags.is_tree
            elif cls == "cycle":
                assert flags.is_cycle
    assert len(gen_random(seed=1, cls="tree", m=7, n=2).graph.edges) == 6


def random_tree_edges_reference(rng, m):
    """Prüfer decoding with a sorted leaf list, popped from the front."""
    if m == 1:
        return ()
    if m == 2:
        return ((0, 1),)
    seq = [rng.randrange(m) for _ in range(m - 2)]
    degree = [1] * m
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = sorted(v for v in range(m) if degree[v] == 1)
    for v in seq:
        edges.append((leaves.pop(0), v))
        degree[v] -= 1
        if degree[v] == 1:
            lo = 0
            while lo < len(leaves) and leaves[lo] < v:
                lo += 1
            leaves.insert(lo, v)
    edges.append((leaves[0], leaves[1]))
    return tuple(edges)


def test_random_tree_edges_match_sorted_list_decoder():
    for m in range(1, 201):
        for seed in range(3):
            rng, ref = random.Random(seed * 1000 + m), random.Random(seed * 1000 + m)
            assert _random_tree_edges(rng, m) == random_tree_edges_reference(ref, m)
            assert rng.random() == ref.random()  # the same draws were consumed


def test_gen_random_is_solver_ready():
    for seed in range(5):
        inst = gen_random(seed=seed, cls="path", m=5, n=3)
        prop_path_typed(inst)  # must not raise a class error


def test_gen_random_type_cap():
    inst = gen_random(seed=9, cls="path", m=6, n=4, types=2)
    assert compute_type_partition(inst).type_count <= 2


def test_gen_random_validation():
    with pytest.raises(InputError):
        gen_random(seed=0, cls="clique", m=4, n=2)
    with pytest.raises(InputError):
        gen_random(seed=0, cls="path", m=0, n=2)
    with pytest.raises(InputError):
        gen_random(seed=0, cls="path", m=4, n=0)
    with pytest.raises(InputError):
        gen_random(seed=0, cls="cycle", m=2, n=2)
    with pytest.raises(InputError):
        gen_random(seed=0, cls="path", m=4, n=2, denom_bound=0)
    with pytest.raises(InputError):
        gen_random(seed=0, cls="path", m=4, n=2, types=0)
