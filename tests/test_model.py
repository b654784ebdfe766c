"""Core model: instances, allocations, verifiers, agent types."""

import importlib
import pkgutil
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import permutations
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    DIFFERENTIAL,
    frac_row,
    mk,
    path_graph,
    random_row,
    types_by_equality,
)
from graphfair import (
    Allocation,
    InputError,
    Instance,
    ItemGraph,
    bundle_value,
    compute_type_partition,
    enumerate_connected_partitions,
    fixture_cycle8,
    gen_random,
    is_complete,
    is_envy_free,
    is_mms_allocation,
    is_proportional,
    is_valid,
    make_report,
    normalize_utilities,
    oracle_mms_values,
)
from graphfair.model import at_least, integer_grid
from graphfair.serialize import instance_from_dict

C8 = fixture_cycle8()
P1 = Allocation(
    (
        frozenset({0, 1}),
        frozenset({2, 3}),
        frozenset({4, 5}),
        frozenset({6, 7}),
    )
)


def test_instance_validation():
    g = path_graph(2)
    with pytest.raises(InputError):
        Instance(g, ("a", "a"), ((Fraction(1), Fraction(0)),) * 2)  # dup names
    for names in ((1, None), ("a", ("b",))):
        with pytest.raises(InputError, match="agent names must be strings"):
            Instance(g, names, ((Fraction(1), Fraction(0)),) * 2)
    with pytest.raises(InputError):
        Instance(g, ("a",), ((Fraction(1, 2),),))  # wrong row length
    with pytest.raises(InputError):
        Instance(g, ("a",), ((Fraction(1, 2), Fraction(1, 4)),))  # sum != 1
    with pytest.raises(InputError):
        Instance(g, ("a",), ((Fraction(3, 2), Fraction(-1, 2)),))  # negative
    with pytest.raises(InputError):
        Instance(g, (), ())  # no agents


def test_instance_validation_messages():
    g = path_graph(3)
    with pytest.raises(InputError) as exc:
        Instance(g, ("a", "b"), ((1, 0, 0), (Fraction(3, 2), Fraction(-1, 2), 0)))
    assert str(exc.value) == "negative utility for agent 'b'"
    with pytest.raises(InputError) as exc:
        Instance(g, ("a",), ((Fraction(1, 2), Fraction(1, 3), Fraction(1, 12)),))
    assert str(exc.value) == "utilities of agent 'a' sum to 11/12, expected exactly 1"
    with pytest.raises(InputError) as exc:
        Instance(g, ("a",), ((1, 1, 0),))
    assert str(exc.value) == "utilities of agent 'a' sum to 2, expected exactly 1"


def test_item_graph_rejects_float_endpoint():
    with pytest.raises(InputError, match="not a pair of int"):
        ItemGraph(("a", "b"), ((0, 1.0),))


def test_item_graph_rejects_edge_of_three():
    with pytest.raises(InputError, match="not a pair of int"):
        ItemGraph(("a", "b", "c"), ((0, 1, 2),))


def test_item_graph_rejects_str_endpoint():
    with pytest.raises(InputError, match="not a pair of int"):
        ItemGraph(("a", "b"), ((0, "1"),))


def test_item_graph_rejects_missing_field():
    for labels, edges in ((("a", "b"), None), (None, ((0, 1),))):
        with pytest.raises(InputError, match="must be sequences"):
            ItemGraph(labels, edges)


def test_item_graph_rejects_non_str_label():
    for labels in (("a", ("b",)), ("a", 1)):
        with pytest.raises(InputError, match="must be strings"):
            ItemGraph(labels, ())


def test_instance_rejects_missing_row():
    with pytest.raises(InputError, match="not a sequence"):
        Instance(path_graph(2), ("a",), (None,))


def test_instance_rejects_missing_field():
    row = (Fraction(1, 2), Fraction(1, 2))
    for names, rows in ((("a",), None), (None, (row,))):
        with pytest.raises(InputError, match="must be sequences"):
            Instance(path_graph(2), names, rows)


def test_instance_rejects_unparsable_str_entry():
    g = path_graph(2)
    for bad in ("half", "1/0"):
        with pytest.raises(InputError, match="not an exact rational"):
            Instance(g, ("a",), ((bad, "1/2"),))


def test_instance_sum_too_long_to_print():
    # The wrong sum has more digits than int-to-str conversion allows.
    g = path_graph(2)
    with pytest.raises(InputError) as exc:
        Instance(g, ("a",), (("9" * 4300, "1/3"),))
    assert str(exc.value) == "utilities of agent 'a' do not sum to exactly 1"
    doc = {
        "graph": {"vertices": ["x", "y"], "edges": [["x", "y"]]},
        "agents": [{"name": "a", "utilities": {"x": "9" * 4300, "y": "1/3"}}],
    }
    with pytest.raises(InputError) as exc:
        instance_from_dict(doc)
    assert str(exc.value) == "utilities of agent 'a' do not sum to exactly 1"


def test_every_export_is_bound():
    import graphfair

    modules = [graphfair] + [
        importlib.import_module(f"graphfair.{info.name}")
        for info in pkgutil.iter_modules(graphfair.__path__)
        if not info.name.startswith("_")
    ]
    assert len(modules) > 5
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)


def test_instance_accepts_int_and_str_rows():
    g = path_graph(3)
    from_ints = Instance(g, ("a",), ((0, 1, 0),))
    from_strs = Instance(g, ("a",), (("1/6", " 1/3", "0.5"),))
    assert from_ints.utilities == ((Fraction(0), Fraction(1), Fraction(0)),)
    assert from_strs.utilities == ((Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)),)
    assert all(type(x) is Fraction for x in from_ints.utilities[0] + from_strs.utilities[0])


def test_normalize_utilities():
    assert normalize_utilities((1, 1, 2)) == (
        Fraction(1, 4),
        Fraction(1, 4),
        Fraction(1, 2),
    )
    assert sum(normalize_utilities((Fraction(1, 3), Fraction(1, 7)))) == 1
    with pytest.raises(InputError):
        normalize_utilities((0, 0))
    with pytest.raises(InputError):
        normalize_utilities((2, -1))


def test_bundle_value_cycle8_agent1():
    # agent 1 on the first two cycle vertices: (1+4)/20
    assert bundle_value(C8, 0, {0, 1}) == Fraction(1, 4)


def test_bundle_value_cycle8_agent3():
    # agent 3 on vertices 5,6 of the cycle: (2+2)/20
    assert bundle_value(C8, 2, {4, 5}) == Fraction(1, 5)


def test_bundle_value_empty_and_additive():
    assert bundle_value(C8, 0, frozenset()) == 0
    rng = random.Random(3)
    inst = gen_random(5, "connected", 7, 2)
    for _ in range(50):
        a = {v for v in range(7) if rng.random() < 0.4}
        b = {v for v in range(7) if rng.random() < 0.4} - a
        assert bundle_value(inst, 0, a | b) == bundle_value(inst, 0, a) + bundle_value(
            inst, 0, b
        )


def test_is_valid_examples():
    assert is_valid(C8, P1)
    inst = mk(path_graph(3), frac_row((1, 1, 1), 3))
    assert not is_valid(inst, Allocation((frozenset({0, 2}),)))
    assert is_valid(C8, Allocation((frozenset(),) * 4))


def test_is_valid_shape_errors():
    inst = mk(path_graph(3), frac_row((1, 1, 1), 3))
    with pytest.raises(InputError):
        is_valid(inst, Allocation((frozenset(), frozenset())))
    with pytest.raises(InputError):
        is_valid(inst, Allocation((frozenset({7}),)))


def test_is_proportional_examples():
    assert not is_proportional(C8, P1)  # agent 3 gets 4/20 < 1/4
    solo = mk(path_graph(3), frac_row((1, 1, 1), 3))
    assert is_proportional(solo, Allocation((frozenset({0, 1, 2}),)))
    pair = mk(
        path_graph(3),
        frac_row((1, 0, 1), 2),
        frac_row((1, 0, 1), 2),
    )
    assert is_proportional(
        pair, Allocation((frozenset({0}), frozenset({1, 2})))
    )


def test_is_envy_free_examples():
    assert is_envy_free(C8, Allocation((frozenset(),) * 4))
    grabby = mk(path_graph(2), (Fraction(1), Fraction(0)), (Fraction(1), Fraction(0)))
    assert not is_envy_free(
        grabby, Allocation((frozenset({0}), frozenset({1})))
    )
    solo = mk(path_graph(2), frac_row((1, 1), 2))
    assert is_envy_free(solo, Allocation((frozenset({0}),)))


def test_is_complete_examples():
    assert is_complete(C8, P1)
    assert not is_complete(C8, Allocation((frozenset(),) * 4))
    two = mk(path_graph(2), frac_row((1, 1), 2), frac_row((1, 1), 2))
    assert is_complete(two, Allocation((frozenset({0}), frozenset({1}))))


def test_is_mms_allocation_examples():
    quarter = (Fraction(1, 4),) * 4
    assert not is_mms_allocation(C8, P1, quarter)
    zeros = (Fraction(0),) * 4
    assert is_mms_allocation(C8, Allocation((frozenset(),) * 4), zeros)
    pair = mk(path_graph(3), frac_row((1, 1, 1), 3), frac_row((1, 1, 1), 3))
    third = (Fraction(1, 3), Fraction(1, 3))
    assert is_mms_allocation(
        pair, Allocation((frozenset({0}), frozenset({1, 2}))), third
    )


def test_compute_type_partition():
    types = compute_type_partition(C8)
    assert types.type_count == 2
    assert types.members == ((0, 1), (2, 3))
    assert types.agents_per_type == (2, 2)

    solo = mk(path_graph(2), frac_row((1, 1), 2))
    assert compute_type_partition(solo).type_count == 1

    distinct = mk(
        path_graph(3),
        frac_row((1, 0, 0), 1),
        frac_row((0, 1, 0), 1),
        frac_row((0, 0, 1), 1),
    )
    assert compute_type_partition(distinct).type_count == 3


def test_type_partition_matches_row_equality():
    # Every row is rebuilt from a pool row as new Fraction objects, through an
    # unreduced numerator and denominator, so equal rows are never one object.
    rng = random.Random(1818)
    for _ in range(600):
        m, n = rng.randint(1, 6), rng.randint(1, 7)
        pool = [random_row(rng, m, bound=rng.choice((1, 2, 9))) for _ in range(3)]
        rows = []
        for _ in range(n):
            k = rng.randint(1, 5)
            row = rng.choice(pool)
            rows.append(tuple(Fraction(x.numerator * k, x.denominator * k) for x in row))
        inst = Instance(path_graph(m), tuple(f"a{i}" for i in range(n)), tuple(rows))
        assert compute_type_partition(inst).type_of_agent == types_by_equality(inst)
def test_make_report_fields():
    inst = mk(path_graph(2), frac_row((1, 1), 2), frac_row((1, 1), 2))
    alloc = Allocation((frozenset({0}), frozenset({1})))
    rep = make_report(inst, "oracle", alloc, quotas=(Fraction(1, 2),) * 2)
    assert rep.decision and rep.method == "oracle"
    assert rep.achieved == (Fraction(1, 2), Fraction(1, 2))
    assert rep.quotas == (Fraction(1, 2), Fraction(1, 2))
    negative = make_report(inst, "oracle", None)
    assert not negative.decision and negative.achieved is None


def _complete_allocations(inst):
    """Every complete valid allocation, via partitions plus assignments."""
    n = inst.agent_count
    for parts in enumerate_connected_partitions(inst.graph, n):
        for perm in permutations(range(n)):
            yield Allocation(tuple(parts[perm[i]] for i in range(n)))


def test_fairness_implications_on_enumerated_allocations():
    # envy-free + complete => proportional; proportional => maximin-share
    rng = random.Random(19)
    for trial in range(40):
        n = rng.randint(2, 3)
        m = rng.randint(n, 5)
        cls = rng.choice(("path", "star", "tree", "connected"))
        inst = gen_random(1000 + trial, cls, m, n)
        mms = oracle_mms_values(inst)
        for alloc in _complete_allocations(inst):
            if is_envy_free(inst, alloc):
                assert is_proportional(inst, alloc)
            if is_proportional(inst, alloc):
                assert is_mms_allocation(inst, alloc, mms)


def test_verifiers_do_not_mutate():
    inst = fixture_cycle8()
    alloc = Allocation(P1.bundles)
    before = (inst, Allocation(P1.bundles))
    is_valid(inst, alloc)
    is_proportional(inst, alloc)
    is_envy_free(inst, alloc)
    is_complete(inst, alloc)
    assert inst == before[0] and alloc == before[1]


def test_utilities_coerced_to_fraction():
    inst = mk(path_graph(2), (Fraction(1, 2), Fraction(1, 2)))
    assert all(isinstance(x, Fraction) for x in inst.utilities[0])
    r = random_row(random.Random(0), 4)
    assert sum(r) == 1


# Thresholds below 0, at 0, inside (0, 1), at 1 and above 1.
FIXED_THRESHOLDS = (Fraction(-5, 2), Fraction(-1, 7), 0, Fraction(1, 3), Fraction(5, 7), 1, Fraction(9, 4))


@settings(DIFFERENTIAL, max_examples=200)
@given(
    rows=st.lists(
        st.lists(
            st.one_of(st.just(0), st.integers(0, 3), st.fractions(0, 3, max_denominator=12)),
            min_size=1,
            max_size=6,
        ),
        min_size=1,
        max_size=4,
    ),
    drawn=st.lists(st.fractions(-3, 3, max_denominator=20), max_size=3),
)
def test_integer_grid_is_exact(rows, drawn):
    scales, scaled = integer_grid(rows)
    assert len(scales) == len(scaled) == len(rows)
    for row, scale, ints in zip(rows, scales, scaled):
        assert scale == lcm(*(Fraction(x).denominator for x in row))
        assert all(type(v) is int for v in ints)
        assert list(ints) == [x * scale for x in row]
        for t in FIXED_THRESHOLDS + tuple(drawn):
            need = at_least(t, scale)
            for v in range(need - 2, need + 3):
                assert (Fraction(v, scale) >= t) == (v >= need)


def test_instance_grid_computed_once_and_invisible():
    rng = random.Random(11)
    for seed in range(40):
        inst = gen_random(seed=seed, cls="tree", m=rng.randint(1, 9),
                          n=rng.randint(1, 4), denom_bound=rng.choice([1, 3, 10]))
        copy = Instance(inst.graph, inst.agent_names, inst.utilities)
        assert inst == copy
        before = (repr(inst), hash(inst))
        grid = inst.grid
        assert inst.grid is grid
        scales, rows = grid
        assert isinstance(scales, tuple) and all(isinstance(r, tuple) for r in rows)
        for row, scale, ints in zip(inst.utilities, scales, rows):
            assert scale == lcm(*(x.denominator for x in row))
            assert list(ints) == [x * scale for x in row]
        assert (repr(inst), hash(inst)) == before == (repr(copy), hash(copy))
        assert inst == copy and copy == inst
        with pytest.raises(FrozenInstanceError):
            inst.utilities = ()
        with pytest.raises(FrozenInstanceError):
            inst.grid = grid
