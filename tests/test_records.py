"""The frozen records: equality, hash, repr, pickling, copying and immutability.

Every record class of the package is pinned here by one sample: its fields in
order, its exact ``repr``, ``==`` against an equal record built anew and
``!=`` against a record of another class, a field tuple and None, a hash
equal to the hash of its field tuple, a pickle round trip at every protocol,
``copy.deepcopy``, and ``FrozenInstanceError`` on assigning or deleting a
field.
"""

import copy
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from graphfair.generators import IndepSetInstance, PartitionInstance, X3cInstance
from graphfair.graphs import GraphClass, RootedTreeView, classify, root_tree
from graphfair.mms_tree import DiminisherRound, DiminisherTrace
from graphfair.model import (
    AgentTypePartition,
    Allocation,
    Instance,
    ItemGraph,
    SolveReport,
)
from graphfair.oracle import OracleBudget
from graphfair.solvers import Method

GRAPH_REPR = "ItemGraph(labels=('a', 'b', 'c'), edges=((0, 1), (1, 2)))"


def graph():
    return ItemGraph(("a", "b", "c"), ((1, 2), (0, 1)))


def instance():
    half = (Fraction(1, 2), Fraction(1, 2), Fraction(0))
    return Instance(graph(), ("x", "y"), (half, (Fraction(0), Fraction(0), Fraction(1))))


def grid_instance():
    return Instance.from_grid(graph(), ("x",), ((2,), ((1, 1, 0),)))


def trace():
    step = DiminisherRound(1, 2, frozenset({2}), frozenset({0, 1, 2}))
    return DiminisherTrace((Fraction(1, 2),), (step,))


# (id, build, fields in order, repr, a record of another class)
SAMPLES = [
    ("ItemGraph", graph, ("labels", "edges"), GRAPH_REPR,
     lambda: X3cInstance(("e1", "e2", "e3"), (("e1", "e2", "e3"),))),
    ("Instance", instance, ("graph", "agent_names", "utilities"),
     f"Instance(graph={GRAPH_REPR}, agent_names=('x', 'y'), "
     "utilities=((Fraction(1, 2), Fraction(1, 2), Fraction(0, 1)), "
     "(Fraction(0, 1), Fraction(0, 1), Fraction(1, 1))))",
     lambda: IndepSetInstance(graph(), 2)),
    ("Instance.from_grid", grid_instance, ("graph", "agent_names", "utilities"),
     f"Instance(graph={GRAPH_REPR}, agent_names=('x',), "
     "utilities=((Fraction(1, 2), Fraction(1, 2), Fraction(0, 1)),))",
     lambda: IndepSetInstance(graph(), 1)),
    ("AgentTypePartition", lambda: AgentTypePartition((1, 3, 2)), ("type_of_agent",),
     "AgentTypePartition(type_of_agent=(1, 3, 2))",
     lambda: PartitionInstance((1, 3, 2))),
    ("Allocation", lambda: Allocation((frozenset({0}), frozenset({1, 2}))), ("bundles",),
     "Allocation(bundles=(frozenset({0}), frozenset({1, 2})))",
     lambda: AgentTypePartition((frozenset({0}), frozenset({1, 2})))),
    ("SolveReport",
     lambda: SolveReport(True, "greedy", Allocation((frozenset({0, 1, 2}),)), (Fraction(1),)),
     ("decision", "method", "witness", "achieved", "quotas"),
     "SolveReport(decision=True, method='greedy', "
     "witness=Allocation(bundles=(frozenset({0, 1, 2}),)), "
     "achieved=(Fraction(1, 1),), quotas=None)",
     lambda: Allocation((frozenset({0, 1, 2}),))),
    ("SolveReport.quotas",
     lambda: SolveReport(False, "ef-path", None, None, quotas=(Fraction(1, 3),)),
     ("decision", "method", "witness", "achieved", "quotas"),
     "SolveReport(decision=False, method='ef-path', witness=None, achieved=None, "
     "quotas=(Fraction(1, 3),))",
     lambda: DiminisherRound(False, "ef-path", None, None)),
    ("GraphClass", lambda: classify(graph()),
     ("is_connected", "is_tree", "is_path", "is_star", "is_cycle", "is_bipartite"),
     "GraphClass(is_connected=True, is_tree=True, is_path=True, is_star=True, "
     "is_cycle=False, is_bipartite=True)",
     lambda: OracleBudget(True, True, True)),
    ("RootedTreeView", lambda: root_tree(graph(), 0),
     ("root", "children", "postorder", "parent"),
     "RootedTreeView(root=0, children=((1,), (2,), ()), postorder=(2, 1, 0), "
     "parent=(-1, 0, 1))",
     lambda: DiminisherRound(0, ((1,), (2,), ()), (2, 1, 0), (-1, 0, 1))),
    ("DiminisherRound", lambda: DiminisherRound(0, None, frozenset({1}), frozenset({0, 1})),
     ("agent", "vertex", "awarded", "residual_before"),
     "DiminisherRound(agent=0, vertex=None, awarded=frozenset({1}), "
     "residual_before=frozenset({0, 1}))",
     lambda: RootedTreeView(0, None, frozenset({1}), frozenset({0, 1}))),
    ("DiminisherTrace", trace, ("quotas", "rounds"),
     "DiminisherTrace(quotas=(Fraction(1, 2),), rounds=(DiminisherRound(agent=1, "
     "vertex=2, awarded=frozenset({2}), residual_before=frozenset({0, 1, 2})),))",
     lambda: X3cInstance(("e1", "e2", "e3"), ())),
    ("X3cInstance", lambda: X3cInstance(("e1", "e2", "e3"), (("e1", "e2", "e3"),)),
     ("elements", "triples"),
     "X3cInstance(elements=('e1', 'e2', 'e3'), triples=(('e1', 'e2', 'e3'),))",
     lambda: DiminisherTrace(("e1", "e2", "e3"), (("e1", "e2", "e3"),))),
    ("PartitionInstance", lambda: PartitionInstance((1, 3, 2)), ("values",),
     "PartitionInstance(values=(1, 3, 2))",
     lambda: AgentTypePartition((1, 3, 2))),
    ("IndepSetInstance", lambda: IndepSetInstance(graph(), 2), ("graph", "k"),
     f"IndepSetInstance(graph={GRAPH_REPR}, k=2)",
     lambda: RootedTreeView(graph(), 2, None, None)),
    ("OracleBudget", OracleBudget, ("max_items", "max_agents", "max_enumerated"),
     "OracleBudget(max_items=10, max_agents=5, max_enumerated=5000000)",
     lambda: DiminisherRound(10, 5, 5000000, None)),
    ("OracleBudget.given", lambda: OracleBudget(max_items=12, max_agents=3, max_enumerated=10),
     ("max_items", "max_agents", "max_enumerated"),
     "OracleBudget(max_items=12, max_agents=3, max_enumerated=10)",
     lambda: DiminisherRound(12, 3, 10, None)),
    ("Method", lambda: Method("m", "prop", bool, len, "needs text"),
     ("name", "problem", "applies", "run", "needs"),
     "Method(name='m', problem='prop', applies=<class 'bool'>, "
     "run=<built-in function len>, needs='needs text')",
     lambda: SolveReport("m", "prop", bool, len, "needs text")),
    ("Method.default", lambda: Method("o", "mms", bool, len),
     ("name", "problem", "applies", "run", "needs"),
     "Method(name='o', problem='mms', applies=<class 'bool'>, "
     "run=<built-in function len>, needs='')",
     lambda: SolveReport("o", "mms", bool, len, "")),
]


def fields_of(record, fields):
    return tuple(getattr(record, name) for name in fields)


def same(a, b, fields):
    """``a`` and ``b`` are equal records of one class, alike in every pinned way."""
    assert type(a) is type(b)
    assert a == b and b == a and not a != b
    assert fields_of(a, fields) == fields_of(b, fields)
    assert repr(a) == repr(b)
    assert hash(a) == hash(b)


@pytest.mark.parametrize(
    "build, fields, text, other", [s[1:] for s in SAMPLES], ids=[s[0] for s in SAMPLES]
)
def test_record(build, fields, text, other):
    record = build()
    assert repr(record) == text
    same(record, build(), fields)

    values = fields_of(record, fields)
    assert hash(record) == hash(values)
    stranger = other()
    assert type(stranger) is not type(record)
    for foreign in (stranger, values, None):
        assert record != foreign and foreign != record
        assert not record == foreign

    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        same(record, pickle.loads(pickle.dumps(record, protocol)), fields)
    same(record, copy.deepcopy(record), fields)

    for name in fields:
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field {name!r}"):
            setattr(record, name, getattr(record, name))
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field {name!r}"):
            delattr(record, name)
    assert repr(record) == text


def test_instance_grid_survives_pickle_and_copy():
    """The grid, which is no field, travels with the instance."""
    for inst in (instance(), grid_instance()):
        for twin in (pickle.loads(pickle.dumps(inst)), copy.deepcopy(inst)):
            assert twin.grid == inst.grid
            assert twin.utilities == inst.utilities
