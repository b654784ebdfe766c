"""Round-trips and rejection cases for the JSON layer."""

import copy as copy_module
import json
import pickle
import random
import re
from fractions import Fraction

import pytest

from graphfair import (
    Allocation,
    InputError,
    Instance,
    ItemGraph,
    allocation_from_dict,
    allocation_to_dict,
    dispatch,
    dumps,
    instance_from_dict,
    instance_from_json,
    instance_to_dict,
    instance_to_json,
    make_report,
    rational_from_str,
    rational_to_str,
)
from graphfair.cli import main
from graphfair.generators import fixture_cycle8, gen_random
from graphfair.solvers import select_method

from conftest import mk, path_graph


def test_rational_strings():
    assert rational_to_str(Fraction(1, 3)) == "1/3"
    assert rational_to_str(Fraction(4, 2)) == "2"
    assert rational_to_str(Fraction(0)) == "0"
    assert rational_to_str(Fraction(-3, 9)) == "-1/3"
    assert rational_from_str("7/21") == Fraction(1, 3)
    assert rational_from_str(" -2 ") == Fraction(-2)
    for bad in ("", "1.5", "1/0x", "a/b", "1/-2", "--3", None, 7, "1/0", "0/00",
                "9" * 5000):
        with pytest.raises(InputError):
            rational_from_str(bad)


def _rational_from_str_reference(s):
    """The former parser: a check against the ungrouped pattern, then ``Fraction(str)``."""
    if not isinstance(s, str) or not re.match(r"^-?\d+(/\d+)?$", s.strip()):
        raise InputError(f"not a rational literal: {s!r}")
    try:
        return Fraction(s.strip())
    except ZeroDivisionError:
        raise InputError(f"zero denominator in {s!r}") from None
    except ValueError:
        raise InputError(f"rational literal too long ({len(s)} characters)") from None


def _outcome(parse, s):
    try:
        return parse(s)
    except InputError as exc:
        return f"InputError: {exc}"


@pytest.mark.parametrize(
    "literal",
    [" 1/2 ", "-0", "7/21", "+1", "1_0", "\u0661/\u0662", "1/2\n", "0/00", "1.5", "1e3",
     "9" * 4301, "9" * 5000, "-" + "1" * 4300, "1/" + "0" * 4300, None, 7, ["1/2"]],
    ids=lambda x: f"{x[:2]}...({len(x)} chars)" if isinstance(x, str) and len(x) > 12 else repr(x),
)
def test_rational_from_str_matches_the_fraction_parser(literal):
    got = _outcome(rational_from_str, literal)
    assert got == _outcome(_rational_from_str_reference, literal)
    assert type(got) is type(_outcome(_rational_from_str_reference, literal))


UTILITY_DOC = {
    "graph": {"vertices": ["x", "y"], "edges": [["x", "y"]]},
    "agents": [
        {"name": "a1", "utilities": {"x": "1/2", "y": "1/2"}},
        {"name": "a2", "utilities": {"x": "1/2", "y": "1/2"}},
    ],
}


@pytest.mark.parametrize("value", [["1/2"], {"v": "1/2"}, 1, None, True])
def test_non_string_utility_is_an_input_error(value, tmp_path, capsys):
    doc = json.loads(json.dumps(UTILITY_DOC))
    doc["agents"][1]["utilities"]["y"] = value  # "1/2" is already parsed
    with pytest.raises(InputError, match="^not a rational literal: "):
        instance_from_dict(doc)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["solve", str(path), "--problem", "prop"]) == 2
    assert capsys.readouterr().err == f"error: not a rational literal: {value!r}\n"


def test_repeated_literals_parse_to_equal_rows():
    doc = json.loads(json.dumps(UTILITY_DOC))
    doc["agents"][1]["utilities"] = {"x": "2/4", "y": " 1/2"}
    inst = instance_from_dict(doc)
    assert inst.utilities == ((Fraction(1, 2),) * 2,) * 2


def test_equal_rows_share_one_parsed_and_scaled_row():
    doc = json.loads(json.dumps(UTILITY_DOC))
    doc["agents"] += [
        {"name": "a3", "utilities": {"x": "1/3", "y": "2/3"}},
        {"name": "a4", "utilities": {"y": "1/2", "x": "1/2"}},  # == a1's, keys reordered
        {"name": "a5", "utilities": {"x": "1/3", "y": "2/3"}},
    ]
    inst = instance_from_dict(doc)
    rows, grid = inst.utilities, inst.grid[1]
    assert rows[0] is rows[1] is rows[3] and grid[0] is grid[1] is grid[3]
    assert rows[2] is rows[4] and grid[2] is grid[4]
    assert rows[0] is not rows[2] and grid[0] is not grid[2]
    half, third = (Fraction(1, 2),) * 2, (Fraction(1, 3), Fraction(2, 3))
    assert rows == (half, half, third, half, third)


@pytest.mark.parametrize("bad", ["1/0", "1/2x", "", "9" * 5000])
def test_a_row_equal_but_for_a_bad_literal_raises_that_literal(bad):
    doc = json.loads(json.dumps(UTILITY_DOC))
    doc["agents"][1]["utilities"]["y"] = bad
    with pytest.raises(InputError) as literal:
        rational_from_str(bad)
    with pytest.raises(InputError) as got:
        instance_from_dict(doc)
    assert str(got.value) == str(literal.value)


def test_a_repeated_row_that_fails_names_its_first_agent():
    doc = json.loads(json.dumps(UTILITY_DOC))
    for agent in doc["agents"]:
        agent["utilities"]["y"] = "1/4"
    with pytest.raises(InputError, match="^utilities of agent 'a1' sum to 3/4, "):
        instance_from_dict(doc)


def test_dumps_is_canonical():
    doc = {"b": 1, "a": [Fraction(1, 2).__str__()]}
    out = dumps(doc)
    assert out.endswith("\n")
    assert out == dumps(doc)
    # Insertion order is preserved, not sorted.
    assert out.index('"b"') < out.index('"a"')


def test_instance_round_trip():
    inst = fixture_cycle8()
    text = instance_to_json(inst)
    back = instance_from_json(text)
    assert back == inst
    assert instance_to_json(back) == text


def test_round_trip_many_random():
    rng = random.Random(99)
    for trial in range(30):
        cls = rng.choice(("path", "star", "tree", "cycle", "connected"))
        m = rng.randint(3, 7)
        inst = gen_random(seed=trial, cls=cls, m=m, n=rng.randint(1, 4))
        assert instance_from_json(instance_to_json(inst)) == inst


def test_missing_utilities_default_to_zero():
    doc = {
        "graph": {"vertices": ["x", "y"], "edges": [["x", "y"]]},
        "agents": [{"name": "a1", "utilities": {"y": "1"}}],
    }
    inst = instance_from_dict(doc)
    assert inst.utilities[0] == (Fraction(0), Fraction(1))


def test_instance_document_rejects():
    base = {
        "graph": {"vertices": ["x", "y"], "edges": [["x", "y"]]},
        "agents": [{"name": "a1", "utilities": {"x": "1/2", "y": "1/2"}}],
    }
    assert instance_from_dict(base).agent_names == ("a1",)

    for mutate in (
        lambda d: d.pop("graph"),
        lambda d: d.pop("agents"),
        lambda d: d["graph"].pop("vertices"),
        lambda d: d["graph"].__setitem__("vertices", ["x", 3]),
        lambda d: d["graph"].__setitem__("vertices", ["x", "x"]),
        lambda d: d["graph"].__setitem__("edges", [["x"]]),
        lambda d: d["graph"].__setitem__("edges", [["x", "zzz"]]),
        lambda d: d["agents"].__setitem__(0, {"name": "a1"}),
        lambda d: d["agents"][0].__setitem__("utilities", ["1/2"]),
        lambda d: d["agents"][0]["utilities"].__setitem__("zzz", "1/2"),
        lambda d: d["agents"][0]["utilities"].__setitem__("x", "0.5"),
    ):
        doc = json.loads(json.dumps(base))
        mutate(doc)
        with pytest.raises(InputError):
            instance_from_dict(doc)

    with pytest.raises(InputError):
        instance_from_dict([1, 2])
    for text in (
        "{not json",
        "[" * 100_000 + "]" * 100_000,  # nested past the recursion limit
        "9" * 5000,  # an integer over Python's digit limit
    ):
        with pytest.raises(InputError, match="invalid JSON"):
            instance_from_json(text)


def test_allocation_round_trip():
    inst = mk(path_graph(3), ("1/2", "1/4", "1/4"), ("1/3", "1/3", "1/3"))
    alloc = Allocation((frozenset({0}), frozenset({1, 2})))
    doc = allocation_to_dict(inst, alloc)
    assert doc == {"bundles": {"a1": ["v1"], "a2": ["v2", "v3"]}}
    assert allocation_from_dict(inst, doc) == alloc


def test_allocation_omitted_agent_is_empty():
    inst = mk(path_graph(2), ("1", "0"), ("0", "1"))
    alloc = allocation_from_dict(inst, {"bundles": {"a2": ["v1", "v2"]}})
    assert alloc.bundles == (frozenset(), frozenset({0, 1}))


def test_allocation_rejects():
    inst = mk(path_graph(2), ("1", "0"))
    for doc in (
        {},
        {"bundles": ["v1"]},
        {"bundles": {"ghost": []}},
        {"bundles": {"a1": "v1"}},
        {"bundles": {"a1": ["nope"]}},
    ):
        with pytest.raises(InputError):
            allocation_from_dict(inst, doc)


def test_overlapping_bundles_parse():
    # The parser is permissive; validity is a separate judgement.
    inst = mk(path_graph(2), ("1", "0"), ("0", "1"))
    alloc = allocation_from_dict(inst, {"bundles": {"a1": ["v1"], "a2": ["v1"]}})
    assert alloc.bundles[0] & alloc.bundles[1]


def test_bundle_items_serialized_in_graph_order():
    inst = mk(path_graph(3), ("1/3", "1/3", "1/3"))
    alloc = Allocation((frozenset({2, 0, 1}),))
    assert allocation_to_dict(inst, alloc)["bundles"]["a1"] == ["v1", "v2", "v3"]


def test_utilities_keyed_by_label_in_graph_order():
    inst = fixture_cycle8()
    doc = instance_to_dict(inst)
    assert list(doc["agents"][0]["utilities"]) == list(inst.graph.labels)
    assert doc["agents"][2]["utilities"]["v1"] == "1/5"


def _doc(*agents):
    """An instance document on the path x - y with the given (name, x, y) agents."""
    return {
        "graph": {"vertices": ["x", "y"], "edges": [["x", "y"]]},
        "agents": [{"name": n, "utilities": {"x": ux, "y": uy}} for n, ux, uy in agents],
    }


@pytest.mark.parametrize("doc, message", [
    (_doc(("a", "1/4", "1/4"), ("a", "1", "0")), "agent names must be distinct"),
    (_doc(("a1", "3/2", "-1/2"), ("a2", "1/2", "x")), "not a rational literal: 'x'"),
    (_doc(("a1", "1/2", "1/2"), ("a2", "1/2", "1/0")), "zero denominator in '1/0'"),
    ({"graph": {"vertices": ["x"], "edges": []}, "agents": []},
     "an instance needs at least one agent"),
    ({"graph": {"vertices": ["x"], "edges": []},
      "agents": [{"name": "a", "utilities": {"x": "1/4"}}, {"name": "a", "utilities": {"z": "1"}}]},
     "utility for unknown vertex 'z'"),
    (_doc(("a1", "1/4", "1/4"), ("a2", "3/2", "-1/2")), "utilities of agent 'a1' sum to 1/2, "
     "expected exactly 1"),
    (_doc(("a1", "1", "0"), ("a2", "3/2", "-1/2"), ("a3", "1/4", "1/4")),
     "negative utility for agent 'a2'"),
    (_doc(("a1", "3/4", "-1/2")), "negative utility for agent 'a1'"),
    (_doc(("a1", "9" * 4300, "1/3"), ("a2", "3/2", "-1/2")),
     "utilities of agent 'a1' do not sum to exactly 1"),
], ids=["names-before-sum", "literal-before-sign", "literal-of-a-later-agent",
        "no-agents", "label-before-names", "agent-order", "sign-in-agent-order",
        "sign-before-sum", "unprintable-sum"])
def test_instance_errors_come_in_document_then_check_order(doc, message):
    """Structure, labels and literals of every agent first, then the names, then
    each row's signs and sum in agent order."""
    with pytest.raises(InputError) as got:
        instance_from_dict(doc)
    assert str(got.value) == message


def _parse_by_fractions(doc):
    """The reference reader: a ``Fraction`` per entry, then ``Instance(graph, names, rows)``.

    Only the utilities vary in the documents it is given, so the graph is
    read without checks.
    """
    vertices = doc["graph"]["vertices"]
    index = {label: i for i, label in enumerate(vertices)}
    graph = ItemGraph(tuple(vertices), tuple((index[a], index[b]) for a, b in doc["graph"]["edges"]))
    names, rows = [], []
    for agent in doc["agents"]:
        row = [Fraction(0)] * len(vertices)
        for label, value in agent["utilities"].items():
            if label not in index:
                raise InputError(f"utility for unknown vertex {label!r}")
            row[index[label]] = rational_from_str(value)
        names.append(agent["name"])
        rows.append(tuple(row))
    return Instance(graph, tuple(names), tuple(rows))


def _value(literal):
    """``literal`` as a ``Fraction``, or None for a bad literal."""
    try:
        return rational_from_str(literal)
    except InputError:
        return None


def _literal_form(rng, literal):
    """``literal`` in another spelling of the same rational (a bad one stays)."""
    value = _value(literal)
    if value is None:
        return literal
    k = rng.randint(2, 9)
    return rng.choice([
        f"{value.numerator * k}/{value.denominator * k}",  # unreduced, as "7/21"
        f" {literal}\n",
        rng.choice(["-0", f"0/{k}", "-0/1"]) if value == 0 else literal,
    ])


def _mutate(rng, doc):
    """``doc`` with 0 to 3 seeded edits of its utilities or names."""
    agents = doc["agents"]
    vertices = doc["graph"]["vertices"]
    for _ in range(rng.randint(0, 3)):
        agent = rng.choice(agents)
        utilities = agent["utilities"]
        label = rng.choice(list(utilities))
        kind = rng.randrange(11)
        if kind == 0:  # literal forms of equal value
            for key in utilities:
                utilities[key] = _literal_form(rng, utilities[key])
        elif kind == 1:  # keys out of vertex order
            items = list(utilities.items())
            rng.shuffle(items)
            agent["utilities"] = dict(items)
        elif kind == 2:  # zero entries left out, or any entry left out
            agent["utilities"] = {
                key: value for key, value in utilities.items()
                if _value(value) != 0 and (key != label or rng.random() < 0.5)
            }
        elif kind == 3:  # a repeated row, as an equal dict or the same dict
            other = rng.choice(agents)
            agent["utilities"] = other["utilities"] if rng.random() < 0.5 else dict(other["utilities"])
        elif kind == 4:  # a negative entry
            utilities[label] = f"-{rng.randint(1, 5)}/{rng.randint(1, 5)}"
        elif kind == 5:  # a wrong sum
            utilities[label] = f"{rng.randint(0, 5)}/{rng.randint(1, 5)}"
        elif kind == 6:  # an entry moved to another item: the sum holds
            other = rng.choice(vertices)
            utilities[label], utilities[other] = utilities.get(other, "0"), utilities[label]
        elif kind == 7:  # a bad literal
            utilities[label] = rng.choice(["1/0", "+1", "0.5", "1/2x", "", "9" * 4301, None, 3])
        elif kind == 8:  # an unknown label
            utilities["zz"] = "0"
        elif kind == 9:  # a duplicate name
            agent["name"] = rng.choice(agents)["name"]
        else:  # an exact compensation: one entry up, another down
            other = rng.choice(vertices)
            delta = Fraction(1, rng.randint(1, 6))
            up, down = _value(utilities[label]), _value(utilities.get(other, "0"))
            if up is not None and down is not None:
                utilities[label], utilities[other] = str(up + delta), str(down - delta)
    return doc


def _outcome_of(parse, doc):
    try:
        inst = parse(doc)
    except InputError as exc:
        return f"InputError: {exc}"
    return inst.grid, inst, hash(inst), repr(inst), instance_to_json(inst)


def test_grid_reader_matches_the_fraction_reader():
    """The reader that builds the grid from ints gives the instance, or the
    error, that a ``Fraction`` per entry and the row-checking constructor give."""
    rng = random.Random(3300)
    errors = 0
    for seed in range(1200):
        cls = rng.choice(("path", "star", "tree", "cycle", "connected"))
        m = rng.randint(3, 8)
        n = rng.randint(1, 4)
        types = rng.choice([None, 1, 2])
        inst = gen_random(seed=seed, cls=cls, m=m, n=n, denom_bound=rng.choice([1, 3, 10]),
                          types=types)
        doc = _mutate(rng, instance_to_dict(inst))
        got = _outcome_of(instance_from_dict, doc)
        want = _outcome_of(_parse_by_fractions, doc)
        assert got == want, (seed, doc)
        errors += isinstance(want, str)
    assert 200 <= errors <= 1000  # both outcomes are well exercised


def _instance_for(route):
    problem, method, cls, m, n, types = route
    for seed in range(200):
        inst = gen_random(seed=seed, cls=cls, m=m, n=n, types=types)
        if select_method(inst, problem).name == method:
            return inst
    raise AssertionError(f"no seed routes {problem} to {method}")


ROUTES = [
    ("prop", "oracle", "cycle", 6, 2, None),
    ("mms", "oracle", "cycle", 6, 2, None),
    ("ef-complete", "oracle", "connected", 6, 2, None),
    ("prop", "star", "star", 6, 3, None),
    ("prop", "tree-fpt", "tree", 8, 3, None),
    ("prop", "path-dp", "path", 8, 3, None),
    ("prop", "greedy", "path", 8, 3, 1),
    ("ef-complete", "ef-path", "path", 7, 2, None),
    ("mms", "mms-tree", "tree", 9, 3, 2),
]


@pytest.mark.parametrize("route", ROUTES, ids=lambda r: f"{r[0]}-{r[1]}")
def test_a_solve_builds_no_fraction_rows(route):
    """``dispatch`` and ``make_report`` read only the grid; the rows built on a
    later read equal the constructor's, and pickle and deepcopy keep the instance."""
    problem, method = route[:2]
    eager = _instance_for(route)
    text = instance_to_json(eager)
    inst = instance_from_json(text)
    report = dispatch(inst, problem)
    assert report.method == method
    if report.witness is not None:
        make_report(inst, report.method, report.witness, report.quotas)
    assert "utilities" not in vars(inst)
    for copy in (pickle.loads(pickle.dumps(inst)), copy_module.deepcopy(inst)):
        assert "utilities" not in vars(copy) and copy.grid == inst.grid
        assert copy == eager and hash(copy) == hash(eager)
    rows = inst.utilities
    assert rows == eager.utilities and inst == eager and repr(inst) == repr(eager)
    for row in rows:
        assert row is rows[rows.index(row)]  # equal rows are one tuple
        assert all(type(x) is Fraction for x in row)
    assert inst.utilities is rows
    for copy in (pickle.loads(pickle.dumps(inst)), copy_module.deepcopy(inst)):
        assert copy == inst and copy.grid == inst.grid and copy.utilities == rows
    assert instance_to_json(inst) == text
    with pytest.raises(AttributeError):
        inst.no_such_attribute
