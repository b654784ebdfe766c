"""Round-trips and rejection cases for the JSON layer."""

import json
import random
import re
from fractions import Fraction

import pytest

from graphfair import (
    Allocation,
    InputError,
    allocation_from_dict,
    allocation_to_dict,
    dumps,
    instance_from_dict,
    instance_from_json,
    instance_to_dict,
    instance_to_json,
    rational_from_str,
    rational_to_str,
)
from graphfair.cli import main
from graphfair.generators import fixture_cycle8, gen_random

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
