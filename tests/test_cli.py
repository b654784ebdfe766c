"""Command-line behaviour: exit codes, report shapes, round-trips."""

import hashlib
import json
import random
import time

import pytest

from graphfair.cli import build_parser, main
from graphfair.graphs import ItemGraph
from graphfair.generators import X3cInstance, fixture_cycle8, gen_random, gen_x3c_prop_path
from graphfair.model import is_proportional, is_valid
from graphfair.serialize import allocation_from_dict, instance_from_json, instance_to_json
from graphfair.solvers import METHODS

from conftest import mk, path_graph


@pytest.fixture()
def cycle8_file(tmp_path):
    path = tmp_path / "cycle8.json"
    path.write_text(instance_to_json(fixture_cycle8()), encoding="utf-8")
    return str(path)


def write_instance(tmp_path, inst, name="inst.json"):
    path = tmp_path / name
    path.write_text(instance_to_json(inst), encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# solve


def test_solve_cycle8_mms(capsys, cycle8_file):
    code, out, _ = run(capsys, ["solve", "--problem", "mms", cycle8_file])
    assert code == 1
    doc = json.loads(out)
    assert doc["decision"] == "no"
    assert doc["method"] == "oracle"
    assert doc["allocation"] is None and doc["values"] is None
    assert doc["quotas"] == {f"agent{i}": "1/4" for i in (1, 2, 3, 4)}


def test_solve_single_agent_prop(capsys, tmp_path):
    f = write_instance(tmp_path, mk(path_graph(3), ("1/3", "1/3", "1/3")))
    code, out, _ = run(capsys, ["solve", "--problem", "prop", f])
    assert code == 0
    doc = json.loads(out)
    assert doc["decision"] == "yes"
    assert doc["method"] == "greedy"
    assert doc["allocation"] == {"bundles": {"a1": ["v1", "v2", "v3"]}}
    assert doc["values"] == {"a1": "1"}


def test_solve_routing_error(capsys, tmp_path):
    f = write_instance(tmp_path, mk(path_graph(4), ("1/4",) * 4))
    code, out, err = run(capsys, ["solve", "--problem", "prop", "--method", "star", f])
    assert code == 2
    assert out == "" and "error:" in err


def test_solve_budget_exceeded_and_override(capsys, tmp_path):
    from conftest import cycle_graph

    inst = mk(cycle_graph(11), ("1/11",) * 11, ("1/11",) * 11)
    f = write_instance(tmp_path, inst)
    code, _, err = run(capsys, ["solve", "--problem", "prop", f])
    assert code == 3 and "budget" in err

    code, out, _ = run(
        capsys, ["solve", "--problem", "prop", "--max-items", "11", f]
    )
    assert code == 1  # now within budget; the answer is an honest no
    assert json.loads(out)["decision"] == "no"


def test_solve_max_enumerated(capsys, cycle8_file):
    code, _, err = run(
        capsys, ["solve", "--problem", "mms", "--max-enumerated", "1", cycle8_file]
    )
    assert code == 3 and "budget" in err
    code, out, _ = run(capsys, ["solve", "--problem", "mms", cycle8_file])
    assert code == 1 and json.loads(out)["decision"] == "no"


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("flag", ["--max-items", "--max-agents", "--max-enumerated"])
def test_negative_budget_exits_2(capsys, tmp_path, cycle8_file, command, flag):
    if command == "solve":
        argv = ["solve", "--problem", "prop", cycle8_file]
    else:
        alloc = tmp_path / "empty.json"
        alloc.write_text('{"bundles": {}}', encoding="utf-8")
        argv = ["verify", cycle8_file, str(alloc)]  # no --mms: the budget is unused
    code, out, err = run(capsys, [*argv, flag, "-1"])
    assert code == 2
    assert out == "" and err.startswith("error:") and "must be an int >= 0" in err


def test_solve_thirteen_agent_tree(capsys, tmp_path):
    # The tree DP runs out of the default budget on 13 distinct agents, and
    # a raised one lets it find a proportional allocation.
    inst = gen_random(seed=1, cls="tree", m=13, n=13)
    f = write_instance(tmp_path, inst)
    code, _, err = run(capsys, ["solve", "--problem", "prop", f])
    assert code == 3 and "budget" in err
    code, out, _ = run(
        capsys, ["solve", "--problem", "prop", "--max-enumerated", "10000000", f]
    )
    doc = json.loads(out)
    assert code == 0 and doc["method"] == "tree-fpt"
    witness = allocation_from_dict(inst, doc["allocation"])
    assert is_valid(inst, witness) and is_proportional(inst, witness)


def test_path_routes_stop_at_the_work_budget(capsys, tmp_path):
    # 24 distinct agents would give the path DP a table of 2^24 entries; it
    # is refused before it is built.  16 agents still decide.
    wide = write_instance(tmp_path, gen_random(1, "path", 60, 24), "wide.json")
    start = time.perf_counter()
    code, out, err = run(capsys, ["solve", "--problem", "prop", wide])
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == "" and "budget" in err
    sixteen = write_instance(tmp_path, gen_random(1, "path", 60, 16), "sixteen.json")
    code, out, _ = run(capsys, ["solve", "--problem", "prop", sixteen])
    assert code in (0, 1) and json.loads(out)["method"] == "path-dp"
    # ef-path's states grow past the budget here; it ran for minutes unbounded
    ef = write_instance(tmp_path, gen_random(2, "path", 60, 12, 30), "ef.json")
    code, out, err = run(capsys, ["solve", "--problem", "ef-complete", ef])
    assert code == 3 and out == "" and "budget" in err


@pytest.mark.parametrize("command", [["solve", "--problem", "mms"], ["mms-values"]])
@pytest.mark.parametrize("m", [3, 12])
def test_mms_with_fewer_items_than_agents_exits_2(capsys, tmp_path, command, m):
    # An input error at every size: the oracle's size limits come second.
    f = write_instance(tmp_path, gen_random(0, "tree", m, m + 1))
    code, out, err = run(capsys, [*command, f])
    assert code == 2 and out == ""
    assert err == "error: maximin shares need at least as many items as agents\n"


@pytest.mark.parametrize("command", [
    ["solve", "--problem", "mms"], ["mms-values"], ["verify", "--mms"],
])
def test_mms_on_a_disconnected_graph_exits_2(capsys, tmp_path, command):
    # An input error at every size: two 6-item paths are past the oracle's
    # default limit of 10 items, which comes second.
    halves = ItemGraph(
        tuple(f"v{i + 1}" for i in range(12)),
        tuple((i, i + 1) for i in range(11) if i != 5),
    )
    f = write_instance(tmp_path, mk(halves, ("1/12",) * 12, ("1/12",) * 12))
    if command[0] == "verify":
        alloc = tmp_path / "empty.json"
        alloc.write_text('{"bundles": {}}', encoding="utf-8")
        command = ["verify", f, str(alloc), "--mms"]
    else:
        command = [*command, f]
    code, out, err = run(capsys, command)
    assert code == 2 and out == ""
    assert err == "error: maximin shares are defined on connected item graphs only\n"


EXHAUSTED = "budget exceeded: enumeration budget exhausted\n"


@pytest.mark.parametrize("command, code, err", [
    (["solve", "--problem", "prop"], 0, ""),
    (["solve", "--problem", "mms", "--max-enumerated", "100000"], 3, EXHAUSTED),
    (["solve", "--problem", "ef-complete"], 0, ""),
    (["mms-values", "--max-enumerated", "100000"], 3, EXHAUSTED),
], ids=["prop", "mms", "ef-complete", "mms-values"])
def test_cycle_past_the_recursion_limit_decides_or_exhausts_the_budget(
    capsys, tmp_path, command, code, err
):
    # With the size limit raised, the oracle's growths and its partition scan
    # go one item deeper per item they add, past Python's default recursion
    # limit of 1,000; they walk explicit stacks, so only the work budget stops
    # them.
    f = write_instance(tmp_path, gen_random(0, "cycle", 1200, 1))
    outs = []
    for _ in range(2):
        got, out, got_err = run(capsys, [*command, "--max-items", "2000", f])
        assert (got, got_err) == (code, err)
        outs.append(out)
    assert outs[0] == outs[1]
    if code == 0:
        assert json.loads(out)["decision"] == "yes"
    else:
        assert out == ""


def test_star_with_an_augmenting_path_of_a_thousand_rows_exits_0(capsys, tmp_path):
    # Agent a_k values leaves L(k-1) and Lk, a_(K+1) values LK alone, and the
    # owner, who takes the center, values L0 above the other leaves: her
    # leaf matching walks an augmenting path through every a_k.
    K = 1000
    T = (K + 1) * (K + 2) // 2
    owner = {"v0": "1/2", "L0": f"{K + 1}/{2 * T}"}
    owner.update({f"L{k}": f"{k}/{2 * T}" for k in range(1, K + 1)})
    agents = [{"name": "owner", "utilities": owner}]
    agents += [
        {"name": f"a{k}", "utilities": {f"L{k - 1}": "1/2", f"L{k}": "1/2"}}
        for k in range(1, K + 1)
    ]
    agents.append({"name": f"a{K + 1}", "utilities": {f"L{K}": "1"}})
    leaves = [f"L{k}" for k in range(K + 1)]
    doc = {
        "graph": {"vertices": ["v0", *leaves], "edges": [["v0", x] for x in leaves]},
        "agents": agents,
    }
    f = tmp_path / "star.json"
    f.write_text(json.dumps(doc), encoding="utf-8")
    outs = []
    for _ in range(2):
        code, out, err = run(capsys, ["solve", "--problem", "prop", str(f)])
        assert code == 0 and err == ""
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["method"] == "star"


def test_solve_input_quirks(capsys, tmp_path):
    f = write_instance(tmp_path, mk(path_graph(2), ("1/2", "1/2")))
    code, _, err = run(capsys, ["solve", "--problem", "prop", f, "--input", f])
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, ["solve", "--problem", "prop"])
    assert code == 2
    code, _, err = run(capsys, ["solve", "--problem", "prop", str(tmp_path / "nope.json")])
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    code, _, err = run(capsys, ["solve", "--problem", "prop", str(bad)])
    assert code == 2


def _malformed(mutate):
    doc = {
        "graph": {"vertices": ["x", "y"], "edges": [["x", "y"]]},
        "agents": [{"name": "a1", "utilities": {"x": "1/2", "y": "1/2"}}],
    }
    mutate(doc)
    return doc


@pytest.mark.parametrize("doc", [
    _malformed(lambda d: d["graph"].__setitem__("edges", 5)),
    _malformed(lambda d: d.__setitem__("agents", 5)),
    _malformed(lambda d: d["agents"][0].__setitem__("name", ["a1"])),
    _malformed(lambda d: d["graph"]["edges"][0].__setitem__(0, ["x"])),
    _malformed(lambda d: d["agents"][0]["utilities"].__setitem__("x", "1/0")),
    _malformed(lambda d: d["agents"][0]["utilities"].__setitem__("x", "9" * 5000)),
], ids=["edges-number", "agents-number", "list-agent-name", "list-endpoint",
        "zero-denominator", "long-rational"])
def test_solve_malformed_document_exits_2(capsys, tmp_path, doc):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, ["solve", "--problem", "prop", str(f)])
    assert code == 2
    assert out == "" and err.startswith("error:") and "Traceback" not in err


def test_solve_row_sum_too_long_to_print_exits_2(capsys, tmp_path):
    doc = {
        "graph": {"vertices": ["x", "y"], "edges": [["x", "y"]]},
        "agents": [{"name": "a", "utilities": {"x": "9" * 4300, "y": "1/3"}}],
    }
    f = tmp_path / "long.json"
    f.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, ["solve", "--problem", "prop", str(f)])
    assert code == 2 and out == ""
    assert err == "error: utilities of agent 'a' do not sum to exactly 1\n"


DEEP = b"[" * 100_000 + b"]" * 100_000


@pytest.mark.parametrize("command, raw", [
    ("solve", b'{"graph": \xff}'),
    ("solve", DEEP),
    ("solve", b'{"graph": ' + b"9" * 5000 + b"}"),
    ("verify", b'{"bundles": \xff}'),
    ("verify", DEEP),
    ("verify", b'{"bundles": ' + b"9" * 5000 + b"}"),
], ids=["not-utf8", "deep-nesting", "long-integer",
        "verify-not-utf8", "verify-deep-nesting", "verify-long-integer"])
def test_unparsable_file_exits_2(capsys, tmp_path, cycle8_file, command, raw):
    f = tmp_path / "raw.json"
    f.write_bytes(raw)
    if command == "solve":
        argv = ["solve", "--problem", "prop", str(f)]
    else:
        argv = ["verify", cycle8_file, str(f)]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == "" and err.startswith("error:") and "Traceback" not in err


# ---------------------------------------------------------------------------
# verify


def test_verify_cycle8_quartering(capsys, tmp_path, cycle8_file):
    alloc = tmp_path / "p1.json"
    alloc.write_text(json.dumps({"bundles": {
        "agent1": ["v1", "v2"],
        "agent2": ["v3", "v4"],
        "agent3": ["v5", "v6"],
        "agent4": ["v7", "v8"],
    }}), encoding="utf-8")
    code, out, _ = run(capsys, ["verify", cycle8_file, str(alloc), "--mms"])
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] is True
    assert doc["complete"] is True
    assert doc["proportional"] is False  # agent 3 sees only 4/20 in v5,v6
    assert doc["mms_ok"] is False


def test_verify_empty_allocation(capsys, tmp_path, cycle8_file):
    alloc = tmp_path / "empty.json"
    alloc.write_text(json.dumps({"bundles": {}}), encoding="utf-8")
    code, out, _ = run(capsys, ["verify", cycle8_file, str(alloc)])
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] is True
    assert doc["envy_free"] is True
    assert doc["complete"] is False
    assert doc["mms_ok"] is None  # not requested


def test_verify_overlap(capsys, tmp_path, cycle8_file):
    alloc = tmp_path / "overlap.json"
    alloc.write_text(json.dumps({"bundles": {
        "agent1": ["v1", "v2"],
        "agent2": ["v2", "v3"],
    }}), encoding="utf-8")
    code, out, _ = run(capsys, ["verify", cycle8_file, str(alloc)])
    assert code == 1
    assert json.loads(out)["valid"] is False


def test_verify_bad_allocation_file(capsys, tmp_path, cycle8_file):
    alloc = tmp_path / "bad.json"
    alloc.write_text("[", encoding="utf-8")
    code, _, err = run(capsys, ["verify", cycle8_file, str(alloc)])
    assert code == 2 and "error:" in err


# ---------------------------------------------------------------------------
# mms-values


def test_mms_values_oracle_route(capsys, cycle8_file):
    code, out, _ = run(capsys, ["mms-values", cycle8_file])
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "oracle"
    assert set(doc["values"].values()) == {"1/4"}


def test_mms_values_tree_route(capsys, tmp_path):
    inst = mk(path_graph(3), ("1/3", "1/3", "1/3"), ("1/3", "1/3", "1/3"))
    code, out, _ = run(capsys, ["mms-values", write_instance(tmp_path, inst)])
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "tree"
    assert doc["values"] == {"a1": "1/3", "a2": "1/3"}

    solo = mk(path_graph(2), ("1/2", "1/2"))
    code, out, _ = run(capsys, ["mms-values", write_instance(tmp_path, solo, "solo.json")])
    assert json.loads(out)["values"] == {"a1": "1"}


# ---------------------------------------------------------------------------
# generate


def test_generate_cycle8_round_trip(capsys):
    code, out, _ = run(capsys, ["generate", "--kind", "cycle8"])
    assert code == 0
    assert instance_from_json(out) == fixture_cycle8()


def test_generate_random_deterministic(capsys):
    argv = ["generate", "--kind", "random", "--seed", "7", "--class", "path",
            "--items", "5", "--agents", "3"]
    code, first, _ = run(capsys, argv)
    assert code == 0
    _, second, _ = run(capsys, argv)
    assert first == second
    assert instance_from_json(first) == gen_random(7, "path", 5, 3)


def test_generate_x3c_matches_library(capsys):
    code, out, _ = run(capsys, [
        "generate", "--kind", "x3c",
        "--elements", "x1,x2,x3",
        "--triples", "x1:x2:x3",
    ])
    assert code == 0
    expect = gen_x3c_prop_path(
        X3cInstance(("x1", "x2", "x3"), (frozenset({"x1", "x2", "x3"}),))
    )
    assert instance_from_json(out) == expect


def test_generate_partition_and_indepset(capsys):
    code, out, _ = run(capsys, ["generate", "--kind", "partition", "--values", "1,1,2"])
    assert code == 0
    assert instance_from_json(out).agent_count == 2

    code, out, _ = run(capsys, [
        "generate", "--kind", "indepset",
        "--vertices", "a,b", "--edges", "a:b", "--k", "1",
    ])
    assert code == 0
    inst = instance_from_json(out)
    assert inst.graph.labels == ("hub", "a", "b", "a|b", "dummy1")


def test_generate_errors(capsys):
    for argv in (
        ["generate", "--kind", "x3c"],
        ["generate", "--kind", "x3c", "--elements", "x1,x2,x3", "--triples", "x1:x2"],
        ["generate", "--kind", "partition", "--values", "1,a"],
        ["generate", "--kind", "partition"],
        ["generate", "--kind", "indepset", "--vertices", "a,b"],
        ["generate", "--kind", "indepset", "--vertices", "a,b", "--edges", "a:zz", "--k", "1"],
        ["generate", "--kind", "random", "--class", "cycle", "--items", "2"],
    ):
        code, _, err = run(capsys, argv)
        assert code == 2, argv
        assert "error:" in err


# ---------------------------------------------------------------------------
# classify and output files


def test_classify(capsys, tmp_path):
    f = write_instance(tmp_path, mk(path_graph(3), ("1/3", "1/3", "1/3")))
    code, out, _ = run(capsys, ["classify", f])
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "connected": True,
        "tree": True,
        "path": True,
        "star": True,  # a 3-path is also a 2-leaf star
        "cycle": False,
        "bipartite": True,
    }


def test_output_flag_writes_file(capsys, tmp_path, cycle8_file):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, [
        "solve", "--problem", "mms", cycle8_file, "--output", str(target)
    ])
    assert code == 1
    assert out == ""
    doc = json.loads(target.read_text(encoding="utf-8"))
    assert doc["decision"] == "no"


@pytest.mark.parametrize("command", ["solve", "generate"])
@pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
def test_unwritable_output_exits_2(capsys, tmp_path, cycle8_file, command, where):
    target = tmp_path / "missing" / "x.json" if where == "missing-dir" else tmp_path
    if command == "solve":
        argv = ["solve", "--problem", "prop", cycle8_file]
    else:
        argv = ["generate", "--kind", "cycle8"]
    code, out, err = run(capsys, [*argv, "--output", str(target)])
    assert code == 2
    assert out == "" and err.startswith("error:") and "Traceback" not in err


# ---------------------------------------------------------------------------
# one parser per process


def test_parser_is_built_once_and_reused(capsys, cycle8_file):
    calls = [
        ["solve", "--problem", "prop", cycle8_file],
        ["solve", "--problem", "nope", cycle8_file],  # argparse error
        ["classify", cycle8_file],
        ["solve", "--problem", "prop", cycle8_file],
    ]

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(call(argv))
    build_parser.cache_clear()
    shared = [call(argv) for argv in calls]
    assert build_parser.cache_info().misses == 1
    assert shared == fresh
    assert [code for code, _, _ in shared] == [1, 2, 0, 1]
    assert "invalid choice" in shared[1][2]


# ---------------------------------------------------------------------------
# pinned bytes

CLI_BYTES_DIGEST = "b1c7debd5e974288d9a0672025021e02bcfb95b443b6dd05557bab7b2ef35169"


def test_cli_bytes_pinned(capsys, tmp_path):
    """One sha256 over ``main``'s exit code, stdout and stderr on a seeded corpus.

    Every ``gen_random`` class, 48 instances each, goes through
    ``mms-values`` and through ``solve`` for every problem, with auto
    routing and with each of the problem's methods forced (a method that
    does not fit exits 2 with its message).  A refactor that keeps the
    answers keeps the digest.  A change that alters a witness, a
    tie-break, a quota, a message or an exit code on purpose must re-pin
    ``CLI_BYTES_DIGEST`` and say so in CHANGES.md.
    """
    rng = random.Random(7)
    path = str(tmp_path / "inst.json")
    digest = hashlib.sha256()
    for cls in ("path", "star", "tree", "cycle", "connected"):
        for k in range(48):
            inst = gen_random(
                seed=k, cls=cls,
                m=rng.randint(3 if cls == "cycle" else 1, 12 if cls in ("path", "star") else 8),
                n=rng.randint(1, 4),
                denom_bound=rng.choice([2, 6, 10, 30]),
                types=rng.choice([None, 1, 2]),
            )
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(instance_to_json(inst))
            calls = [["mms-values"]]
            for problem in ("prop", "ef-complete", "mms"):
                calls.append(["solve", "--problem", problem])
                calls += [["solve", "--problem", problem, "--method", name]
                          for name in dict.fromkeys(e.name for e in METHODS if e.problem == problem)]
            for argv in calls:
                code = main([*argv, path])
                captured = capsys.readouterr()
                digest.update(json.dumps([cls, k, argv, code, captured.out, captured.err]).encode())
    assert digest.hexdigest() == CLI_BYTES_DIGEST
