"""Command-line front end.

Subcommands: ``solve`` (decide a fairness problem and print a report),
``verify`` (judge a given allocation), ``mms-values`` (per-agent maximin
shares), ``generate`` (emit instances: reductions, the cycle fixture, seeded
random draws), and ``classify`` (graph-class flags).

Exit codes: 0 = yes / success, 1 = no / allocation invalid, 2 = input or
routing error, 3 = enumeration budget exceeded.  All reports are canonical
JSON on stdout; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Callable, Optional, TypeVar

from .generators import (
    RANDOM_CLASSES,
    IndepSetInstance,
    PartitionInstance,
    X3cInstance,
    fixture_cycle8,
    gen_indepset_ef_star,
    gen_partition_bipartite,
    gen_random,
    gen_x3c_prop_path,
)
from .graphs import ItemGraph, classify
from .mms_tree import mms_values_tree
from .model import (
    BudgetExceeded,
    InputError,
    Instance,
    is_complete,
    is_envy_free,
    is_mms_allocation,
    is_proportional,
    is_valid,
)
from .oracle import OracleBudget, oracle_mms_values
from .serialize import (
    allocation_from_dict,
    allocation_to_dict,
    dumps,
    instance_from_json,
    instance_to_dict,
    rational_to_str,
)
from .solvers import METHODS, dispatch, select_method

T = TypeVar("T")

EXIT_YES = 0
EXIT_NO = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``graphfair`` argument parser, built once per process.

    Building it costs far more than a parse, and parsing leaves it
    unchanged, so every ``main`` call shares the one instance; callers must
    not modify it.
    """
    parser = argparse.ArgumentParser(
        prog="graphfair",
        description="Fair division of graph-connected indivisible items.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser, with_input: bool = True) -> None:
        if with_input:
            p.add_argument("input_pos", nargs="?", metavar="INSTANCE",
                           help="instance JSON file (alternative to --input)")
            p.add_argument("--input", help="instance JSON file")
        p.add_argument("--output", help="write the report here instead of stdout")

    def add_budget(p: argparse.ArgumentParser) -> None:
        p.add_argument("--max-items", type=int, default=None,
                       help="oracle refuses instances with more items")
        p.add_argument("--max-agents", type=int, default=None,
                       help="oracle refuses instances with more agents")
        p.add_argument("--max-enumerated", type=int, default=None,
                       help="work units the oracle, the tree DP and the path "
                            "solvers may spend")

    p_solve = sub.add_parser("solve", help="decide a fairness problem")
    add_io(p_solve)
    p_solve.add_argument("--problem", required=True,
                         choices=list(dict.fromkeys(m.problem for m in METHODS)))
    p_solve.add_argument("--method", default="auto",
                         choices=["auto", *dict.fromkeys(m.name for m in METHODS)])
    add_budget(p_solve)

    p_verify = sub.add_parser("verify", help="judge an allocation file")
    p_verify.add_argument("instance", metavar="INSTANCE")
    p_verify.add_argument("allocation", metavar="ALLOCATION")
    p_verify.add_argument("--mms", action="store_true",
                          help="also check the maximin-share property")
    p_verify.add_argument("--output", help="write the verdict here instead of stdout")
    add_budget(p_verify)

    p_mms = sub.add_parser("mms-values", help="per-agent maximin shares")
    add_io(p_mms)
    add_budget(p_mms)

    p_gen = sub.add_parser("generate", help="emit an instance as JSON")
    p_gen.add_argument("--kind", required=True,
                       choices=("random", "cycle8", "x3c", "partition", "indepset"))
    p_gen.add_argument("--output", help="write the instance here instead of stdout")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--class", dest="graph_class", choices=RANDOM_CLASSES,
                       default="tree", help="graph class for --kind random")
    p_gen.add_argument("--items", type=int, default=6)
    p_gen.add_argument("--agents", type=int, default=3)
    p_gen.add_argument("--denom-bound", type=int, default=10)
    p_gen.add_argument("--types", type=int, default=None,
                       help="cap on distinct utility rows for --kind random")
    p_gen.add_argument("--elements", help="x3c universe: x1,x2,x3")
    p_gen.add_argument("--triples", help="x3c triples: x1:x2:x3,x1:x2:x4")
    p_gen.add_argument("--values", help="partition values: 3,1,4,2")
    p_gen.add_argument("--vertices", help="indepset vertices: a,b,c")
    p_gen.add_argument("--edges", help="indepset edges: a:b,b:c")
    p_gen.add_argument("--k", type=int, default=None, help="indepset target size")

    p_cls = sub.add_parser("classify", help="graph-class flags of an instance")
    add_io(p_cls)
    return parser


def _load_instance(args: argparse.Namespace) -> Instance:
    pos = getattr(args, "input_pos", None)
    flag = getattr(args, "input", None)
    if pos and flag:
        raise InputError("give the instance either positionally or via --input")
    path = pos or flag
    if not path:
        raise InputError("an instance file is required")
    return _read_json(path, instance_from_json)


def _read_json(path: str, parse: Callable[[str], T]) -> T:
    """Read ``path`` as UTF-8 and return ``parse`` of its text.

    Every way the file can fail to read or parse becomes an ``InputError``:
    an OS error, bytes that are not UTF-8, invalid JSON, nesting past the
    recursion limit, or an integer literal over Python's digit limit.
    """
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except InputError:
        raise
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise InputError(f"cannot parse {path}: {exc}") from None


def _budget(args: argparse.Namespace) -> Optional[OracleBudget]:
    given = {
        name: getattr(args, name)
        for name in ("max_items", "max_agents", "max_enumerated")
        if getattr(args, name) is not None
    }
    return OracleBudget(**given) if given else None


def _emit(doc: dict, output: Optional[str]) -> None:
    text = dumps(doc)
    if output:
        try:
            Path(output).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot write {output}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def cmd_solve(args: argparse.Namespace) -> int:
    inst = _load_instance(args)
    report = dispatch(inst, args.problem, method=args.method, budget=_budget(args))
    doc = {
        "decision": "yes" if report.decision else "no",
        "method": report.method,
        "allocation": (
            None if report.witness is None else allocation_to_dict(inst, report.witness)
        ),
        "values": (
            None
            if report.achieved is None
            else {
                name: rational_to_str(value)
                for name, value in zip(inst.agent_names, report.achieved)
            }
        ),
        "quotas": (
            None
            if report.quotas is None
            else {
                name: rational_to_str(q)
                for name, q in zip(inst.agent_names, report.quotas)
            }
        ),
    }
    _emit(doc, args.output)
    return EXIT_YES if report.decision else EXIT_NO


def cmd_verify(args: argparse.Namespace) -> int:
    budget = _budget(args)  # rejects a bad flag even without --mms, its only user
    inst = _read_json(args.instance, instance_from_json)
    alloc = allocation_from_dict(inst, _read_json(args.allocation, json.loads))

    valid = is_valid(inst, alloc)
    doc = {
        "valid": valid,
        "proportional": is_proportional(inst, alloc),
        "envy_free": is_envy_free(inst, alloc),
        "complete": is_complete(inst, alloc),
        "mms_ok": None,
    }
    if args.mms:
        values = _mms_values(inst, budget)[1]
        doc["mms_ok"] = is_mms_allocation(inst, alloc, values)
    _emit(doc, args.output)
    return EXIT_YES if valid else EXIT_NO


def _mms_values(inst: Instance, budget: Optional[OracleBudget]):
    if select_method(inst, "mms").name == "mms-tree":
        return "tree", mms_values_tree(inst)
    return "oracle", oracle_mms_values(inst, budget)


def cmd_mms_values(args: argparse.Namespace) -> int:
    inst = _load_instance(args)
    method, values = _mms_values(inst, _budget(args))
    doc = {
        "method": method,
        "values": {
            name: rational_to_str(v) for name, v in zip(inst.agent_names, values)
        },
    }
    _emit(doc, args.output)
    return EXIT_YES


def _split_csv(text: str, what: str) -> list[str]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise InputError(f"empty {what} list")
    return parts


def cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "cycle8":
        inst = fixture_cycle8()
    elif args.kind == "random":
        inst = gen_random(
            args.seed,
            args.graph_class,
            args.items,
            args.agents,
            args.denom_bound,
            types=args.types,
        )
    elif args.kind == "x3c":
        if not args.elements or not args.triples:
            raise InputError("--kind x3c needs --elements and --triples")
        triples = []
        for chunk in _split_csv(args.triples, "triple"):
            members = tuple(x.strip() for x in chunk.split(":"))
            if len(members) != 3:
                raise InputError(f"a triple needs exactly 3 members: {chunk!r}")
            triples.append(members)
        inst = gen_x3c_prop_path(
            X3cInstance(tuple(_split_csv(args.elements, "element")), tuple(triples))
        )
    elif args.kind == "partition":
        if not args.values:
            raise InputError("--kind partition needs --values")
        try:
            values = tuple(int(v) for v in _split_csv(args.values, "value"))
        except ValueError as exc:
            raise InputError(f"values must be integers: {exc}") from exc
        inst = gen_partition_bipartite(PartitionInstance(values))
    else:
        if not args.vertices or args.k is None:
            raise InputError("--kind indepset needs --vertices and --k")
        vertices = tuple(_split_csv(args.vertices, "vertex"))
        index = {label: i for i, label in enumerate(vertices)}
        edges = []
        for chunk in _split_csv(args.edges, "edge") if args.edges else []:
            ends = [x.strip() for x in chunk.split(":")]
            if len(ends) != 2:
                raise InputError(f"an edge needs exactly 2 endpoints: {chunk!r}")
            for end in ends:
                if end not in index:
                    raise InputError(f"unknown edge endpoint {end!r}")
            edges.append((index[ends[0]], index[ends[1]]))
        source = ItemGraph(vertices, tuple(edges))
        inst = gen_indepset_ef_star(IndepSetInstance(source, args.k))
    _emit(instance_to_dict(inst), args.output)
    return EXIT_YES


def cmd_classify(args: argparse.Namespace) -> int:
    inst = _load_instance(args)
    flags = classify(inst.graph)
    doc = {
        "connected": flags.is_connected,
        "tree": flags.is_tree,
        "path": flags.is_path,
        "star": flags.is_star,
        "cycle": flags.is_cycle,
        "bipartite": flags.is_bipartite,
    }
    _emit(doc, args.output)
    return EXIT_YES


_COMMANDS = {
    "solve": cmd_solve,
    "verify": cmd_verify,
    "mms-values": cmd_mms_values,
    "generate": cmd_generate,
    "classify": cmd_classify,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
