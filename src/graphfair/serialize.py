"""Canonical JSON forms for instances, allocations, and rational numbers.

Rationals travel as ``"p/q"`` strings in lowest terms (plain ``"p"`` when the
denominator is 1); decimals are never read or written.  Serialization is
canonical — fixed key order, vertices in graph order, bundle items in index
order — so identical objects produce byte-identical documents.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any

from .model import Allocation, InputError, Instance, ItemGraph

__all__ = [
    "rational_to_str",
    "rational_from_str",
    "instance_to_dict",
    "instance_from_dict",
    "instance_to_json",
    "instance_from_json",
    "allocation_to_dict",
    "allocation_from_dict",
    "dumps",
]

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")


def rational_to_str(x: Fraction) -> str:
    return str(x)


def rational_from_str(s: str) -> Fraction:
    """Read ``"p"`` or ``"p/q"``: an optional ``-``, digits, an optional ``/`` and
    digits, with surrounding whitespace trimmed.  Lowest terms are not required.

    >>> [rational_from_str(s) for s in (" 7/21 ", "-0", "3")]
    [Fraction(1, 3), Fraction(0, 1), Fraction(3, 1)]
    >>> rational_from_str("+1")
    Traceback (most recent call last):
    ...
    graphfair.model.InputError: not a rational literal: '+1'
    """
    match = _RATIONAL_RE.match(s.strip()) if isinstance(s, str) else None
    if match is None:
        raise InputError(f"not a rational literal: {s!r}")
    num, den = match.groups()
    try:
        return Fraction(int(num), int(den) if den else 1)
    except ZeroDivisionError:
        raise InputError(f"zero denominator in {s!r}") from None
    except ValueError:  # an integer over Python's digit limit
        raise InputError(f"rational literal too long ({len(s)} characters)") from None


def dumps(obj: Any) -> str:
    """The one JSON writer: stable separators, preserved key order, newline-terminated."""
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def instance_to_dict(inst: Instance) -> dict:
    g = inst.graph
    return {
        "graph": {
            "vertices": list(g.labels),
            "edges": [[g.labels[a], g.labels[b]] for a, b in g.edges],
        },
        "agents": [
            {
                "name": name,
                "utilities": {
                    g.labels[v]: rational_to_str(row[v]) for v in range(len(g.labels))
                },
            }
            for name, row in zip(inst.agent_names, inst.utilities)
        ],
    }


def instance_from_dict(doc: dict) -> Instance:
    if not isinstance(doc, dict):
        raise InputError("instance document must be a JSON object")
    try:
        graph_doc = doc["graph"]
        vertices = graph_doc["vertices"]
        edge_docs = graph_doc["edges"]
        agent_docs = doc["agents"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"instance document missing field: {exc}") from None
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise InputError("graph.vertices must be a list of strings")
    index = {label: i for i, label in enumerate(vertices)}
    if len(index) != len(vertices):
        raise InputError("vertex labels must be distinct")
    if not isinstance(edge_docs, list):
        raise InputError("graph.edges must be a list of label pairs")
    if not isinstance(agent_docs, list):
        raise InputError("agents must be a list")
    edges = []
    for e in edge_docs:
        if not (isinstance(e, list) and len(e) == 2):
            raise InputError(f"bad edge entry: {e!r}")
        a, b = e
        if not (isinstance(a, str) and isinstance(b, str) and a in index and b in index):
            raise InputError(f"edge {e!r} uses an unknown vertex label")
        edges.append((index[a], index[b]))
    graph = ItemGraph(tuple(vertices), tuple(edges))

    # Agents of one type repeat whole rows: a row equal to an earlier one gets
    # that row's tuple, which ``Instance`` then checks and scales once, and
    # each literal is parsed once.
    rationals: dict[str, Fraction] = {}
    docs: list[dict] = []  # each distinct utilities dict so far
    doc_rows: list[tuple[Fraction, ...]] = []  # and its parsed row
    names = []
    rows = []
    for a in agent_docs:
        if not isinstance(a, dict) or "name" not in a or "utilities" not in a:
            raise InputError("each agent needs 'name' and 'utilities'")
        if not isinstance(a["name"], str):
            raise InputError(f"agent name must be a string, got {a['name']!r}")
        names.append(a["name"])
        utilities = a["utilities"]
        if not isinstance(utilities, dict):
            raise InputError("agent utilities must map vertex label -> rational string")
        if utilities in docs:
            rows.append(doc_rows[docs.index(utilities)])
            continue
        row = [Fraction(0)] * len(vertices)
        for label, value in utilities.items():
            if label not in index:
                raise InputError(f"utility for unknown vertex {label!r}")
            if isinstance(value, str):
                parsed = rationals.get(value)
                if parsed is None:
                    parsed = rationals[value] = rational_from_str(value)
            else:
                parsed = rational_from_str(value)  # raises InputError
            row[index[label]] = parsed
        rows.append(tuple(row))
        docs.append(utilities)
        doc_rows.append(rows[-1])
    return Instance(graph, tuple(names), tuple(rows))


def instance_to_json(inst: Instance) -> str:
    return dumps(instance_to_dict(inst))


def instance_from_json(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integers over the digit limit
        raise InputError(f"invalid JSON: {exc}") from None
    return instance_from_dict(doc)


def allocation_to_dict(inst: Instance, alloc: Allocation) -> dict:
    labels = inst.graph.labels
    return {
        "bundles": {
            name: [labels[v] for v in sorted(bundle)]
            for name, bundle in zip(inst.agent_names, alloc.bundles)
        }
    }


def allocation_from_dict(inst: Instance, doc: dict) -> Allocation:
    """Parse bundles keyed by agent name; agents left out get an empty bundle.

    Overlapping bundles parse fine — ``is_valid`` is the judge of those.
    """
    if not isinstance(doc, dict) or "bundles" not in doc:
        raise InputError("allocation document needs a 'bundles' object")
    bundles_doc = doc["bundles"]
    if not isinstance(bundles_doc, dict):
        raise InputError("'bundles' must map agent name -> item list")
    known = set(inst.agent_names)
    for name in bundles_doc:
        if name not in known:
            raise InputError(f"allocation names unknown agent {name!r}")
    bundles = []
    for name in inst.agent_names:
        items = bundles_doc.get(name, [])
        if not isinstance(items, list):
            raise InputError(f"bundle of {name!r} must be a list of vertex labels")
        bundles.append(frozenset(inst.graph.index_of(label) for label in items))
    return Allocation(tuple(bundles))
