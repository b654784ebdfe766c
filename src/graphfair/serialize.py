"""Canonical JSON forms for instances, allocations, and rational numbers.

Rationals travel as ``"p/q"`` strings in lowest terms (plain ``"p"`` when the
denominator is 1); decimals are never read or written.  Serialization is
canonical — fixed key order, vertices in graph order, bundle items in index
order — so identical objects produce byte-identical documents.

The instance reader parses each distinct literal once to ints in lowest terms
and builds ``Instance.grid`` from them with ``Instance.from_grid``: the solve
path makes no ``Fraction`` per utility, and ``Instance.utilities`` is built
only when something such as ``instance_to_dict`` reads it.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd, lcm
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


def _ratio(s: str) -> tuple[int, int]:
    """The literal ``s`` as ``(num, den)`` in lowest terms with ``den > 0``.

    The one literal reader, behind ``rational_from_str`` and the instance
    reader.  Over-long digits are reported before a zero denominator.
    """
    match = _RATIONAL_RE.match(s.strip()) if isinstance(s, str) else None
    if match is None:
        raise InputError(f"not a rational literal: {s!r}")
    num, den = match.groups()
    try:
        num, den = int(num), int(den) if den else 1
    except ValueError:  # an integer over Python's digit limit
        raise InputError(f"rational literal too long ({len(s)} characters)") from None
    if den == 0:
        raise InputError(f"zero denominator in {s!r}")
    g = gcd(num, den)
    return num // g, den // g


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
    return Fraction(*_ratio(s))


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

    # Agents of one type repeat whole rows: a utilities dict equal to an
    # earlier one gets that dict's grid row.
    docs: list[dict] = []  # each distinct utilities dict so far
    doc_rows: list[tuple[int, tuple[int, ...]]] = []  # and its (scale, grid row)
    names, scales, rows = [], [], []
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
            scale, row = doc_rows[docs.index(utilities)]
        else:
            scale, row = _grid_row(utilities, vertices, index)
            docs.append(utilities)
            doc_rows.append((scale, row))
        scales.append(scale)
        rows.append(row)
    return Instance.from_grid(graph, tuple(names), (tuple(scales), tuple(rows)))


def _grid_row(utilities: dict, vertices: list, index: dict) -> tuple[int, tuple[int, ...]]:
    """One ``utilities`` dict as its ``integer_grid`` scale and row.

    Each distinct literal of the row is read once.  Label and literal errors
    come in document order; signs and the sum are left to
    ``Instance.from_grid``.
    """
    if list(utilities) == vertices:  # every label, in vertex order
        literals = list(utilities.values())
    else:
        literals = ["0"] * len(vertices)  # a missing entry is worth 0
        for label, value in utilities.items():
            if label not in index:
                raise InputError(f"utility for unknown vertex {label!r}")
            _ratio(value)  # a bad literal raises before any later label
            literals[index[label]] = value
    try:
        distinct = dict.fromkeys(literals)
    except TypeError:  # an unhashable entry, so a bad literal: raise the first one
        distinct = literals
    pairs = [_ratio(value) for value in distinct]
    scale = lcm(*(den for _, den in pairs))
    scaled = {value: num * (scale // den) for value, (num, den) in zip(distinct, pairs)}
    return scale, tuple(map(scaled.__getitem__, literals))


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
