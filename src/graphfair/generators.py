"""Instance constructors: hardness-style reductions, fixtures, random draws.

The reductions map classic NP-complete problems onto fair-division instances
whose answers coincide with the source problems'.  They serve as test
material: tiny source instances are exhaustively enumerable and their answers
are checkable by brute force, which pins down the solvers' behavior on
structured inputs that random draws rarely produce.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

import heapq
import random
import sys

from .graphs import ItemGraph, _component
from .model import InputError, Instance

__all__ = [
    "X3cInstance",
    "PartitionInstance",
    "IndepSetInstance",
    "gen_x3c_prop_path",
    "gen_partition_bipartite",
    "gen_indepset_ef_star",
    "fixture_cycle8",
    "gen_random",
    "RANDOM_CLASSES",
]


# ---------------------------------------------------------------------------
# source problems


@dataclass(frozen=True)
class X3cInstance:
    """Exact cover by three-sets: cover all elements by disjoint triples.

    ``elements`` has size 3s; the question is whether s of the listed triples
    partition it.
    """

    elements: tuple[str, ...]
    triples: tuple[tuple[str, str, str], ...]

    def __post_init__(self) -> None:
        if len(self.elements) == 0 or len(self.elements) % 3 != 0:
            raise InputError("the universe size must be a positive multiple of 3")
        if len(set(self.elements)) != len(self.elements):
            raise InputError("duplicate elements in the universe")
        universe = set(self.elements)
        seen = set()
        for triple in self.triples:
            if len(set(triple)) != 3 or not set(triple) <= universe:
                raise InputError(f"not a 3-element subset of the universe: {triple!r}")
            key = frozenset(triple)
            if key in seen:
                raise InputError(f"duplicate triple: {triple!r}")
            seen.add(key)

    @property
    def cover_size(self) -> int:
        return len(self.elements) // 3

    @property
    def triple_count(self) -> int:
        return len(self.triples)


@dataclass(frozen=True)
class PartitionInstance:
    """Split positive integers into two halves of equal sum."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise InputError("at least one value is required")
        if any(not isinstance(v, int) or v <= 0 for v in self.values):
            raise InputError("values must be positive integers")
        if sum(self.values) % 2 != 0:
            raise InputError("the values must have an even sum")

    @property
    def half_sum(self) -> int:
        return sum(self.values) // 2


@dataclass(frozen=True)
class IndepSetInstance:
    """Does ``graph`` contain ``k`` pairwise non-adjacent vertices?"""

    graph: ItemGraph
    k: int

    def __post_init__(self) -> None:
        if not 1 <= self.k <= self.graph.vertex_count:
            raise InputError("k must be between 1 and the vertex count")


# ---------------------------------------------------------------------------
# reductions


def gen_x3c_prop_path(x3c: X3cInstance) -> Instance:
    """Path instance whose proportionality answer matches the cover question.

    Layout along the path: three slot vertices per triple, then one bonus
    vertex per cover slot, then a sink vertex.  The sink player only values
    the sink; each element player values every slot of every triple containing
    her element at 1/n; each triple player values her own three slots at
    1/(3n) each and every bonus vertex at 1/n.  Covers correspond exactly to
    systems where s triple players retreat to bonus vertices, freeing their
    slots for the element players.
    """
    s, r = x3c.cover_size, x3c.triple_count
    n = 3 * s + r + 1
    labels = [f"T{i + 1}.{k + 1}" for i in range(r) for k in range(3)]
    labels += [f"b{j + 1}" for j in range(s)] + ["w"]
    m = len(labels)
    edges = tuple((i, i + 1) for i in range(m - 1))
    graph = ItemGraph(tuple(labels), edges)
    sink = m - 1

    frequency = {
        x: sum(1 for t in x3c.triples if x in t) for x in x3c.elements
    }
    for x, p in frequency.items():
        if 3 * p > n:
            raise InputError(
                f"element {x!r} occurs in {p} triples; its sink utility "
                "would be negative"
            )

    names: list[str] = []
    rows: list[tuple[Fraction, ...]] = []
    for i in range(r):
        row = [Fraction(0)] * m
        for k in range(3):
            row[3 * i + k] = Fraction(1, 3 * n)
        for j in range(s):
            row[3 * r + j] = Fraction(1, n)
        row[sink] = Fraction(n - s - 1, n)
        names.append(f"triple{i + 1}")
        rows.append(tuple(row))
    for x in x3c.elements:
        row = [Fraction(0)] * m
        for i, t in enumerate(x3c.triples):
            if x in t:
                for k in range(3):
                    row[3 * i + k] = Fraction(1, n)
        row[sink] = Fraction(n - 3 * frequency[x], n)
        names.append(f"elem-{x}")
        rows.append(tuple(row))
    sink_row = [Fraction(0)] * m
    sink_row[sink] = Fraction(1)
    names.append("sink")
    rows.append(tuple(sink_row))
    return Instance(graph, tuple(names), tuple(rows))


def gen_partition_bipartite(p: PartitionInstance) -> Instance:
    """Bipartite instance: two identical agents, proportional iff equal split.

    Every value vertex touches both zero-value hubs, so any subset of value
    vertices plus a hub is connected; each agent needs half the total.
    """
    count = len(p.values)
    labels = tuple(f"v{i + 1}" for i in range(count)) + ("w1", "w2")
    edges = tuple((i, count) for i in range(count)) + tuple(
        (i, count + 1) for i in range(count)
    )
    graph = ItemGraph(labels, edges)
    row = tuple(Fraction(a, 2 * p.half_sum) for a in p.values) + (
        Fraction(0),
        Fraction(0),
    )
    return Instance(graph, ("agent1", "agent2"), (row, row))


def gen_indepset_ef_star(inst: IndepSetInstance) -> Instance:
    """Star instance: complete envy-free division iff an independent k-set.

    Leaves are the source graph's vertices and edges plus k fillers; the
    center player must take the hub plus k vertex leaves, and edge players
    envy her exactly when she holds both endpoints of their edge.  Source
    vertex labels are kept verbatim, so names like "hub" or "dummy1" that
    collide with the construction's own items are rejected.
    """
    src = inst.graph
    k = inst.k
    w_count = src.vertex_count
    edge_names = [
        f"{src.labels[a]}|{src.labels[b]}" for a, b in src.edges
    ]
    labels = (
        ("hub",)
        + tuple(src.labels)
        + tuple(edge_names)
        + tuple(f"dummy{j + 1}" for j in range(k))
    )
    m = len(labels)
    graph = ItemGraph(labels, tuple((0, v) for v in range(1, m)))

    names: list[str] = []
    rows: list[tuple[Fraction, ...]] = []
    dummy_base = 1 + w_count + len(edge_names)
    for w in range(w_count):
        row = [Fraction(0)] * m
        row[1 + w] = Fraction(1, k + 1)
        for j in range(k):
            row[dummy_base + j] = Fraction(1, k + 1)
        names.append(f"vertex-{src.labels[w]}")
        rows.append(tuple(row))
    for e, (a, b) in enumerate(src.edges):
        row = [Fraction(0)] * m
        row[1 + w_count + e] = Fraction(3, 7)
        row[1 + a] = Fraction(2, 7)
        row[1 + b] = Fraction(2, 7)
        names.append(f"edge-{edge_names[e]}")
        rows.append(tuple(row))
    center_row = [Fraction(0)] * m
    center_row[0] = Fraction(1)
    names.append("center")
    rows.append(tuple(center_row))
    return Instance(graph, tuple(names), tuple(rows))


# ---------------------------------------------------------------------------
# fixtures


def fixture_cycle8() -> Instance:
    """Four agents on an eight-cycle where no maximin-share allocation exists.

    Every agent's maximin share is exactly 1/4, witnessed by the two
    quarterings of the cycle into adjacent pairs, yet the two agent types
    need incompatible quarterings and every allocation leaves someone
    strictly below 1/4.
    """
    labels = tuple(f"v{i + 1}" for i in range(8))
    edges = tuple((i, (i + 1) % 8) for i in range(8))
    graph = ItemGraph(labels, edges)
    first = tuple(Fraction(x, 20) for x in (1, 4, 4, 1, 3, 2, 2, 3))
    second = tuple(Fraction(x, 20) for x in (4, 4, 1, 3, 2, 2, 3, 1))
    return Instance(
        graph,
        ("agent1", "agent2", "agent3", "agent4"),
        (first, first, second, second),
    )


# ---------------------------------------------------------------------------
# random draws

RANDOM_CLASSES = ("path", "star", "tree", "cycle", "connected")


def gen_random(
    seed: int,
    cls: str,
    m: int,
    n: int,
    denom_bound: int = 10,
    types: Optional[int] = None,
) -> Instance:
    """Seeded random instance with graph drawn from the named class.

    The graph is drawn first, then the utility rows.  Per item, a row draws
    the numerator, ``randint(0, denom_bound)``, and then the denominator,
    ``randint(1, denom_bound)``; a row whose numerators are all zero is drawn
    again.  The row is normalized to exact unit sum on the integer grid: with
    L the lcm of its denominators, the draw a/b scales to the int a * (L // b),
    and each entry is that int over the row's scaled total, so equal draws
    share one ``Fraction``.  ``types`` caps the number of distinct utility rows
    (agents beyond it reuse earlier rows, drawn uniformly).  Equal arguments
    give byte-equal instances on every run.

    ``seed`` must be an int, and ``m``, ``n``, ``denom_bound`` and ``types``
    (when given) ints of at least 1 (a bool counts as an int); a cycle needs
    ``m >= 3``.  Anything else raises ``InputError`` before any draw.
    """
    if not isinstance(seed, int):
        raise InputError(f"seed must be an int, got {seed!r}")
    if cls not in RANDOM_CLASSES:
        raise InputError(f"unknown graph class {cls!r}")
    sizes = {"item count": m, "agent count": n, "denominator bound": denom_bound}
    if types is not None:
        sizes["type cap"] = types
    for name, value in sizes.items():
        if not (isinstance(value, int) and value >= 1):
            raise InputError(f"{name} must be an int >= 1, got {value!r}")
    if cls == "cycle" and m < 3:
        raise InputError("a cycle needs at least 3 vertices")
    rng = random.Random(seed)
    # Interned labels are shared by every instance that is alive at once.
    labels = tuple(sys.intern(f"v{i + 1}") for i in range(m))

    if cls == "path":
        perm = list(range(m))
        rng.shuffle(perm)
        edges = tuple((perm[i], perm[i + 1]) for i in range(m - 1))
    elif cls == "star":
        center = rng.randrange(m)
        edges = tuple((center, v) for v in range(m) if v != center)
    elif cls == "tree":
        edges = _random_tree_edges(rng, m)
    elif cls == "cycle":
        perm = list(range(m))
        rng.shuffle(perm)
        edges = tuple(
            (perm[i], perm[(i + 1) % m]) for i in range(m)
        )
    else:
        edges = _random_connected_edges(rng, m)
    graph = ItemGraph(labels, edges)

    distinct = n if types is None else min(types, n)
    pool = [_random_row(rng, m, denom_bound) for _ in range(distinct)]
    rows = tuple(
        pool[i] if i < distinct else pool[rng.randrange(distinct)]
        for i in range(n)
    )
    names = tuple(f"agent{i + 1}" for i in range(n))
    return Instance(graph, names, rows)


def _random_row(rng: random.Random, m: int, denom_bound: int) -> tuple[Fraction, ...]:
    draw = rng.randrange
    top = denom_bound + 1
    while True:
        # per item the numerator in 0..denom_bound, then the denominator in
        # 1..denom_bound: the draws of randint(0, D) and randint(1, D)
        raw = [(draw(top), draw(1, top)) for _ in range(m)]
        denominators = {b for _, b in raw}
        scale = lcm(*denominators)
        factor = {b: scale // b for b in denominators}
        scaled = [a * factor[b] for a, b in raw]
        total = sum(scaled)
        if total:
            # Equal draws share one normalized Fraction, which keeps long rows small.
            shared = {x: Fraction(x, total) for x in set(scaled)}
            return tuple(shared[x] for x in scaled)


def _random_tree_edges(rng: random.Random, m: int) -> tuple[tuple[int, int], ...]:
    """Uniform random labeled tree, decoded from a Prüfer sequence."""
    if m == 1:
        return ()
    if m == 2:
        return ((0, 1),)
    seq = [rng.randrange(m) for _ in range(m - 2)]
    degree = [1] * m
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = [v for v in range(m) if degree[v] == 1]  # ascending, so a heap
    for v in seq:
        edges.append((heapq.heappop(leaves), v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((leaves[0], leaves[1]))  # a heap of two: the lower one first
    return tuple(edges)


def _random_connected_edges(rng: random.Random, m: int) -> tuple[tuple[int, int], ...]:
    full = (1 << m) - 1
    coin = rng.random
    while True:
        # each pair (a, b), a < b, in lexicographic order, kept with chance 1/2
        nbr = [0] * m
        edges = []
        for a in range(m):
            for b in range(a + 1, m):
                if coin() < 0.5:
                    edges.append((a, b))
                    nbr[a] |= 1 << b
                    nbr[b] |= 1 << a
        if _component(nbr, 1, full) == full:
            return tuple(edges)
