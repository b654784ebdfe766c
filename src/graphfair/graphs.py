"""Graph services: connectivity tests, class flags, rooted views, enumerations.

Facts about the whole graph come from the one walk that already runs over
its adjacency lists: ``classify``'s colouring DFS counts the components, and
``root_tree``'s DFS decides whether a graph with m - 1 edges is a tree (the
path solvers take their order from it).  So a path, star or tree solve never
builds ``ItemGraph.neighbor_masks``.

Enumeration functions are generators, so every call hands back a fresh,
restartable stream with a deterministic order.  Inside the package vertex
sets and partitions travel as int bitmasks (bit v set for vertex v), and one
flood fill, ``_component``, answers every connectivity question on them (the
oracle's set searches, the partitions and ``is_valid``); at the public
boundary they become ``frozenset`` values.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence

from .model import InputError, ItemGraph

__all__ = [
    "GraphClass",
    "RootedTreeView",
    "is_connected_set",
    "classify",
    "root_tree",
    "enumerate_connected_sets",
    "enumerate_connected_partitions",
    "induced_subgraph",
]


def _component(nbr: Sequence[int], start: int, scope: int) -> int:
    """``start`` plus every vertex it reaches through ``scope``, as a bitmask.

    ``nbr`` holds each vertex's neighbors as a bitmask; ``start`` is a single
    bit, usually one of ``scope``, or 0, which reaches nothing.
    """
    reached = frontier = start
    while frontier:
        v = frontier & -frontier
        frontier &= frontier - 1
        grow = nbr[v.bit_length() - 1] & scope & ~reached
        reached |= grow
        frontier |= grow
    return reached


def mask_is_connected(g: ItemGraph, mask: int) -> bool:
    """Connectivity of the induced subgraph on a vertex bitmask (empty is connected)."""
    return _component(g.neighbor_masks, mask & -mask, mask) == mask


def is_connected_set(g: ItemGraph, vertices: Iterable[int]) -> bool:
    """True iff the given vertex set induces a connected subgraph (or is empty)."""
    try:
        vertices = iter(vertices)
    except TypeError:  # None or another non-iterable
        raise InputError("vertices must be an iterable of ints") from None
    mask = 0
    m = g.vertex_count
    for v in vertices:
        if not (isinstance(v, int) and 0 <= v < m):
            raise InputError(f"vertex {v!r} outside 0..{m - 1}")
        mask |= 1 << v
    return mask_is_connected(g, mask)


@dataclass(frozen=True)
class GraphClass:
    """Structural flags used for solver routing."""

    is_connected: bool
    is_tree: bool
    is_path: bool
    is_star: bool
    is_cycle: bool
    is_bipartite: bool


def classify(g: ItemGraph) -> GraphClass:
    """Compute all class flags; one colouring DFS counts the components.

    A single vertex counts as path, star, and tree at once; a two-vertex path
    is both path and star.  Cycles need all degrees equal to 2 and as many
    edges as vertices.
    """
    m = g.vertex_count
    degrees = [g.degree(v) for v in range(m)]
    edge_count = len(g.edges)
    color: list[Optional[int]] = [None] * m
    components, bipartite = 0, True
    for s in range(m):
        if color[s] is not None:
            continue
        components += 1
        color[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for w in g.neighbors(v):
                if color[w] is None:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    bipartite = False
    connected = components == 1
    tree = connected and edge_count == m - 1
    path = tree and all(d <= 2 for d in degrees)
    star = tree and sum(1 for d in degrees if d >= 2) <= 1
    cycle = connected and edge_count == m and all(d == 2 for d in degrees)
    return GraphClass(
        is_connected=connected,
        is_tree=tree,
        is_path=path,
        is_star=star,
        is_cycle=cycle,
        is_bipartite=bipartite,
    )


@dataclass(frozen=True)
class RootedTreeView:
    """A tree rooted at a fixed vertex.

    Sequences are indexed by vertex id.  Children are listed in ascending
    order and ``postorder`` visits them before their parent, so every subtree
    is the contiguous run of ``postorder`` that ends at its root.  The root's
    ``parent`` is -1.
    """

    root: int
    children: tuple[tuple[int, ...], ...]
    postorder: tuple[int, ...]
    parent: tuple[int, ...]


def root_tree(g: ItemGraph, root: int) -> RootedTreeView:
    """Root the tree ``g`` at ``root``; raises ``InputError`` if ``g`` is no tree.

    With m - 1 edges, ``g`` is a tree exactly when the walk reaches all m
    vertices.  A child is a neighbor not reached before, so no vertex repeats.
    """
    m = g.vertex_count
    if not (isinstance(root, int) and 0 <= root < m):
        raise InputError(f"root {root!r} outside 0..{m - 1}")
    if len(g.edges) != m - 1:
        raise InputError("the item graph is not a tree")

    # A parent, then its children's subtrees from the highest child down:
    # reversed, that is the postorder with children in ascending order.
    children: list[tuple[int, ...]] = [()] * m
    parent: list[Optional[int]] = [None] * m  # None: not reached yet
    parent[root] = -1
    order: list[int] = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        children[v] = tuple(w for w in g.neighbors(v) if parent[w] is None)
        for w in children[v]:
            parent[w] = v
        stack.extend(children[v])
    if len(order) != m:
        raise InputError("the item graph is not a tree")
    return RootedTreeView(
        root, tuple(children), tuple(reversed(order)), tuple(parent)
    )


def connected_set_masks(g: ItemGraph) -> Iterator[int]:
    """All nonempty connected vertex sets as bitmasks, each exactly once.

    Sets are grouped by their lowest vertex; within a group the growth takes
    the lowest frontier vertex first, includes it, and then excludes it for
    the rest of the group, so the order is deterministic.
    """
    nbr = g.neighbor_masks

    def grow(s: int, frontier: int, avail: int) -> Iterator[int]:
        # avail holds the vertices not yet included or excluded, frontier
        # those of them next to s
        while frontier:
            w = frontier & -frontier
            frontier &= ~w
            avail &= ~w  # w is in s | w below, and excluded after it
            yield from grow(s | w, (frontier | nbr[w.bit_length() - 1]) & avail, avail)
        yield s

    full = (1 << g.vertex_count) - 1
    for v in range(g.vertex_count):
        avail = full >> (v + 1) << (v + 1)
        yield from grow(1 << v, nbr[v] & avail, avail)


def enumerate_connected_sets(g: ItemGraph) -> Iterator[frozenset[int]]:
    """Every nonempty connected vertex set exactly once, deterministic order."""
    for mask in connected_set_masks(g):
        yield frozenset(_mask_bits(mask))


def _mask_bits(mask: int) -> Iterator[int]:
    while mask:
        v = mask & -mask
        yield v.bit_length() - 1
        mask &= mask - 1


def enumerate_connected_partitions(
    g: ItemGraph, k: int
) -> Iterator[tuple[frozenset[int], ...]]:
    """Unordered partitions of all vertices into k nonempty connected parts.

    Parts come canonically ordered by smallest element.  Trees go through
    edge deletion (k-1 deleted edges out of m-1); other graphs use recursive
    vertex assignment with connectivity pruning.  ``k`` above the vertex count
    yields an empty stream.

    >>> from graphfair.model import ItemGraph
    >>> path = ItemGraph(("a", "b", "c"), ((0, 1), (1, 2)))
    >>> [[sorted(part) for part in p] for p in enumerate_connected_partitions(path, 2)]
    [[[0], [1, 2]], [[0, 1], [2]]]
    """
    for parts in connected_partition_masks(g, k):
        yield tuple(frozenset(_mask_bits(part)) for part in parts)


def connected_partition_masks(g: ItemGraph, k: int) -> Iterator[tuple[int, ...]]:
    """``enumerate_connected_partitions`` with every part as a bitmask."""
    if not (isinstance(k, int) and k >= 1):
        raise InputError(f"part count must be an int >= 1, got {k!r}")
    m = g.vertex_count
    if k > m:
        return
    if len(g.edges) == m - 1 and mask_is_connected(g, (1 << m) - 1):
        yield from _tree_partitions(g, k)
    else:
        yield from _generic_partitions(g, k)


def _tree_partitions(g: ItemGraph, k: int) -> Iterator[tuple[int, ...]]:
    # Peeling components off from the lowest remaining vertex leaves them
    # ordered by smallest element.
    full = (1 << g.vertex_count) - 1
    for removed in combinations(g.edges, k - 1):
        nbr = list(g.neighbor_masks)
        for a, b in removed:
            nbr[a] &= ~(1 << b)
            nbr[b] &= ~(1 << a)
        parts = []
        rest = full
        while rest:
            part = _component(nbr, rest & -rest, rest)
            parts.append(part)
            rest &= ~part
        yield tuple(parts)


def _generic_partitions(g: ItemGraph, k: int) -> Iterator[tuple[int, ...]]:
    m = g.vertex_count
    nbr = g.neighbor_masks
    full = (1 << m) - 1

    def assign(v: int, parts: list[int]) -> Iterator[tuple[int, ...]]:
        if v == m:
            if len(parts) == k:
                yield tuple(parts)
            return
        remaining = full >> (v + 1) << (v + 1)
        bit = 1 << v
        # v joins a part only if the later vertices can still open the missing ones
        for idx in range(len(parts) if m - v > k - len(parts) else 0):
            grown = parts[idx] | bit
            parts[idx] = grown
            # every part must still fit in one component of itself plus
            # the unassigned vertices
            if all(_component(nbr, p & -p, p | remaining) & p == p for p in parts):
                yield from assign(v + 1, parts)
            parts[idx] = grown & ~bit
        if len(parts) < k:
            parts.append(bit)
            if all(_component(nbr, p & -p, p | remaining) & p == p for p in parts):
                yield from assign(v + 1, parts)
            parts.pop()

    yield from assign(1, [1])


def induced_subgraph(
    g: ItemGraph, vertices: Iterable[int]
) -> tuple[ItemGraph, tuple[int, ...]]:
    """Induced subgraph plus the new-index -> old-index map (ascending)."""
    try:
        chosen = set(vertices)
    except TypeError:  # None, another non-iterable or an unhashable vertex
        raise InputError("vertices must be an iterable of ints") from None
    if not chosen:
        raise InputError("induced subgraph needs at least one vertex")
    if not all(isinstance(v, int) and 0 <= v < g.vertex_count for v in chosen):
        raise InputError("vertex outside the graph")
    keep = sorted(chosen)
    back = {old: new for new, old in enumerate(keep)}
    labels = tuple(g.labels[v] for v in keep)
    edges = tuple(
        (back[a], back[b]) for a, b in g.edges if a in back and b in back
    )
    return ItemGraph(labels, edges), tuple(keep)
