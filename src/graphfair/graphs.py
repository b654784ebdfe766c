"""Graph services: connectivity tests, class flags, rooted views, enumerations.

Enumeration functions are generators, so every call hands back a fresh,
restartable stream with a deterministic order.  Vertex sets travel as
``frozenset`` externally; bitmask variants exist for the hot internal loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Optional

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


def mask_is_connected(g: ItemGraph, mask: int) -> bool:
    """Connectivity of the induced subgraph on a vertex bitmask (empty is connected)."""
    if mask == 0:
        return True
    nbr = g.neighbor_masks
    start = mask & -mask
    reached = start
    frontier = start
    while frontier:
        v = frontier & -frontier
        frontier &= frontier - 1
        grow = nbr[v.bit_length() - 1] & mask & ~reached
        reached |= grow
        frontier |= grow
    return reached == mask


def is_connected_set(g: ItemGraph, vertices: Iterable[int]) -> bool:
    """True iff the given vertex set induces a connected subgraph (or is empty)."""
    mask = 0
    m = g.vertex_count
    for v in vertices:
        if not (0 <= v < m):
            raise InputError(f"vertex {v} outside 0..{m - 1}")
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
    """Compute all class flags.

    A single vertex counts as path, star, and tree at once; a two-vertex path
    is both path and star.  Cycles need all degrees equal to 2 and as many
    edges as vertices.
    """
    m = g.vertex_count
    degrees = [g.degree(v) for v in range(m)]
    edge_count = len(g.edges)
    connected = mask_is_connected(g, (1 << m) - 1)
    tree = connected and edge_count == m - 1
    path = tree and all(d <= 2 for d in degrees)
    star = tree and sum(1 for d in degrees if d >= 2) <= 1
    cycle = connected and edge_count == m and all(d == 2 for d in degrees)

    color: list[Optional[int]] = [None] * m
    bipartite = True
    for s in range(m):
        if color[s] is not None:
            continue
        color[s] = 0
        stack = [s]
        while stack and bipartite:
            v = stack.pop()
            for w in g.neighbors(v):
                if color[w] is None:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    bipartite = False
                    break
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
    """Root the tree ``g`` at ``root``; raises ``InputError`` if ``g`` is no tree."""
    m = g.vertex_count
    if not 0 <= root < m:
        raise InputError(f"root {root} outside 0..{m - 1}")
    if len(g.edges) != m - 1 or not mask_is_connected(g, (1 << m) - 1):
        raise InputError("the item graph is not a tree")

    # A parent, then its children's subtrees from the highest child down:
    # reversed, that is the postorder with children in ascending order.
    children: list[tuple[int, ...]] = [()] * m
    parent = [-1] * m
    order: list[int] = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        children[v] = tuple(w for w in g.neighbors(v) if w != parent[v])
        for w in children[v]:
            parent[w] = v
        stack.extend(children[v])
    return RootedTreeView(
        root, tuple(children), tuple(reversed(order)), tuple(parent)
    )


def connected_set_masks(g: ItemGraph) -> Iterator[int]:
    """All nonempty connected vertex sets as bitmasks, each exactly once.

    Sets are grouped by their lowest vertex; within a group the stream follows
    a fixed include-first/exclude-second branching, so the order is
    deterministic.
    """
    m = g.vertex_count
    nbr = g.neighbor_masks
    full = (1 << m) - 1

    def grow(s: int, excluded: int, allowed: int) -> Iterator[int]:
        frontier = 0
        rest = s
        while rest:
            v = rest & -rest
            rest &= rest - 1
            frontier |= nbr[v.bit_length() - 1]
        cands = frontier & allowed & ~s & ~excluded
        if cands == 0:
            yield s
            return
        w = cands & -cands
        yield from grow(s | w, excluded, allowed)
        yield from grow(s, excluded | w, allowed)

    for v in range(m):
        allowed = full & ~((1 << v) - 1)
        yield from grow(1 << v, 0, allowed)


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
    """
    if k < 1:
        raise InputError("part count must be at least 1")
    m = g.vertex_count
    if k > m:
        return
    if classify(g).is_tree:
        yield from _tree_partitions(g, k)
    else:
        yield from _generic_partitions(g, k)


def _tree_partitions(g: ItemGraph, k: int) -> Iterator[tuple[frozenset[int], ...]]:
    m = g.vertex_count
    for removed in combinations(range(len(g.edges)), k - 1):
        removed_set = set(removed)
        adj = [[] for _ in range(m)]
        for idx, (a, b) in enumerate(g.edges):
            if idx not in removed_set:
                adj[a].append(b)
                adj[b].append(a)
        seen = [False] * m
        parts = []
        for s in range(m):
            if seen[s]:
                continue
            comp = []
            stack = [s]
            seen[s] = True
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            parts.append(frozenset(comp))
        parts.sort(key=min)
        yield tuple(parts)


def _generic_partitions(g: ItemGraph, k: int) -> Iterator[tuple[frozenset[int], ...]]:
    m = g.vertex_count
    nbr = g.neighbor_masks
    full = (1 << m) - 1

    def can_still_connect(part: int, remaining: int) -> bool:
        # every vertex of the part must sit in one component of part|remaining
        scope = part | remaining
        start = part & -part
        reached = start
        frontier = start
        while frontier:
            v = frontier & -frontier
            frontier &= frontier - 1
            grow = nbr[v.bit_length() - 1] & scope & ~reached
            reached |= grow
            frontier |= grow
        return part & ~reached == 0

    def assign(v: int, parts: list[int]) -> Iterator[tuple[frozenset[int], ...]]:
        if v == m:
            if len(parts) == k:
                yield tuple(frozenset(_mask_bits(p)) for p in parts)
            return
        remaining = full & ~((1 << (v + 1)) - 1)
        bit = 1 << v
        # not enough unassigned vertices left to open the missing parts
        open_budget = m - v - (k - len(parts))
        for idx in range(len(parts)):
            if open_budget < 0:
                break
            grown = parts[idx] | bit
            parts[idx] = grown
            if all(can_still_connect(p, remaining) for p in parts):
                yield from assign(v + 1, parts)
            parts[idx] = grown & ~bit
        if len(parts) < k:
            parts.append(bit)
            if all(can_still_connect(p, remaining) for p in parts):
                yield from assign(v + 1, parts)
            parts.pop()

    yield from assign(1, [1])


def induced_subgraph(
    g: ItemGraph, vertices: Iterable[int]
) -> tuple[ItemGraph, tuple[int, ...]]:
    """Induced subgraph plus the new-index -> old-index map (ascending)."""
    keep = sorted(set(vertices))
    if not keep:
        raise InputError("induced subgraph needs at least one vertex")
    if not all(0 <= v < g.vertex_count for v in keep):
        raise InputError("vertex outside the graph")
    back = {old: new for new, old in enumerate(keep)}
    labels = tuple(g.labels[v] for v in keep)
    edges = tuple(
        (back[a], back[b]) for a, b in g.edges if a in back and b in back
    )
    return ItemGraph(labels, edges), tuple(keep)
