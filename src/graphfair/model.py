"""Core data model: item graphs, utility profiles, allocations, verifiers.

An instance couples an undirected graph over indivisible items with one
additive utility row per agent; every row is made of exact ``Fraction``
values and must sum to exactly 1.  Bundles handed to an agent must induce
a connected subgraph, and an allocation never has to hand out every item
unless a predicate explicitly asks for completeness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Optional, Sequence

__all__ = [
    "InputError",
    "BudgetExceeded",
    "ItemGraph",
    "Instance",
    "AgentTypePartition",
    "Allocation",
    "SolveReport",
    "normalize_utilities",
    "integer_grid",
    "at_least",
    "bundle_value",
    "is_valid",
    "is_proportional",
    "is_envy_free",
    "is_complete",
    "is_mms_allocation",
    "compute_type_partition",
    "make_report",
]


class InputError(ValueError):
    """Malformed instance data or an impossible solve/verify request."""


class BudgetExceeded(RuntimeError):
    """An exhaustive-search budget (items, agents, or explored nodes) ran out."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise InputError(f"not an exact rational: {x!r}")


@dataclass(frozen=True)
class ItemGraph:
    """Undirected simple graph over items.

    Vertices are identified by index 0..m-1; ``labels`` carries the external
    names.  Edges are stored canonically as sorted index pairs.
    """

    labels: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        try:
            labels, edges = tuple(self.labels), tuple(self.edges)
        except TypeError:  # a field is None or another non-iterable
            raise InputError("vertex labels and edges must be sequences") from None
        if len(labels) < 1:
            raise InputError("an item graph needs at least one vertex")
        if not all(isinstance(label, str) for label in labels):
            raise InputError("vertex labels must be strings")
        if len(set(labels)) != len(labels):
            raise InputError("vertex labels must be distinct")
        m = len(labels)
        canon = []
        seen = set()
        for e in edges:
            try:
                a, b = e
            except (TypeError, ValueError):
                a = b = None
            if not (isinstance(a, int) and isinstance(b, int)):
                raise InputError(f"edge {e!r} is not a pair of int vertex indices")
            if not (0 <= a < m and 0 <= b < m):
                raise InputError(f"edge {e} has an endpoint outside 0..{m - 1}")
            if a == b:
                raise InputError(f"self-loop at vertex {a}")
            if a < b:
                pair = e if type(e) is tuple else (a, b)
            else:
                pair = (b, a)
            if pair in seen:
                raise InputError(f"duplicate edge {pair}")
            seen.add(pair)
            canon.append(pair)
        canon.sort()
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "edges", tuple(canon))

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adjacency[v]

    def degree(self, v: int) -> int:
        return len(self._adjacency[v])

    @cached_property
    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's neighbors in ascending order, computed on first use.

        The edges are sorted pairs in sorted order, so every list comes out
        ascending without a sort.
        """
        adj: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return tuple(map(tuple, adj))

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        """Each vertex's neighbors as one bitmask, computed on first use."""
        masks = [0] * self.vertex_count
        for a, b in self.edges:
            masks[a] |= 1 << b
            masks[b] |= 1 << a
        return tuple(masks)

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise InputError(f"unknown vertex label {label!r}") from None


@dataclass(frozen=True)
class Instance:
    """An item graph plus one exactly-normalized utility row per agent."""

    graph: ItemGraph
    agent_names: tuple[str, ...]
    utilities: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        try:
            names, utilities = tuple(self.agent_names), tuple(self.utilities)
        except TypeError:  # a field is None or another non-iterable
            raise InputError("agent names and utility rows must be sequences") from None
        if len(names) < 1:
            raise InputError("an instance needs at least one agent")
        if not all(isinstance(name, str) for name in names):
            raise InputError("agent names must be strings")
        if len(set(names)) != len(names):
            raise InputError("agent names must be distinct")
        m = self.graph.vertex_count
        if len(utilities) != len(names):
            raise InputError("one utility row per agent is required")
        rows = []
        for name, row in zip(names, utilities):
            try:
                vals = tuple(map(_as_fraction, row))
            except TypeError:  # the row is not iterable
                raise InputError(f"utility row for {name!r} is not a sequence") from None
            if len(vals) != m:
                raise InputError(f"utility row for {name!r} must have {m} entries")
            # Both checks run on the row's integer grid, whose scale is positive.
            (scale,), (scaled,) = integer_grid((vals,))
            if min(scaled) < 0:
                raise InputError(f"negative utility for agent {name!r}")
            if sum(scaled) != scale:
                try:
                    wrong = f"sum to {sum(vals)}, expected exactly 1"
                except ValueError:  # the sum has more digits than str() may print
                    wrong = "do not sum to exactly 1"
                raise InputError(f"utilities of agent {name!r} {wrong}")
            rows.append(vals)
        object.__setattr__(self, "agent_names", names)
        object.__setattr__(self, "utilities", tuple(rows))

    @cached_property
    def grid(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """``(scales, rows)`` of ``integer_grid``, computed on first use.

        Every fairness test compares values under one agent's row, so each
        agent keeps her own scale.
        """
        return integer_grid(self.utilities)

    @property
    def agent_count(self) -> int:
        return len(self.agent_names)

    @property
    def item_count(self) -> int:
        return self.graph.vertex_count

    def agent_index(self, name: str) -> int:
        try:
            return self.agent_names.index(name)
        except ValueError:
            raise InputError(f"unknown agent name {name!r}") from None


@dataclass(frozen=True)
class AgentTypePartition:
    """Agents grouped by identical utility rows, numbered in first-occurrence order."""

    type_of_agent: tuple[int, ...]

    @property
    def type_count(self) -> int:
        return max(self.type_of_agent) + 1

    @property
    def agents_per_type(self) -> tuple[int, ...]:
        counts = [0] * self.type_count
        for t in self.type_of_agent:
            counts[t] += 1
        return tuple(counts)

    @property
    def members(self) -> tuple[tuple[int, ...], ...]:
        groups: list[list[int]] = [[] for _ in range(self.type_count)]
        for agent, t in enumerate(self.type_of_agent):
            groups[t].append(agent)
        return tuple(tuple(g) for g in groups)


@dataclass(frozen=True)
class Allocation:
    """One bundle (possibly empty) per agent, in agent order.

    Disjointness and connectivity are judged by ``is_valid``, not enforced at
    construction, so a parsed allocation can be inspected even when broken.
    """

    bundles: tuple[frozenset[int], ...]

    def __post_init__(self):
        object.__setattr__(self, "bundles", tuple(frozenset(b) for b in self.bundles))


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a solve: decision, method tag, optional witness and targets.

    ``achieved`` is always recomputed from the witness by :func:`make_report`;
    solvers never copy internal numbers into it.
    """

    decision: bool
    method: str
    witness: Optional[Allocation]
    achieved: Optional[tuple[Fraction, ...]]
    quotas: Optional[tuple[Fraction, ...]] = None


def normalize_utilities(values: Iterable) -> tuple[Fraction, ...]:
    """Scale a nonnegative rational vector so it sums to exactly 1.

    Offered as explicit preprocessing; the :class:`Instance` constructor never
    normalizes on its own.
    """
    vals = [_as_fraction(x) for x in values]
    if any(v < 0 for v in vals):
        raise InputError("cannot normalize a vector with negative entries")
    total = sum(vals)
    if total == 0:
        raise InputError("cannot normalize the all-zero vector")
    return tuple(v / total for v in vals)


def integer_grid(
    rows: Sequence[Sequence[Fraction]],
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """``(scales, scaled)``: per row, the lcm L of its denominators and the row times L.

    Every scaled entry is an exact integer, so sums over one row compare
    exactly on that row's grid; ``at_least`` puts a threshold on it.
    """
    scales = tuple(lcm(*(x.denominator for x in row)) for row in rows)
    return scales, tuple(
        tuple(x.numerator * (scale // x.denominator) for x in row)
        for scale, row in zip(scales, rows)
    )


def at_least(t: Fraction, scale: int) -> int:
    """The least int v with ``v / scale >= t``, that is ``ceil(t * scale)``.

    >>> [at_least(Fraction(1, 3), 9), at_least(Fraction(1, 3), 10), at_least(-1, 7)]
    [3, 4, -7]
    """
    return -(-t.numerator * scale // t.denominator)


def bundle_value(inst: Instance, agent: int, vertices: Iterable[int]) -> Fraction:
    """Additive value of a vertex set for one agent (empty set is worth 0)."""
    row = inst.utilities[agent]
    total = Fraction(0)
    for v in vertices:
        total += row[v]
    return total


def _check_alloc_shape(inst: Instance, alloc: Allocation) -> None:
    if len(alloc.bundles) != inst.agent_count:
        raise InputError(
            f"allocation has {len(alloc.bundles)} bundles for {inst.agent_count} agents"
        )
    m = inst.item_count
    for b in alloc.bundles:
        for v in b:
            if not (0 <= v < m):
                raise InputError(f"bundle vertex {v} outside 0..{m - 1}")


def is_valid(inst: Instance, alloc: Allocation) -> bool:
    """True iff bundles are pairwise disjoint and each induces a connected subgraph."""
    from .graphs import is_connected_set  # local import: graphs depends on model types

    _check_alloc_shape(inst, alloc)
    seen: set[int] = set()
    for b in alloc.bundles:
        if seen & b:
            return False
        seen |= b
    return all(is_connected_set(inst.graph, b) for b in alloc.bundles)


def is_proportional(inst: Instance, alloc: Allocation) -> bool:
    """True iff every agent values her own bundle at 1/n or more.

    Validity is a separate predicate; compose with ``is_valid`` when needed.

    >>> g = ItemGraph(("v1", "v2", "v3"), ((0, 1), (1, 2)))
    >>> u = (Fraction(1, 2), Fraction(0), Fraction(1, 2))
    >>> inst = Instance(g, ("a", "b"), (u, u))
    >>> is_proportional(inst, Allocation((frozenset({0}), frozenset({1, 2}))))
    True
    """
    _check_alloc_shape(inst, alloc)
    share = Fraction(1, inst.agent_count)
    return all(
        bundle_value(inst, i, b) >= share for i, b in enumerate(alloc.bundles)
    )


def is_envy_free(inst: Instance, alloc: Allocation) -> bool:
    """True iff no agent values another agent's bundle above her own."""
    _check_alloc_shape(inst, alloc)
    values = [
        [bundle_value(inst, i, b) for b in alloc.bundles]
        for i in range(inst.agent_count)
    ]
    return all(
        values[i][i] >= values[i][j]
        for i in range(inst.agent_count)
        for j in range(inst.agent_count)
    )


def is_complete(inst: Instance, alloc: Allocation) -> bool:
    """True iff the bundles cover every item."""
    _check_alloc_shape(inst, alloc)
    covered: set[int] = set()
    for b in alloc.bundles:
        covered |= b
    return len(covered) == inst.item_count


def is_mms_allocation(
    inst: Instance, alloc: Allocation, mms: Sequence[Fraction]
) -> bool:
    """True iff the allocation is valid and meets each agent's maximin share."""
    if len(mms) != inst.agent_count:
        raise InputError("one maximin-share value per agent is required")
    if not is_valid(inst, alloc):
        return False
    return all(
        bundle_value(inst, i, b) >= mms[i] for i, b in enumerate(alloc.bundles)
    )


def compute_type_partition(inst: Instance) -> AgentTypePartition:
    """Group agents with equal rows of ``Instance.grid``.

    A grid row sums to its own scale, so equal grid rows mean equal utility
    rows; the rows are int tuples, so a dict groups them in one pass.

    >>> g = ItemGraph(("v1", "v2"), ((0, 1),))
    >>> u = (Fraction(1, 2), Fraction(1, 2))
    >>> w = (Fraction(1), Fraction(0))
    >>> compute_type_partition(Instance(g, ("a", "b", "c"), (u, w, u))).type_of_agent
    (0, 1, 0)
    """
    first: dict[tuple[int, ...], int] = {}
    return AgentTypePartition(
        tuple(first.setdefault(row, len(first)) for row in inst.grid[1])
    )


def make_report(
    inst: Instance,
    method: str,
    witness: Optional[Allocation],
    quotas: Optional[Sequence[Fraction]] = None,
) -> SolveReport:
    """Assemble a report, recomputing achieved values from the witness.

    Each value is summed on the agent's row of ``Instance.grid``, which every
    solver has built by the time it reports.
    """
    achieved = None
    if witness is not None:
        scales, rows = inst.grid
        achieved = tuple(
            Fraction(sum(row[v] for v in b), scale)
            for scale, row, b in zip(scales, rows, witness.bundles)
        )
    return SolveReport(
        decision=witness is not None,
        method=method,
        witness=witness,
        achieved=achieved,
        quotas=None if quotas is None else tuple(quotas),
    )
