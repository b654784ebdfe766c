"""Min/max-weight bipartite assignment over exact rationals.

The solver matches every left vertex to a distinct right vertex (left side
may be the smaller one), honours forbidden pairs exactly rather than through
big-M penalties, and among equal-weight optima returns the lexicographically
smallest assignment vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .model import InputError

__all__ = ["ABSENT", "MatchingProblem", "MatchingResult", "solve_matching"]

# Marker for a forbidden left/right pair; plain None so tables read naturally.
ABSENT = None


@dataclass(frozen=True)
class MatchingProblem:
    """Weight table (rows = left, columns = right) with optional objective.

    ``weights[i][j]`` is an exact rational, or ``ABSENT`` when the pair is
    forbidden.  The left side must not outnumber the right side.
    """

    weights: tuple[tuple[Optional[Fraction], ...], ...]
    objective: str = "min"

    def __post_init__(self):
        if self.objective not in ("min", "max"):
            raise InputError(f"unknown objective {self.objective!r}")
        rows = []
        width = None
        for row in self.weights:
            entries = []
            for w in row:
                if w is ABSENT:
                    entries.append(None)
                elif isinstance(w, (Fraction, int)):
                    entries.append(Fraction(w))
                else:
                    raise InputError(f"weight must be rational or ABSENT, got {w!r}")
            if width is None:
                width = len(entries)
            elif len(entries) != width:
                raise InputError("ragged weight table")
            rows.append(tuple(entries))
        if rows and width is not None and len(rows) > width:
            raise InputError("left side larger than right side")
        object.__setattr__(self, "weights", tuple(rows))

    @property
    def left_size(self) -> int:
        return len(self.weights)

    @property
    def right_size(self) -> int:
        return len(self.weights[0]) if self.weights else 0


@dataclass(frozen=True)
class MatchingResult:
    assignment: tuple[int, ...]  # left index -> right index
    total: Fraction


def solve_matching(problem: MatchingProblem) -> Optional[MatchingResult]:
    """Optimal assignment saturating the left side, or None when impossible."""
    left = problem.left_size
    right = problem.right_size
    if left == 0:
        return MatchingResult((), Fraction(0))

    sign = 1 if problem.objective == "min" else -1
    # Square the problem: dummy all-zero rows soak up the extra columns, so
    # plain perfect-matching duality applies and tight edges characterize
    # every optimum.
    size = right
    cost: list[list[Optional[Fraction]]] = []
    for i in range(left):
        cost.append([None if w is None else sign * w for w in problem.weights[i]])
    zero_row: list[Optional[Fraction]] = [Fraction(0)] * size
    for _ in range(size - left):
        cost.append(list(zero_row))

    duals = _hungarian(cost, size, real_rows=left)
    if duals is None:
        return None
    u, v = duals

    tight = [
        [
            j for j in range(size)
            if cost[i][j] is not None and cost[i][j] == u[i] + v[j]
        ]
        for i in range(size)
    ]
    assignment = _lex_smallest_perfect(tight, size, left)
    if assignment is None:  # pragma: no cover - duals guarantee feasibility
        return None
    total = Fraction(0)
    for i in range(left):
        w = problem.weights[i][assignment[i]]
        assert w is not None
        total += w
    return MatchingResult(tuple(assignment), total)


def _hungarian(
    cost: list[list[Optional[Fraction]]], size: int, real_rows: int
) -> Optional[tuple[list[Fraction], list[Fraction]]]:
    """Potentials-based shortest-augmenting-path solve; returns optimal duals.

    Uses 1-based scratch arrays in the classic formulation; ``None`` plays
    infinity for both forbidden cells and unvisited column minima.
    """
    INF = None
    u = [Fraction(0)] * (size + 1)
    v = [Fraction(0)] * (size + 1)
    p = [0] * (size + 1)  # column -> matched row (1-based; 0 = free)
    way = [0] * (size + 1)

    for i in range(1, size + 1):
        p[0] = i
        j0 = 0
        minv: list[Optional[Fraction]] = [INF] * (size + 1)
        used = [False] * (size + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta: Optional[Fraction] = INF
            j1 = -1
            row = cost[i0 - 1]
            for j in range(1, size + 1):
                if used[j]:
                    continue
                c = row[j - 1]
                if c is not None:
                    cur = c - u[i0] - v[j]
                    if minv[j] is None or cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                mj = minv[j]
                if mj is not None and (delta is None or mj < delta):
                    delta = mj
                    j1 = j
            if delta is None:
                # The alternating tree is stuck: some row (necessarily a real
                # one, dummies reach every column at cost 0) cannot be matched.
                return None
            for j in range(size + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    if minv[j] is not None:
                        minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while True:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
            if j0 == 0:
                break

    return u[1:], v[1:]


def _lex_smallest_perfect(
    adj: list[list[int]], size: int, real_rows: int
) -> Optional[list[int]]:
    """Lexicographically smallest perfect matching along ascending lists ``adj``.

    Greedily pins real rows in index order to the smallest feasible column,
    re-checking each time that the remaining rows (dummies included) still
    admit a perfect matching.
    """

    def feasible(start_row: int, used_cols: set[int]) -> bool:
        match_col: dict[int, int] = {}

        def try_kuhn(r: int, seen: set[int]) -> bool:
            for j in adj[r]:
                if j in used_cols or j in seen:
                    continue
                seen.add(j)
                if j not in match_col or try_kuhn(match_col[j], seen):
                    match_col[j] = r
                    return True
            return False

        return all(try_kuhn(r, set()) for r in range(start_row, size))

    used: set[int] = set()
    pinned: list[int] = []
    for i in range(real_rows):
        for j in adj[i]:
            if j not in used and feasible(i + 1, used | {j}):
                used.add(j)
                pinned.append(j)
                break
        else:
            return None
    return pinned
