"""Min/max-weight bipartite assignment over exact numbers.

The solver matches every left vertex to a distinct right vertex (left side
may be the smaller one), honours forbidden pairs exactly rather than through
big-M penalties, and among equal-weight optima returns the lexicographically
smallest assignment vector.

``solve_matching`` validates a ``MatchingProblem`` of Fractions and answers
in Fractions.  The star solver calls the unchecked core ``_assign`` on the
rows of its integer grid instead, so the whole solve runs on ints; any
positive scaling of the weights keeps the same optima and the same tie-break.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

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
    sign = 1 if problem.objective == "min" else -1
    solved = _assign(problem.weights, problem.right_size, sign)
    if solved is None:
        return None
    assignment, total = solved
    return MatchingResult(assignment, Fraction(total))


def _assign(
    rows: Sequence[Sequence], width: int, sign: int
) -> Optional[tuple[tuple[int, ...], object]]:
    """``(assignment, total)`` minimizing ``sign`` times the total, or None.

    ``rows`` are unchecked weight rows of length ``width`` (no more rows
    than ``width``), all ints or all Fractions, with ``ABSENT`` cells; the
    total comes back in the rows' own number type.  Ties go to the
    lexicographically smallest assignment.
    """
    left = len(rows)
    if left == 0:
        return (), 0
    # Square the problem: dummy all-zero rows soak up the extra columns, so
    # plain perfect-matching duality applies and tight edges characterize
    # every optimum.
    cost = [[None if w is None else sign * w for w in row] for row in rows]
    cost += [[0] * width for _ in range(width - left)]

    duals = _hungarian(cost, width)
    if duals is None:
        return None
    u, v = duals

    tight = [
        [j for j, c in enumerate(row) if c is not None and c == u[i] + v[j]]
        for i, row in enumerate(cost)
    ]
    assignment = _lex_smallest_perfect(tight, width, left)
    if assignment is None:  # pragma: no cover - duals guarantee feasibility
        return None
    return tuple(assignment), sum(row[j] for row, j in zip(rows, assignment))


def _hungarian(cost: list[list], size: int) -> Optional[tuple[list, list]]:
    """Potentials-based shortest-augmenting-path solve; returns optimal duals.

    Uses 1-based scratch arrays in the classic formulation; ``None`` plays
    infinity for both forbidden cells and unvisited column minima.  The
    duals start at int 0, so they stay in the costs' own number type.
    """
    INF = None
    u = [0] * (size + 1)
    v = [0] * (size + 1)
    p = [0] * (size + 1)  # column -> matched row (1-based; 0 = free)
    way = [0] * (size + 1)

    for i in range(1, size + 1):
        p[0] = i
        j0 = 0
        minv: list = [INF] * (size + 1)
        used = [False] * (size + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = INF
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
        return all(
            _kuhn(adj, r, used_cols, match_col, set()) for r in range(start_row, size)
        )

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


def _kuhn(
    adj: list[list[int]], r: int, used_cols: set[int], match_col: dict[int, int],
    seen: set[int],
) -> bool:
    """Augment ``match_col`` (column -> row) from row r, avoiding ``used_cols``."""
    for j in adj[r]:
        if j in used_cols or j in seen:
            continue
        seen.add(j)
        if j not in match_col or _kuhn(adj, match_col[j], used_cols, match_col, seen):
            match_col[j] = r
            return True
    return False
