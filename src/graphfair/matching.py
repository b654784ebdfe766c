"""Bipartite matchings by augmenting paths.

``solve_matching`` gives every row a distinct column at the least total
cost, where the cost sits on the column alone: the matchable column sets
are the independent sets of a transversal matroid, so taking columns
cheapest first is optimal (Edmonds, "Matroids and the greedy algorithm",
1971).  ``_lex_smallest_perfect`` serves the exhaustive envy-freeness
search.  Augmenting paths are walked on an explicit stack, not by recursion,
so a path may be as long as there are rows.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

__all__ = ["solve_matching"]


def solve_matching(
    accepts: Sequence[Sequence[int]], cost: Sequence
) -> Optional[list[int]]:
    """Each row's column, distinct and from its ascending ``accepts`` list.

    The total ``cost[c]`` over the chosen columns is the least possible;
    None when some row cannot be matched.  Columns are tried in ascending
    ``(cost[c], c)`` and each one is kept when an augmenting path admits
    it, trying the rows that accept it in ascending order, so among tied
    optima the cheaper, lower columns win.
    """
    rows = len(accepts)
    takers: list[list[int]] = [[] for _ in cost]  # column -> accepting rows
    for r, cols in enumerate(accepts):
        for c in cols:
            takers[c].append(r)
    owner: dict[int, int] = {}  # row -> column
    for c in sorted(range(len(cost)), key=lambda c: (cost[c], c)):
        if len(owner) == rows:
            break
        if takers[c]:  # no path admits a column no row accepts; stars have many
            _kuhn(takers, c, set(), owner, set())
    if len(owner) < rows:
        return None
    return [owner[r] for r in range(rows)]


def _lex_smallest_perfect(adj: list[list[int]]) -> Optional[list[int]]:
    """Lexicographically smallest perfect matching along ascending lists ``adj``.

    Greedily pins rows in index order to the smallest feasible column,
    re-checking each time that the remaining rows still admit a perfect
    matching.
    """
    size = len(adj)

    def feasible(start_row: int, used_cols: set[int]) -> bool:
        match_col: dict[int, int] = {}
        return all(
            _kuhn(adj, r, used_cols, match_col, set()) for r in range(start_row, size)
        )

    used: set[int] = set()
    pinned: list[int] = []
    for i in range(size):
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
    """Augment ``match_col`` (column -> row) from row r, avoiding ``used_cols``.

    Depth first, trying each row's columns in list order.  The path is kept
    on an explicit stack of ``(row, column iterator, column taken)`` frames,
    so its length is not bounded by the recursion limit.
    """
    stack: list[tuple[int, Iterator[int], int]] = []
    cols = iter(adj[r])
    while True:
        for j in cols:
            if j in used_cols or j in seen:
                continue
            seen.add(j)
            if j not in match_col:
                match_col[j] = r
                for row, _, col in stack:
                    match_col[col] = row
                return True
            stack.append((r, cols, j))
            r = match_col[j]
            cols = iter(adj[r])
            break
        else:
            if not stack:
                return False
            r, cols, _ = stack.pop()
