"""Augmenting-path matchings checked against permutation brute force."""

import random
from itertools import permutations

from graphfair.matching import _lex_smallest_perfect, solve_matching


def brute_min(accepts, cost):
    """Least total cost over all injections of rows into accepted columns."""
    totals = [
        sum(cost[c] for c in cols)
        for cols in permutations(range(len(cost)), len(accepts))
        if all(c in ok for c, ok in zip(cols, accepts))
    ]
    return min(totals, default=None)


def test_two_by_two_min():
    # Column 0 is cheapest and goes to row 0 first; column 1 then reroutes it.
    assert solve_matching([[0, 1], [0]], [1, 3]) == [1, 0]


def test_singleton():
    assert solve_matching([[0]], [5]) == [0]


def test_infeasible_row():
    assert solve_matching([[0], []], [1, 2]) is None
    assert solve_matching([[0], [0]], [1, 2]) is None


def test_empty_problem():
    assert solve_matching([], []) == []
    assert solve_matching([], [3, 1]) == []


def test_rectangular_skips_columns():
    assert solve_matching([[0, 1, 2]], [3, 1, 2]) == [1]


def test_lex_tie_break():
    # Equal costs go to the lower column; each new column goes to the lowest
    # row that an augmenting path reaches, so earlier rows move up.
    assert solve_matching([[0, 1, 2, 3]] * 3, [1, 1, 1, 1]) == [2, 1, 0]
    assert solve_matching([[0, 1, 2]] * 2, [0, 0, 5]) == [1, 0]
    assert solve_matching([[1, 2], [0, 1, 2]], [2, 2, 2]) == [1, 0]
    assert solve_matching([[1, 2], [0, 1, 2]], [4, 2, 2]) == [2, 1]


def test_agrees_with_brute_force():
    rng = random.Random(20261018)
    for _ in range(400):
        rows, width = rng.randint(0, 4), rng.randint(0, 6)
        accepts = [
            [c for c in range(width) if rng.random() < 0.6] for _ in range(rows)
        ]
        cost = [rng.randint(0, 3) for _ in range(width)]
        got = solve_matching(accepts, cost)
        want = brute_min(accepts, cost)
        if want is None:
            assert got is None, (accepts, cost)
            continue
        assert got is not None and len(got) == rows, (accepts, cost)
        assert len(set(got)) == rows
        assert all(c in ok for c, ok in zip(got, accepts))
        assert sum(cost[c] for c in got) == want, (accepts, cost)


def test_int_core_agrees_with_brute_force():
    # Negative costs too: the cheapest-first order needs no sign convention.
    rng = random.Random(20261018)
    for _ in range(160):
        rows = rng.randint(1, 5)
        width = rng.randint(rows, 5)
        accepts = [
            [c for c in range(width) if rng.random() >= 0.25] for _ in range(rows)
        ]
        cost = [rng.randint(-9, 9) for _ in range(width)]
        got = solve_matching(accepts, cost)
        want = brute_min(accepts, cost)
        if want is None:
            assert got is None, (accepts, cost)
            continue
        assert got is not None and len(set(got)) == rows, (accepts, cost)
        assert all(c in ok for c, ok in zip(got, accepts))
        total = sum(cost[c] for c in got)
        assert total == want and type(total) is int, (accepts, cost)


def test_lex_smallest_perfect_agrees_with_brute_force():
    rng = random.Random(5)
    for _ in range(300):
        size = rng.randint(0, 5)
        adj = [[j for j in range(size) if rng.random() < 0.5] for _ in range(size)]
        want = next(
            (
                list(perm)
                for perm in permutations(range(size))
                if all(j in row for j, row in zip(perm, adj))
            ),
            None,
        )
        assert _lex_smallest_perfect(adj) == want, adj


def test_augmenting_path_longer_than_the_recursion_limit():
    # Columns 1..K go first, each to the lower row that accepts it; column 0
    # then shifts every row down one column, along a path of K + 1 rows.
    K = 3000
    accepts = [[r, r + 1] for r in range(K)] + [[K]]
    cost = [1] + [0] * K
    assert solve_matching(accepts, cost) == list(range(K + 1))
