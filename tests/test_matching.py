"""Assignment solver checked against permutation brute force."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from graphfair import ABSENT, InputError, MatchingProblem, MatchingResult, solve_matching
from graphfair.matching import _assign


def brute(weights, objective):
    """Optimal total and lex-smallest argmin over all injections."""
    left = len(weights)
    right = len(weights[0]) if weights else 0
    best = None
    for perm in permutations(range(right), left):
        if any(weights[i][perm[i]] is ABSENT for i in range(left)):
            continue
        total = sum(weights[i][perm[i]] for i in range(left))
        key = (total if objective == "min" else -total, perm)
        if best is None or key < best:
            best = key
    if best is None:
        return None
    total, perm = best
    return MatchingResult(tuple(perm), total if objective == "min" else -total)


def test_two_by_two_min():
    prob = MatchingProblem(((Fraction(0), Fraction(1)), (Fraction(1), Fraction(3))))
    res = solve_matching(prob)
    assert res == MatchingResult((1, 0), Fraction(2))


def test_singleton():
    res = solve_matching(MatchingProblem(((Fraction(5),),)))
    assert res == MatchingResult((0,), Fraction(5))


def test_infeasible_row():
    prob = MatchingProblem(((Fraction(1), ABSENT), (ABSENT, ABSENT)))
    assert solve_matching(prob) is None


def test_empty_problem():
    res = solve_matching(MatchingProblem(()))
    assert res == MatchingResult((), Fraction(0))


def test_rectangular_skips_columns():
    prob = MatchingProblem(((Fraction(3), Fraction(1), Fraction(2)),))
    res = solve_matching(prob)
    assert res == MatchingResult((1,), Fraction(1))


def test_max_objective():
    prob = MatchingProblem(
        ((Fraction(1), Fraction(4)), (Fraction(2), Fraction(2))), objective="max"
    )
    res = solve_matching(prob)
    assert res == MatchingResult((1, 0), Fraction(6))


def test_lex_tie_break():
    # Every assignment here costs the same; pick the identity.
    flat = ((Fraction(1), Fraction(1), Fraction(1)),) * 3
    res = solve_matching(MatchingProblem(flat))
    assert res is not None and res.assignment == (0, 1, 2)

    prob = MatchingProblem(((Fraction(0), Fraction(0), Fraction(5)), (Fraction(0), Fraction(0), Fraction(0))))
    res = solve_matching(prob)
    assert res == MatchingResult((0, 1), Fraction(0))


def test_validation():
    with pytest.raises(InputError):
        MatchingProblem(((Fraction(1),), (Fraction(1),)))  # more rows than columns
    with pytest.raises(InputError):
        MatchingProblem(((Fraction(1), Fraction(2)), (Fraction(1),)))
    with pytest.raises(InputError):
        MatchingProblem(((0.5,),))
    with pytest.raises(InputError):
        MatchingProblem(((Fraction(1),),), objective="sum")


def test_int_weights_coerced():
    prob = MatchingProblem(((2, 1), (1, 2)))
    assert all(isinstance(w, Fraction) for row in prob.weights for w in row)
    res = solve_matching(prob)
    assert res == MatchingResult((1, 0), Fraction(2))


def random_problem(rng, weight):
    """An objective and a left x right table (left <= right <= 5), a quarter ABSENT."""
    left = rng.randint(1, 5)
    right = rng.randint(left, 5)
    objective = rng.choice(("min", "max"))
    weights = tuple(
        tuple(ABSENT if rng.random() < 0.25 else weight() for _ in range(right))
        for _ in range(left)
    )
    return objective, weights


def test_agrees_with_brute_force():
    rng = random.Random(20240311)
    for _ in range(160):
        objective, weights = random_problem(
            rng, lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        )
        got = solve_matching(MatchingProblem(weights, objective))
        want = brute(weights, objective)
        assert got == want, (weights, objective)


def test_int_core_agrees_with_brute_force():
    rng = random.Random(20261018)
    for _ in range(160):
        objective, weights = random_problem(rng, lambda: rng.randint(-9, 9))
        got = _assign(weights, len(weights[0]), 1 if objective == "min" else -1)
        want = brute(weights, objective)
        if want is None:
            assert got is None, weights
        else:
            assert got == (want.assignment, want.total), (weights, objective)
            assert type(got[1]) is int


def test_min_max_mirror():
    rng = random.Random(7)
    for _ in range(60):
        size = rng.randint(1, 4)
        weights = tuple(
            tuple(Fraction(rng.randint(0, 6)) for _ in range(size)) for _ in range(size)
        )
        lo = solve_matching(MatchingProblem(weights, "min"))
        negated = tuple(tuple(-w for w in row) for row in weights)
        hi = solve_matching(MatchingProblem(negated, "max"))
        assert lo is not None and hi is not None
        assert hi.total == -lo.total
