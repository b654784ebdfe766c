"""Structure-aware solvers for proportional and envy-free division.

Each solver exploits one graph class: a matching formulation on stars, and
on trees a subtree dynamic program that folds in one child at a time over
subsets of agents, reading the child's entries from a list indexed by agent
set and its owner from one table per vertex; it is exponential only in the
number of agents, spends the oracle's work budget, and its witness walks
back through the fold's own tables.  On paths with few agent types,
proportionality is an earliest-end dynamic program over per-type piece
counts (with identical agents, the greedy left-to-right sweep), and
complete envy-freeness is one left-to-right pass that fixes each type's
piece value at its first piece; its witness walks back through the pass's
own states.  Every solver compares values on ``Instance.grid``, one
integer grid per agent.
``METHODS`` is the one routing table: ``dispatch`` runs the first entry that
fits the instance, and the exhaustive oracle closes every problem's list.
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Optional

from . import mms_tree
from .graphs import GraphClass, classify, root_tree
from .matching import solve_matching
from .model import (
    Allocation,
    InputError,
    Instance,
    SolveReport,
    at_least,
    compute_type_partition,
    make_report,
)
from .oracle import (
    OracleBudget,
    _bounded,
    _checked_budget,
    oracle_ef_complete,
    oracle_mms_exists,
    oracle_prop,
)

__all__ = [
    "Method",
    "METHODS",
    "prop_star",
    "prop_path_greedy",
    "prop_path_typed",
    "prop_tree_fpt",
    "ef_path_typed",
    "select_method",
    "dispatch",
]

logger = logging.getLogger(__name__)


def path_order(inst: Instance) -> list[int]:
    """Vertices of a path graph from one end to the other.

    ``root_tree`` roots the graph at its lowest vertex of degree at most 1,
    which fixes the meaning of "left" for every path solver; the graph is a
    path exactly when that succeeds and no vertex has two children.
    """
    g = inst.graph
    end = next((v for v in range(g.vertex_count) if g.degree(v) <= 1), -1)
    try:
        view = root_tree(g, end)
    except InputError:
        view = None
    if view is None or any(len(kids) > 1 for kids in view.children):
        raise InputError("the item graph is not a path")
    return list(reversed(view.postorder))


# ---------------------------------------------------------------------------
# stars


def prop_star(inst: Instance) -> SolveReport:
    """Proportionality on stars via one matching per center owner.

    For a candidate owner i of the center, every other agent must take a
    single leaf she values at 1/n or more, and i keeps the center with the
    rest; i keeps 1/n exactly when what she gives away stays within
    (n-1)/n.  A leaf's weight is i's value for it, so ``solve_matching``
    gives the least such loss by taking leaves cheapest first for i, ties
    going to the lower position, and keeping each leaf when an augmenting
    path admits it, trying the other agents in index order.  Values are
    compared on each agent's grid from ``Instance.grid``, where 1 is her
    scale L and 1/n is ``at_least(1/n, L)``, so the matchings run on ints.
    """
    g = inst.graph
    m, n = inst.item_count, inst.agent_count
    center = 0 if m <= 2 else max(range(m), key=g.degree)
    if len(g.edges) != m - 1 or g.degree(center) != m - 1:  # an edge misses the center
        raise InputError("the item graph is not a star")
    leaves = [v for v in range(m) if v != center]

    if n - 1 > len(leaves):
        return make_report(inst, "star", None)

    scales, grid = inst.grid
    share = [at_least(Fraction(1, n), scale) for scale in scales]
    accepts = [
        [c for c, v in enumerate(leaves) if grid[j][v] >= share[j]] for j in range(n)
    ]
    for i in range(n):
        others = [j for j in range(n) if j != i]
        cost = [grid[i][v] for v in leaves]
        cols = solve_matching([accepts[j] for j in others], cost)
        if cols is None or sum(cost[c] for c in cols) > scales[i] - share[i]:
            continue
        bundles = [frozenset()] * n
        for j, c in zip(others, cols):
            bundles[j] = frozenset({leaves[c]})
        bundles[i] = frozenset(range(m)).difference(*bundles)
        return make_report(inst, "star", Allocation(tuple(bundles)))
    return make_report(inst, "star", None)


# ---------------------------------------------------------------------------
# paths


def _typed_path_setup(inst, types):
    """The path order, and per type its grid scale and prefix sums along it.

    A type's values live on the grid of its first member.
    """
    order = path_order(inst)
    scales, rows = inst.grid
    firsts = [members[0] for members in types.members]
    prefix = [[0, *accumulate(rows[a][v] for v in order)] for a in firsts]
    return order, [scales[a] for a in firsts], prefix


def _tiling_allocation(inst, order, types, pieces) -> Allocation:
    """Hand out the ``(s, e, t)`` pieces: positions s..e-1 go to an agent of type t.

    Each type's pieces go to its agents left to right.  A tiling with one
    piece per agent gives every agent a nonempty bundle.
    """
    by_type: list[list[tuple[int, int]]] = [[] for _ in range(types.type_count)]
    for s, e, t in sorted(pieces):
        by_type[t].append((s, e))
    bundles = [frozenset()] * inst.agent_count
    for t, members in enumerate(types.members):
        for agent, (s, e) in zip(members, by_type[t]):
            bundles[agent] = frozenset(order[s:e])
    return Allocation(tuple(bundles))


def prop_path_greedy(
    inst: Instance, budget: Optional[OracleBudget] = None
) -> SolveReport:
    """Identical agents on a path: ``prop_path_typed`` with one type.

    ``earliest[k]`` is where a left-to-right sweep closes its k-th piece,
    once it is worth 1/n; the witness tiles the whole path, so the last
    agent's piece runs to its end.
    """
    types = compute_type_partition(inst)
    if types.type_count != 1:
        raise InputError("the greedy path solver needs all agents identical")
    return make_report(inst, "greedy", _earliest_end_tiling(inst, types, budget))


def prop_path_typed(
    inst: Instance, budget: Optional[OracleBudget] = None
) -> SolveReport:
    """Proportionality on paths, exponential only in the number of types.

    A piece may go to type t when t values it at 1/n or more; any item may
    stay loose.  ``earliest[vec]`` is the first position by which the path
    can hold ``vec[t]`` pieces for each type t: 0 for the zero vector, and
    otherwise the least, over the types t with ``vec[t] > 0``, of the first
    end e after s = ``earliest[vec - e_t]`` such that t values s..e-1 at 1/n
    or more.  Utilities are nonnegative and items may stay loose, so a
    vector is reachable by position e exactly when its entry is at most e,
    and the instance is a yes when the full vector's entry is at most m.

    The witness walks back from the full vector at m.  At (e, vec) it cuts
    the piece s..e-1 with the smallest s = ``earliest[vec - e_t]`` that t
    values at 1/n or more, ties going to the lower type.  That is the first
    piece in the order s ascending, t ascending by which a prefix table of
    reachable vectors would have first reached (e, vec).  Such a piece
    always exists: ``earliest[vec]`` is at most e, and the type that set it
    values s..e-1 at 1/n or more, as utilities are nonnegative.  The cut
    moves e to ``earliest[vec - e_t]``, so no item is left loose and the
    witness tiles the whole path.

    The table has one entry per count vector, and each entry tries every
    type: before allocating it, the DP spends that many units of the
    budget's ``max_enumerated``, read by ``_bounded``, so too many distinct
    agents raise ``BudgetExceeded``.
    """
    types = compute_type_partition(inst)
    return make_report(inst, "path-dp", _earliest_end_tiling(inst, types, budget))


def _earliest_end_tiling(inst, types, budget) -> Optional[Allocation]:
    """The witness of ``prop_path_typed`` for these types, or None for a no."""
    order, scales, prefix = _typed_path_setup(inst, types)
    share = Fraction(1, inst.agent_count)
    threshold = [at_least(share, scale) for scale in scales]
    m, p = len(order), types.type_count
    full = types.agents_per_type
    # Count vectors are numbered in mixed radix with the last type fastest,
    # so vec - e_t is number idx - stride[t] and comes before vec.
    radix = [c + 1 for c in full]
    stride = [1] * p
    for t in range(p - 2, -1, -1):
        stride[t] = stride[t + 1] * radix[t + 1]
    size = stride[0] * radix[0]
    with _bounded(budget) as counter:
        counter.spend(size * p)
    earliest = [0] * size
    for idx in range(1, len(earliest)):
        best = m + 1  # past the end: not reachable
        for t in range(p):
            if idx // stride[t] % radix[t]:
                s = earliest[idx - stride[t]]
                if s < best:
                    end = bisect_left(prefix[t], prefix[t][s] + threshold[t], s + 1)
                    best = min(best, end)
        earliest[idx] = best
    if earliest[-1] > m:
        return None

    pieces: list[tuple[int, int, int]] = []
    e, idx = m, len(earliest) - 1
    while idx:
        start, pick = e, None
        for t in range(p):
            if idx // stride[t] % radix[t]:
                s = earliest[idx - stride[t]]
                if s < start and prefix[t][e] - prefix[t][s] >= threshold[t]:
                    start, pick = s, t
        pieces.append((start, e, pick))
        e, idx = start, idx - stride[pick]
    return _tiling_allocation(inst, order, types, pieces)


# ---------------------------------------------------------------------------
# trees


def _tree_dp_run(inst: Instance, budget: Optional[OracleBudget] = None):
    """The subtree DP on the instance's integer grid; returns its tables.

    ``folds[v][i][-1][S]`` is the most agent i can keep in a connected bundle
    that contains v and stays in v's subtree, while every agent in the
    bitmask S (which never holds i) gets a connected bundle there worth at
    least 1/n to her; None when no such split exists.  Entries are ints on
    agent i's grid from ``Instance.grid``: her utilities times her scale L,
    where 1/n is ``share[i] = at_least(1/n, L)``.  ``owner[v][T]`` is the
    lowest j in T who can own v's subtree while serving the rest of T, or
    None; no asking agent changes it, so it is filled once per vertex.

    A child z whose subtree serves the agents in T leaves i ``kept[T]``:
    ``folds[z][i][-1][T]`` if that entry exists (all of z's subtree when T is
    empty), else 0 when ``owner[z][T]`` takes z, else nothing.  ``kept`` is a
    list indexed by T, built in one pass, and ``cell(z, i, T)`` reads it back
    as ``(kept, owner)``, or None.  The children are folded in one at a
    time: from ``f[0]``, i's value for v alone, each child z turns ``f[S]``
    into the best ``f[S - T] + kept[T]`` over T ⊆ S, keeping the first best
    in the order S - T descending.  That is O(m·n·3^(n-1)) steps, with no
    set partition and no matching.  ``folds[v][i]`` lists i's table at v
    before the first child and after each child.  ``root_tree`` rejects a
    graph that is not a tree.

    The DP spends the budget's ``max_enumerated``, read by ``_bounded``, in
    bulk: each fold spends the 2^(n-1) entries of the child's ``kept`` table
    before building it, and the 2^|others - A| sets T it tries for each A
    whose entry exists before trying them.  Running out raises
    ``BudgetExceeded``.
    """
    m, n = inst.item_count, inst.agent_count
    full = (1 << n) - 1
    view = root_tree(inst.graph, 0)
    scales, grid = inst.grid
    share = [at_least(Fraction(1, n), scale) for scale in scales]
    folds: list[list] = [[None] * n for _ in range(m)]
    owner: list = [None] * m

    def cell(z: int, i: int, T: int) -> Optional[tuple[int, int]]:
        if (kept := folds[z][i][-1][T]) is not None:
            return kept, i
        return None if owner[z][T] is None else (0, owner[z][T])

    with _bounded(budget) as counter:
        for v in view.postorder:
            for i in range(n):
                others = full & ~(1 << i)
                f: list[Optional[int]] = [grid[i][v]] + [None] * full
                folds[v][i] = [f]
                for z in view.children[v]:
                    counter.spend(1 << (n - 1))  # the kept table's entries
                    kept = [k if k is not None or j is None else 0
                            for k, j in zip(folds[z][i][-1], owner[z])]
                    folded: list[Optional[int]] = [None] * (full + 1)
                    A = others  # each submask walk steps down to 0, then stops at -1
                    while A >= 0:
                        if (base := f[A]) is not None:
                            T = rest = others & ~A
                            counter.spend(1 << rest.bit_count())  # the sets T tried
                            while T >= 0:
                                k = kept[T]
                                if k is not None:
                                    if (best := folded[A | T]) is None or base + k > best:
                                        folded[A | T] = base + k
                                T = (T - 1) & rest if T else -1
                        A = (A - 1) & others if A else -1
                    f = folded
                    folds[v][i].append(f)
            owner[v] = row = [None] * (full + 1)
            for j in range(n):  # j's table holds no set with j in it
                for U, sub in enumerate(folds[v][j][-1]):
                    if sub is not None and sub >= share[j] and row[U | 1 << j] is None:
                        row[U | 1 << j] = j
    return view, folds, owner, cell


def prop_tree_fpt(inst: Instance, budget: Optional[OracleBudget] = None) -> SolveReport:
    """Proportionality on trees, exponential only in the number of agents.

    Runs ``_tree_dp_run`` on each agent's grid; the instance is a yes when
    some agent can own the root while all others are served, and the lowest
    one, ``owner[root][full]``, takes it.  The bundles are then built
    top-down by walking the fold back: at a vertex v that i owns while
    serving S, the children go from last to first, and child z takes the
    agents T = S - A of the first A, down S's submasks, whose entry before z
    plus ``cell(z, i, T)``'s kept value equals the entry for S after z: the
    pair the fold kept.  ``cell`` names z's owner, and S shrinks to A.  The
    DP's work is bounded by ``budget`` as ``_tree_dp_run`` says.
    """
    view, folds, owner, cell = _tree_dp_run(inst, budget)
    full = (1 << inst.agent_count) - 1
    first = owner[view.root][full]
    if first is None:
        return make_report(inst, "tree-fpt", None)

    bundles: list[set[int]] = [set() for _ in range(inst.agent_count)]
    stack = [(view.root, first, full & ~(1 << first))]
    while stack:
        v, i, S = stack.pop()
        bundles[i].add(v)
        kids, tables = view.children[v], folds[v][i]
        for k in reversed(range(len(kids))):
            z, before, after = kids[k], tables[k], tables[k + 1]
            A = S  # the fold reached after[S] from some A, so the walk stops
            while before[A] is None or (c := cell(z, i, S & ~A)) is None or (
                before[A] + c[0] != after[S]
            ):
                A = (A - 1) & S
            stack.append((z, c[1], S & ~A & ~(1 << c[1])))
            S = A
    witness = Allocation(tuple(frozenset(b) for b in bundles))
    return make_report(inst, "tree-fpt", witness)


# ---------------------------------------------------------------------------
# envy-freeness on paths


def ef_path_typed(
    inst: Instance, budget: Optional[OracleBudget] = None
) -> SolveReport:
    """Complete envy-freeness on paths by fixing each type's guess as it goes.

    A complete envy-free tiling has exactly n nonempty pieces, one per agent,
    and each piece of type t is worth the same guess g_t to t and at most
    g_o to every other type o.  Every such g_t lies in [1/n, 1/n_t]: the
    path's total value 1 is split among n pieces each worth at most g_t to
    type t, and n_t own pieces worth g_t each cannot exceed 1.

    One left-to-right pass over the pieces finds every feasible guess tuple.
    A state at position s holds the count vector and, for each type t,
    either its fixed guess or, while none of t's pieces is placed, the most
    t values any piece placed so far.  The first piece of type t fixes g_t
    to its value, which must lie in [1/n, 1/n_t] and be at least that
    running maximum; a later piece of type t must be worth exactly g_t; and
    a piece worth more than a fixed g_o to another type o is refused, as is
    every longer piece from the same start.  The finished state with the
    lexicographically smallest guess tuple sets the quotas.

    Each state keeps the first piece ``(s, t)`` and predecessor that reached
    it, in the pass's order: s ascending, then t ascending, then the states
    at s as they were reached.  The witness walks these back-pointers from
    the finished state to position 0, so each piece, from the right, is the
    one with the smallest start, ties going to the lower type.

    At each position s the pass first spends p·(m - s) units of the
    budget's ``max_enumerated``, read by ``_bounded``, per state there, the
    pieces that state may try; running out raises ``BudgetExceeded``.
    """
    types = compute_type_partition(inst)
    order, scales, prefix = _typed_path_setup(inst, types)
    m = len(order)
    p = types.type_count
    n = inst.agent_count
    full = types.agents_per_type

    # Dicts, not sets: the walk follows insertion order, and before Python
    # 3.12 hash(None) differs per process, so a set of guesses would not.
    states: list[dict[tuple, Optional[tuple]]] = [{} for _ in range(m + 1)]
    states[0][(0,) * p, (None,) * p, (0,) * p] = None
    with _bounded(budget) as counter:
        for s in range(m):
            counter.spend(len(states[s]) * p * (m - s))
            # The piece s..e's value to each type, shared by every t and state.
            pieces = {
                e: [prefix[o][e] - prefix[o][s] for o in range(p)] for e in range(s + 1, m + 1)
            }
            for t in range(p):
                for state in states[s]:
                    vec, guess, seen = state
                    if vec[t] == full[t]:
                        continue
                    grown = vec[:t] + (vec[t] + 1,) + vec[t + 1 :]
                    for e in range(s + 1, m + 1):
                        values = pieces[e]
                        if any(
                            values[o] > guess[o]
                            for o in range(p)
                            if o != t and guess[o] is not None
                        ):
                            break
                        own = values[t]
                        if guess[t] is None:
                            if own * full[t] > scales[t]:
                                break
                            if own < seen[t] or own * n < scales[t]:
                                continue
                            fixed = guess[:t] + (own,) + guess[t + 1 :]
                        elif own == guess[t]:
                            fixed = guess
                        elif own > guess[t]:
                            break
                        else:
                            continue
                        seen_after = tuple(
                            0 if fixed[o] is not None else max(seen[o], values[o])
                            for o in range(p)
                        )
                        states[e].setdefault((grown, fixed, seen_after), (s, t, state))
    finished = [state for state in states[m] if state[0] == full]
    if not finished:
        return make_report(inst, "ef-path", None)
    state = min(finished)  # vec is full and seen is zero: this orders by guess
    targets = state[1]
    pieces = []
    e = m
    while e:
        s, t, state = states[e][state]
        pieces.append((s, e, t))
        e = s
    witness = _tiling_allocation(inst, order, types, pieces)
    quotas = tuple(Fraction(targets[t], scales[t]) for t in types.type_of_agent)
    return make_report(inst, "ef-path", witness, quotas=quotas)


# ---------------------------------------------------------------------------
# routing


@dataclass(frozen=True)
class Method:
    """One routing entry: a solver for one problem and the instances it fits.

    ``run(inst, budget)`` solves; ``needs`` is the error text for a forced
    method whose ``applies(cls, inst)`` is false.
    """

    name: str
    problem: str
    applies: Callable[[GraphClass, Instance], bool]
    run: Callable[[Instance, Optional[OracleBudget]], SolveReport]
    needs: str = ""


# Per problem, ``auto`` takes the first entry that applies.  Each ``run`` looks
# its solver up by module attribute at call time, never through a captured
# function object, so a wrapper installed on that attribute sees the call.
# Greedy's ``applies`` compares grid rows, which are equal exactly when the
# utility rows are, and leaves the type partition to the solver.
METHODS = (
    Method("greedy", "prop",
           lambda cls, inst: cls.is_path
           and len(set(inst.grid[1])) == 1,
           lambda inst, budget: prop_path_greedy(inst, budget),
           "greedy needs a path and identical agents"),
    Method("path-dp", "prop",
           lambda cls, inst: cls.is_path,
           lambda inst, budget: prop_path_typed(inst, budget),
           "the path solver needs a path graph"),
    Method("star", "prop",
           lambda cls, inst: cls.is_star,
           lambda inst, budget: prop_star(inst),
           "the star solver needs a star graph"),
    Method("tree-fpt", "prop",
           lambda cls, inst: cls.is_tree,
           lambda inst, budget: prop_tree_fpt(inst, budget),
           "the tree solver needs a tree graph"),
    Method("oracle", "prop", lambda cls, inst: True,
           lambda inst, budget: oracle_prop(inst, budget)),
    Method("ef-path", "ef-complete",
           lambda cls, inst: cls.is_path,
           lambda inst, budget: ef_path_typed(inst, budget),
           "the envy-free path solver needs a path graph"),
    Method("oracle", "ef-complete", lambda cls, inst: True,
           lambda inst, budget: oracle_ef_complete(inst, budget)),
    Method("mms-tree", "mms",
           lambda cls, inst: cls.is_tree and inst.item_count >= inst.agent_count,
           lambda inst, budget: mms_tree.solve_mms_tree(inst),
           "the tree maximin solver needs a tree with enough items"),
    Method("oracle", "mms", lambda cls, inst: True,
           lambda inst, budget: oracle_mms_exists(inst, budget)),
)


def select_method(inst: Instance, problem: str, method: str = "auto") -> Method:
    """The ``METHODS`` entry that solves ``problem`` for ``inst``.

    ``problem`` is one of prop, ef-complete, mms; ``method`` overrides the
    automatic choice and is checked against the problem before the graph is
    classified.  A problem that is not a str is an ``InputError``.
    """
    if not isinstance(problem, str):
        raise InputError(f"problem must be a str, got {problem!r}")
    problem = problem.replace("_", "-")
    entries = [entry for entry in METHODS if entry.problem == problem]
    if not entries:
        raise InputError(f"unknown problem {problem!r}")
    if method != "auto":
        entries = [entry for entry in entries if entry.name == method]
        if not entries:
            raise InputError(f"method {method!r} does not solve problem {problem!r}")
    cls = classify(inst.graph)
    for entry in entries:
        if entry.applies(cls, inst):
            return entry
    raise InputError(entries[0].needs)


def dispatch(
    inst: Instance,
    problem: str,
    method: str = "auto",
    budget: Optional[OracleBudget] = None,
) -> SolveReport:
    """Route an instance through ``select_method`` and return the solver's report.

    A bad budget is refused before routing, also on routes that never read it.
    """
    _checked_budget(budget)
    entry = select_method(inst, problem, method)
    logger.debug("dispatch: problem=%s method=%s", entry.problem, entry.name)
    return entry.run(inst, budget)
