from fractions import Fraction

from hypothesis import settings
from hypothesis import strategies as st

from graphfair import Instance, ItemGraph

# Differential tests against the oracle draw the same samples on every run:
# ``derandomize`` fixes the seed, and without a database no failure found on
# an earlier run is replayed first.  Each test sets its own ``max_examples``.
settings.register_profile("differential", derandomize=True, database=None, deadline=None)
DIFFERENTIAL = settings.get_profile("differential")


def path_graph(m, prefix="v"):
    return ItemGraph(
        tuple(f"{prefix}{i + 1}" for i in range(m)),
        tuple((i, i + 1) for i in range(m - 1)),
    )


def star_graph(leaf_count):
    labels = ("c",) + tuple(f"l{i + 1}" for i in range(leaf_count))
    return ItemGraph(labels, tuple((0, i + 1) for i in range(leaf_count)))


def cycle_graph(m):
    return ItemGraph(
        tuple(f"v{i + 1}" for i in range(m)),
        tuple((i, (i + 1) % m) for i in range(m)),
    )


def mk(graph, *rows):
    """Instance with agents a1..an; each row is a sequence of Fractions."""
    return Instance(
        graph,
        tuple(f"a{i + 1}" for i in range(len(rows))),
        tuple(tuple(Fraction(x) for x in row) for row in rows),
    )


def subtree_of(view, v):
    """The vertices of v's subtree in a rooted view, read as a postorder run.

    The run of ``view.postorder`` that ends at v, as long as v's subtree
    (counted through ``children``), must hold exactly v's descendants.
    """
    below = {v}
    stack = [v]
    while stack:
        for c in view.children[stack.pop()]:
            below.add(c)
            stack.append(c)
    end = view.postorder.index(v) + 1
    run = frozenset(view.postorder[end - len(below) : end])
    assert run == below
    return run


def types_by_equality(inst):
    """Each agent's type number from ``==`` on the Fraction rows, first seen first.

    ``compute_type_partition`` groups the integer grid's rows instead; tests
    keep this grouping as its reference.
    """
    seen = []
    for row in inst.utilities:
        if row not in seen:
            seen.append(row)
    return tuple(seen.index(row) for row in inst.utilities)


def frac_row(numerators, denominator):
    return tuple(Fraction(x, denominator) for x in numerators)


def random_row(rng, m, bound=9):
    while True:
        base = [rng.randint(0, bound) for _ in range(m)]
        total = sum(base)
        if total:
            return tuple(Fraction(x, total) for x in base)


@st.composite
def tree_instances(draw, max_items):
    """Small trees (parent pointers, paths or stars) with normalized rows.

    At most ``max_items`` items and min(4, items) agents; every row is drawn
    as nonnegative integers and divided by its sum.
    """
    m = draw(st.integers(1, max_items))
    n = draw(st.integers(1, min(4, m)))
    shape = draw(st.sampled_from(["parents", "path", "star"]))
    if shape == "parents":
        parents = [draw(st.integers(0, v - 1)) for v in range(1, m)]
    elif shape == "path":
        parents = list(range(m - 1))
    else:
        parents = [0] * (m - 1)
    label = draw(st.permutations(range(m)))
    edges = tuple((label[p], label[v]) for v, p in enumerate(parents, start=1))
    graph = ItemGraph(tuple(f"v{i + 1}" for i in range(m)), edges)
    row = st.lists(st.integers(0, 9), min_size=m, max_size=m).filter(any)
    rows = [draw(row) for _ in range(n)]
    return Instance(
        graph,
        tuple(f"a{i + 1}" for i in range(n)),
        tuple(tuple(Fraction(x, sum(r)) for x in r) for r in rows),
    )


@st.composite
def path_instances(draw, max_items, max_types):
    """Small paths (under a random relabeling) with 1 to ``max_types`` agent types.

    At most ``max_items`` items and 1-4 agents.  One normalized row is drawn
    per type and repeated for that type's agents, so rows repeat and the
    typed path solvers see several agents per type.
    """
    m = draw(st.integers(1, max_items))
    n = draw(st.integers(1, 4))
    p = draw(st.integers(1, min(max_types, n)))
    type_of_agent = list(range(p)) + [draw(st.integers(0, p - 1)) for _ in range(n - p)]
    type_of_agent = draw(st.permutations(type_of_agent))
    label = draw(st.permutations(range(m)))
    graph = ItemGraph(
        tuple(f"v{i + 1}" for i in range(m)),
        tuple((label[v], label[v + 1]) for v in range(m - 1)),
    )
    row = st.lists(st.integers(0, 9), min_size=m, max_size=m).filter(any)
    rows = [draw(row) for _ in range(p)]
    return Instance(
        graph,
        tuple(f"a{i + 1}" for i in range(n)),
        tuple(tuple(Fraction(x, sum(rows[t])) for x in rows[t]) for t in type_of_agent),
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion at the end of the run."""
    rows = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" not in nodeid:
                continue
            name = nodeid.rsplit("::", 1)[1]
            status = "PASS" if outcome == "passed" else "FAIL"
            if rows.get(name) != "FAIL":
                rows[name] = status
    if rows:
        terminalreporter.section("acceptance criteria")
        for name in sorted(rows):
            terminalreporter.write_line(f"{rows[name]}  {name}")
