"""Seeded benchmark corpora: three workloads of graphfair ``solve`` operations.

Every instance comes from ``graphfair.generators.gen_random``.  Its generator
seed is derived from (workload, workload seed, stream, index, attempt) by
SHA-256, never by ``hash()``, whose value for strings changes from process to
process.  The same workload seed therefore gives a byte-identical corpus in
any process.

Item count, agent count, type cap and denominator bound follow a fixed
low-discrepancy schedule over each stream's ranges; only the graph and the
utilities depend on the seed.  A change of seed then changes the instances but
not the size mix, which is what keeps the per-problem throughputs comparable
from seed to seed: the cost of every solver grows steeply with the sizes.

The oracle's cost on a random connected graph also grows steeply with its edge
count (correlation 0.8-0.9 at fixed sizes), so those streams are stratified by
edges as well: each instance draws ``edge_strata`` graphs and keeps the one at
a scheduled rank by edge count.  With the ranks spread evenly over a stream,
its edge counts keep the distribution of a single draw; only their mix stops
depending on the seed.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Optional

# Streams whose graphs must avoid a class are redrawn with the next attempt
# number; the predicates see graphfair's ``GraphClass`` flags.
NOT_TREE: Callable = lambda c: not c.is_tree
TREE_NOT_PATH_OR_STAR: Callable = lambda c: c.is_tree and not (c.is_path or c.is_star)

_GOLDEN = (math.sqrt(5) - 1) / 2
_SQRT2 = math.sqrt(2) - 1
_SQRT3 = math.sqrt(3) - 1


@dataclass(frozen=True)
class Stream:
    """One problem on one graph class, ``count`` instances per corpus."""

    name: str
    problem: str
    graph_class: str
    items: tuple[int, int]
    agents: tuple[int, int]
    count: int
    types: Optional[tuple[int, int]] = None  # cap on distinct utility rows
    accept: Optional[Callable] = None
    edge_strata: int = 1  # graphs drawn per instance, one kept by edge rank


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    streams: tuple[Stream, ...]
    cli_stream: str  # the fixed CLI subset: one problem on one graph class


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "general-oracle",
            "Cycles and random connected non-tree graphs, m 6-9: every solve goes "
            "to the exhaustive oracle and the graphs enumerators, and per-call "
            "overhead weighs most. CLI subset: prop on cycles.",
            (
                Stream("prop-cycle", "prop", "cycle", (6, 9), (2, 4), 120),
                Stream("prop-connected", "prop", "connected", (6, 9), (2, 4), 120,
                       accept=NOT_TREE, edge_strata=8),
                Stream("ef-cycle", "ef-complete", "cycle", (6, 9), (2, 4), 120),
                Stream("ef-connected", "ef-complete", "connected", (6, 9), (2, 4), 120,
                       accept=NOT_TREE, edge_strata=8),
                Stream("mms-cycle", "mms", "cycle", (6, 9), (2, 4), 120),
                Stream("mms-connected", "mms", "connected", (6, 9), (2, 4), 120,
                       accept=NOT_TREE, edge_strata=8),
            ),
            "prop-cycle",
        ),
        Workload(
            "trees",
            "Bushy Pruefer trees and stars: the tree DP, star matching and "
            "mms-tree peeling and binary search; bypasses the oracle and the path "
            "solvers. CLI subset: prop on stars.",
            (
                Stream("prop-tree", "prop", "tree", (15, 30), (3, 5), 64,
                       accept=TREE_NOT_PATH_OR_STAR),
                Stream("prop-star", "prop", "star", (20, 60), (3, 5), 64),
                Stream("mms-tree", "mms", "tree", (20, 50), (3, 5), 40),
            ),
            "prop-star",
        ),
        Workload(
            "paths",
            "Paths with 1-3 agent types: greedy, path-dp, ef-path guessing and "
            "mms-tree on the deepest trees; bypasses the oracle. CLI subset: prop "
            "on paths.",
            (
                Stream("prop-path", "prop", "path", (40, 150), (2, 6), 120, types=(1, 3)),
                Stream("ef-path", "ef-complete", "path", (6, 10), (2, 4), 24,
                       types=(1, 3)),
                Stream("mms-path", "mms", "path", (20, 50), (2, 5), 44, types=(1, 3)),
            ),
            "prop-path",
        ),
    )
}


@dataclass(frozen=True)
class Op:
    """One ``graphfair solve`` call: an instance file and a problem."""

    id: str
    stream: str
    problem: str
    instance: object  # graphfair.model.Instance
    text: str  # canonical instance JSON, as written to disk

    @property
    def filename(self) -> str:
        return self.id.replace("/", "-") + ".json"

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()


def derive_seed(*parts) -> int:
    """A 64-bit seed from the parts' text, identical in every process."""
    text = "\x1f".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def _spread(lo: int, hi: int, u: float) -> int:
    return lo + min(hi - lo, int(u * (hi - lo + 1)))


def schedule(stream: Stream, i: int) -> tuple[int, int, Optional[int], int, int]:
    """(items, agents, type cap, denominator bound, edge rank) of instance i.

    Agents cycle through their range; items, denominator bound and edge rank
    follow Kronecker sequences, which stay evenly spread within each agent
    count and within every prefix of the stream, so a shortened corpus keeps
    the size mix.
    """
    n_lo, n_hi = stream.agents
    n = n_lo + i % (n_hi - n_lo + 1)
    m = _spread(*stream.items, ((i + 1) * _GOLDEN) % 1.0)
    denom = _spread(2, 20, ((i + 1) * _SQRT2) % 1.0)
    types = None
    if stream.types is not None:
        t_lo, t_hi = stream.types
        types = min(n, t_lo + (i // (n_hi - n_lo + 1)) % (t_hi - t_lo + 1))
    rank = _spread(0, stream.edge_strata - 1, ((i + 1) * _SQRT3) % 1.0)
    return m, n, types, denom, rank


def build(graphfair, workload: Workload, seed: int,
          per_stream: Optional[int] = None) -> list[Op]:
    """The workload's operations, stream by stream, for one workload seed.

    ``graphfair`` is the imported package; ``per_stream`` shortens every
    stream to a prefix of the full corpus (the smoke test uses it).
    """
    # gen_random is looked up on its module at each call, so that the traced
    # run's wrapper on ``generators.gen_random`` sees it.
    classify = graphfair.graphs.classify
    to_json = graphfair.serialize.instance_to_json
    ops = []
    for stream in workload.streams:
        count = stream.count if per_stream is None else min(per_stream, stream.count)
        for i in range(count):
            m, n, types, denom, rank = schedule(stream, i)
            # Stratified candidates need only their graphs, so they are drawn
            # with one agent; gen_random draws the graph before the utilities,
            # so the kept seed gives the same graph again with all agents.
            agents = n if stream.edge_strata == 1 else 1
            drawn = []  # (edge count, generator seed, instance)
            attempt = 0
            while len(drawn) < stream.edge_strata:
                gen_seed = derive_seed(workload.name, seed, stream.name, i, attempt)
                attempt += 1
                inst = graphfair.generators.gen_random(
                    gen_seed, stream.graph_class, m, agents, denom,
                    types=types if agents == n else None,
                )
                if stream.accept is None or stream.accept(classify(inst.graph)):
                    drawn.append((len(inst.graph.edges), gen_seed, inst))
            _, gen_seed, inst = sorted(drawn, key=lambda d: d[0])[rank]
            if agents != n:
                inst = graphfair.generators.gen_random(
                    gen_seed, stream.graph_class, m, n, denom, types=types)
            ops.append(Op(f"{stream.name}/{i:03d}", stream.name, stream.problem,
                          inst, to_json(inst)))
    return ops


def corpus_digest(ops: list[Op]) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(op.id.encode("utf-8") + b"\0" + op.text.encode("utf-8") + b"\0")
    return h.hexdigest()
