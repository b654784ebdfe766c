"""Spans around graphfair's public functions, installed from outside ``src/``.

The tracer replaces a function where a module binds it (``solvers.classify``,
``oracle.connected_set_masks``, ...) with a wrapper that records a span, and
puts every original back when it is uninstalled.  Spans stay in memory as
``[name, parent, op, start, end, busy, items, child_busy]`` lists and are
written out once, at the end of the run.

For a plain function ``busy`` is the call's duration.  A generator is one span
from its first ``next()`` to its end; its ``busy`` is the time spent inside
``next()`` only and ``items`` counts what it yielded, so the consumer's own
work between items is not charged to the generator.  A span's self time is
its ``busy`` minus the ``busy`` of its direct children.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter

NAME, PARENT, OP, START, END, BUSY, ITEMS, CHILD = range(8)

# (module, attribute, span name, is a generator); the modules are the
# graphfair submodules that bind the function, not the ones that define it.
BINDINGS = (
    ("cli", "main", "cli.main", False),
    ("cli", "instance_from_json", "serialize.parse", False),
    ("cli", "dumps", "serialize.dumps", False),
    ("cli", "dispatch", "solvers.dispatch", False),
    ("generators", "gen_random", "generators.gen_random", False),
    ("solvers", "classify", "graphs.classify", False),
    ("oracle", "classify", "graphs.classify", False),
    ("mms_tree", "classify", "graphs.classify", False),
    ("solvers", "root_tree", "graphs.root_tree", False),
    ("mms_tree", "root_tree", "graphs.root_tree", False),
    ("oracle", "connected_set_masks", "graphs.connected_sets", True),
    ("oracle", "enumerate_connected_partitions", "graphs.partitions", True),
    ("solvers", "compute_type_partition", "model.type_partition", False),
    ("oracle", "compute_type_partition", "model.type_partition", False),
    ("solvers", "make_report", "model.make_report", False),
    ("oracle", "make_report", "model.make_report", False),
    ("mms_tree", "make_report", "model.make_report", False),
    ("solvers", "solve_matching", "matching.solve", False),
    ("solvers", "oracle_prop", "oracle.prop", False),
    ("solvers", "oracle_ef_complete", "oracle.ef", False),
    ("solvers", "oracle_mms_exists", "oracle.mms_exists", False),
    ("oracle", "oracle_mms_values", "oracle.mms_values", False),
    ("solvers", "prop_star", "solvers.star", False),
    ("solvers", "prop_path_greedy", "solvers.greedy", False),
    ("solvers", "prop_path_typed", "solvers.path_dp", False),
    ("solvers", "prop_tree_fpt", "solvers.tree_fpt", False),
    ("solvers", "ef_path_typed", "solvers.ef_path", False),
    ("mms_tree", "solve_mms_tree", "mms_tree.solve", False),
    ("mms_tree", "mms_value_tree", "mms_tree.value", False),
    ("mms_tree", "allocate_with_quotas", "mms_tree.allocate", False),
)


class Tracer:
    """Installs the wrappers, collects spans, and restores the originals."""

    def __init__(self, graphfair) -> None:
        self.graphfair = graphfair
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: str | None = None  # id of the operation now running
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for module_name, attr, name, is_gen in BINDINGS:
                module = getattr(self.graphfair, module_name)
                original = getattr(module, attr)
                wrap = self._wrap_generator if is_gen else self._wrap_call
                self._saved.append((module, attr, original))
                setattr(module, attr, wrap(name, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, parent, self.op, 0.0, 0.0, 0.0, 0, 0.0])
        return len(self.spans) - 1

    def _charge(self, idx: int, seconds: float) -> None:
        rec = self.spans[idx]
        rec[BUSY] += seconds
        if rec[PARENT] is not None:
            self.spans[rec[PARENT]][CHILD] += seconds

    def _wrap_call(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            self.stack.append(idx)
            start = self.spans[idx][START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = self.spans[idx][END] = perf_counter()
                self.stack.pop()
                self.spans[idx][ITEMS] = 1
                self._charge(idx, end - start)

        return traced

    def _wrap_generator(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            idx = self._open(name)
            rec = self.spans[idx]
            rec[START] = perf_counter()
            try:
                while True:
                    self.stack.append(idx)
                    t0 = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._charge(idx, perf_counter() - t0)
                        self.stack.pop()
                    rec[ITEMS] += 1
                    yield item
            finally:
                rec[END] = perf_counter()
                inner.close()

        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: self seconds, span count and items yielded."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"self_s": 0.0, "spans": 0, "items": 0}
        )
        for rec in self.spans:
            agg = out[rec[NAME]]
            agg["self_s"] += rec[BUSY] - rec[CHILD]
            agg["spans"] += 1
            agg["items"] += rec[ITEMS]
        return dict(out)

    def top_level_busy(self) -> float:
        """Seconds of operation time that some span covers."""
        return sum(r[BUSY] for r in self.spans if r[PARENT] is None and r[OP] is not None)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "parent", "op", "start", "end", "busy",
                                 "items", "child_busy"]) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
