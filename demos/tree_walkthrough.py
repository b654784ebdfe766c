"""Maximin shares on a tree, end to end.

On tree-shaped item graphs a maximin-fair allocation always exists and is
found in polynomial time.  Each agent's share is a binary search over "can
the tree be split into n connected parts all worth at least q to me?", and
one postorder sweep answers that by cutting off a subtree as soon as its
uncut value reaches q.  Minimal satisfying subtrees are then peeled off the
tree, one agent at a time.
This script runs both stages on a small tree and prints the peeling trace.

Run:  python3 demos/tree_walkthrough.py
"""

from fractions import Fraction

from graphfair import (
    allocate_with_quotas,
    bundle_value,
    is_mms_allocation,
    mms_value_tree,
    oracle_mms_values,
    solve_mms_tree,
)
from graphfair.model import Instance, ItemGraph

#        bed --- hall --- kitchen --- porch
#                  |
#                study
graph = ItemGraph(
    ("bed", "hall", "kitchen", "porch", "study"),
    ((0, 1), (1, 2), (2, 3), (1, 4)),
)

inst = Instance(
    graph,
    ("ana", "bo", "cy"),
    (
        (Fraction(2, 10), Fraction(1, 10), Fraction(3, 10), Fraction(3, 10), Fraction(1, 10)),
        (Fraction(4, 10), Fraction(1, 10), Fraction(1, 10), Fraction(1, 10), Fraction(3, 10)),
        (Fraction(1, 10), Fraction(2, 10), Fraction(2, 10), Fraction(2, 10), Fraction(3, 10)),
    ),
)

print("Three agents, five rooms in a tree:")
print()
print("    bed --- hall --- kitchen --- porch")
print("              |")
print("            study")
print()
for name, row in zip(inst.agent_names, inst.utilities):
    cells = ", ".join(f"{graph.labels[v]}={row[v]}" for v in range(5))
    print(f"  {name}: {cells}")

print()
print("Step 1 — each agent's maximin share (binary search over her own scale):")
for i, name in enumerate(inst.agent_names):
    print(f"  {name}: {mms_value_tree(inst, i)}")
print(f"  (the exhaustive oracle agrees: {[str(v) for v in oracle_mms_values(inst)]})")

quotas = tuple(mms_value_tree(inst, i) for i in range(3))

print()
print("Step 2 — peel minimal satisfying subtrees, lowest-indexed agent first:")
alloc, trace = allocate_with_quotas(inst, quotas)
for k, r in enumerate(trace.rounds, start=1):
    name = inst.agent_names[r.agent]
    residual = "{" + ",".join(graph.labels[v] for v in sorted(r.residual_before)) + "}"
    awarded = "{" + ",".join(graph.labels[v] for v in sorted(r.awarded)) + "}"
    if r.vertex is None:
        print(f"  round {k}: residual {residual}; {name} is last and takes it all: {awarded}")
    else:
        print(
            f"  round {k}: residual {residual}; the first minimal subtree satisfying"
            f" someone hangs at '{graph.labels[r.vertex]}' — {name} takes {awarded}"
        )

print()
print("Everyone clears her quota:")
for i, name in enumerate(inst.agent_names):
    got = bundle_value(inst, i, alloc.bundles[i])
    rooms = "{" + ",".join(graph.labels[v] for v in sorted(alloc.bundles[i])) + "}"
    print(f"  {name}: {rooms} worth {got} (quota {quotas[i]})")
assert is_mms_allocation(inst, alloc, quotas)

print()
print("The one-call version bundles both steps:")
report = solve_mms_tree(inst)
print(f"  decision={report.decision}, method={report.method}, quotas={[str(q) for q in report.quotas]}")
