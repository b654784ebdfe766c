"""The benchmark's correctness gate.

Checks, all outside the timed region:

* every yes-witness is a valid allocation that has the property asked for:
  proportional; envy-free and complete; or meeting the reported maximin-share
  quotas;
* at the reference seed, every decision and every exact-rational quota equals
  the committed reference answer of the same instance;
* at any seed, instances small enough for the exhaustive oracle that a
  specialised solver decided agree with ``oracle_*``;
* repeated solves of one instance print the same bytes, and a
  ``python -m graphfair`` subprocess prints the same bytes as ``cli.main``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_SEED = 0
EXIT_FOR = {"yes": 0, "no": 1}


def answer(problem: str, doc: dict) -> dict:
    """What the reference pins of a report: the decision, and the MMS quotas."""
    return {"decision": doc["decision"],
            "quotas": doc["quotas"] if problem == "mms" else None}


def load_reference(workload: str) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    return json.loads(path.read_text(encoding="utf-8"))


class Gate:
    """Collects every violation; the run is correct when there is none."""

    def __init__(self, graphfair) -> None:
        self.gf = graphfair
        self.errors: list[str] = []

    def fail(self, op_id: str, message: str) -> None:
        self.errors.append(f"{op_id}: {message}")

    def verify_witness(self, op, doc: dict) -> None:
        """A yes-answer's allocation must be valid and have the asked property."""
        model = self.gf.model
        inst = op.instance
        if doc["decision"] != "yes":
            return
        alloc = self.gf.serialize.allocation_from_dict(inst, doc["allocation"])
        if not model.is_valid(inst, alloc):
            self.fail(op.id, "witness is not a valid allocation")
            return
        if op.problem == "prop":
            ok = model.is_proportional(inst, alloc)
        elif op.problem == "ef-complete":
            ok = model.is_envy_free(inst, alloc) and model.is_complete(inst, alloc)
        else:
            quotas = [Fraction(doc["quotas"][name]) for name in inst.agent_names]
            ok = model.is_mms_allocation(inst, alloc, quotas)
        if not ok:
            self.fail(op.id, f"witness does not satisfy {op.problem}")

    def check_reference(self, ops, docs: dict, reference: dict) -> int:
        """Compare with the reference answers; returns how many entries applied.

        An entry applies when its instance digest matches, so a change to the
        generator shows up as stale entries instead of as wrong answers.
        """
        applied = 0
        entries = reference["answers"]
        for op in ops:
            entry = entries.get(op.id)
            if entry is None or entry["digest"] != op.digest or op.id not in docs:
                continue
            applied += 1
            got = answer(op.problem, docs[op.id])
            if got != entry["answer"]:
                self.fail(op.id, f"answer {got} differs from reference {entry['answer']}")
        return applied

    def cross_check_oracle(self, op, doc: dict) -> bool:
        """Oracle-sized instances decided by another solver must agree with it."""
        oracle = self.gf.oracle
        inst = op.instance
        budget = oracle.DEFAULT_BUDGET
        if doc["method"] == "oracle" or inst.item_count > budget.max_items \
                or inst.agent_count > budget.max_agents:
            return False
        quotas = None
        if op.problem == "prop":
            decision = oracle.oracle_prop(inst).decision
        elif op.problem == "ef-complete":
            decision = oracle.oracle_ef_complete(inst).decision
        else:
            decision = oracle.oracle_mms_exists(inst).decision
            quotas = {name: str(v) for name, v in
                      zip(inst.agent_names, oracle.oracle_mms_values(inst))}
        expected = {"decision": "yes" if decision else "no", "quotas": quotas}
        got = answer(op.problem, doc)
        if got != expected:
            self.fail(op.id, f"answer {got} differs from the oracle's {expected}")
        return True
