"""Write the committed reference answers of the reference seed.

    python3 bench/make_reference.py [WORKLOAD ...]

Run from the repository root.  Every instance of the reference seed's corpus
is decided through ``cli.main`` and must pass the same gate as a benchmark run
(witness checks and oracle cross-checks) before its answer is written to
``bench/reference/<workload>.json``.  Rewrite a reference only when the corpus
or the expected answers change on purpose, and say why in the change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import corpus
import gate as gate_mod
import run


def reference_for(root: Path, workload) -> dict:
    workdir = root / "bench" / "work" / f"reference-{workload.name}"
    try:
        clock = run.Clock()
        _, gf, ops = run.set_up(workload, gate_mod.REFERENCE_SEED, None, workdir, clock)
        results = run.solve_pass(gf, ops, workdir, clock)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    gate = gate_mod.Gate(gf)
    answers = {}
    for op, (code, stdout, _) in zip(ops, results):
        error, doc = run.outcome_error(code, stdout)
        if error is not None:
            raise SystemExit(f"{op.id}: {error}")
        gate.verify_witness(op, doc)
        gate.cross_check_oracle(op, doc)
        answers[op.id] = {
            "digest": op.digest,
            "method": doc["method"],
            "answer": gate_mod.answer(op.problem, doc),
        }
    if gate.errors:
        raise SystemExit("\n".join(gate.errors))
    return {
        "workload": workload.name,
        "seed": gate_mod.REFERENCE_SEED,
        "corpus_sha256": corpus.corpus_digest(ops),
        "answers": answers,
    }


def dump(doc: dict) -> str:
    """JSON with one answer per line, so a changed answer is a one-line diff."""
    head = {k: v for k, v in doc.items() if k != "answers"}
    lines = [json.dumps(head)[:-1] + ', "answers": {']
    entries = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in doc["answers"].items()]
    lines.append(",\n".join(entries))
    lines.append("}}")
    return "\n".join(lines) + "\n"


def main(argv: list[str]) -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    gate_mod.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in argv or list(corpus.WORKLOADS):
        doc = reference_for(root, corpus.WORKLOADS[name])
        path = gate_mod.REFERENCE_DIR / f"{name}.json"
        path.write_text(dump(doc), encoding="utf-8")
        print(f"{path.relative_to(root)}: {len(doc['answers'])} answers")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
