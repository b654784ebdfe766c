"""Smoke test of the benchmark itself, on a tiny corpus per workload.

    python3 bench/smoke.py        (from anywhere; about 15 s)

It covers the untraced and the traced run of every workload, the correctness
gate with one deliberately wrong reference answer, byte-identical corpora in
two processes, and the refusal to run without graphfair's sources.  The file
name keeps it out of the repository's pytest collection.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import corpus  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

TINY = dict(per_stream=2, cli_samples=2)


def tiny_run(name: str, trace: bool, seed: int = gate.REFERENCE_SEED, reference=None):
    r = run.Run(ROOT, name, seed, seconds=0.1, reference=reference, **TINY)
    return r, r.execute(trace)


class BenchmarkSmokeTest(unittest.TestCase):
    def test_benchmark_json_matches_the_metrics_printed(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual({w["name"]: w["why"] for w in spec["workloads"]},
                         {w.name: w.why for w in corpus.WORKLOADS.values()})

    def test_untraced_run(self):
        for name in corpus.WORKLOADS:
            with self.subTest(workload=name):
                r, result = tiny_run(name, trace=False)
                self.assertTrue(result["correct"], r.gate.errors)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]), set(run.END_TO_END))
                self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))
                applied = f"{len(r.ops)} of {len(r.ops)} reference answers applied"
                self.assertTrue(any(applied in line for line in r.lines), r.lines)

    def test_traced_run_restores_bindings(self):
        for name in corpus.WORKLOADS:
            with self.subTest(workload=name):
                r, result = tiny_run(name, trace=True, seed=5)
                self.assertTrue(result["correct"], r.gate.errors)
                self.assertEqual(set(result["metrics"]), set(run.PER_LAYER))
                self.assertIn("workload split: as expected", r.lines)
                for module, attr, _, _ in tracer.BINDINGS:
                    bound = getattr(getattr(r.gf, module), attr)
                    self.assertFalse(hasattr(bound, "__wrapped__"), f"{module}.{attr}")

    def test_wrong_reference_answer_fails_the_run(self):
        reference = copy.deepcopy(gate.load_reference("paths"))
        entry = reference["answers"]["ef-path/000"]["answer"]
        entry["decision"] = "no" if entry["decision"] == "yes" else "yes"
        r, result = tiny_run("paths", trace=False, reference=reference)
        self.assertFalse(result["correct"])
        self.assertTrue(any(e.startswith("ef-path/000:") for e in r.gate.errors), r.gate.errors)
        argv = ["--workload", "paths", "--seed", str(gate.REFERENCE_SEED), "--seconds", "0.1"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(argv, reference=reference, **TINY)
        self.assertNotEqual(code, 0)

    def test_corpus_is_byte_identical_in_two_processes(self):
        script = (
            "import sys; sys.path[:0] = sys.argv[1:3]; import corpus, run; "
            "gf = run.import_graphfair(); "
            "print([corpus.corpus_digest(corpus.build(gf, w, 7, 3)) "
            "for w in corpus.WORKLOADS.values()])"
        )
        paths = [str(ROOT / "bench"), str(ROOT / "src")]
        digests = [
            subprocess.run([sys.executable, "-c", script, *paths], capture_output=True,
                           text=True, check=True, timeout=120,
                           env={"PYTHONHASHSEED": hash_seed}).stdout
            for hash_seed in ("1", "2")
        ]
        self.assertEqual(digests[0], digests[1])
        gf = run.import_graphfair()
        here = [corpus.corpus_digest(corpus.build(gf, w, 7, 3)) for w in corpus.WORKLOADS.values()]
        self.assertEqual(digests[0].strip(), str(here))

    def test_refuses_to_run_without_sources(self):
        scratch = ROOT / "bench" / "work"
        scratch.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "bench", Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("work", "out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "trees", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
