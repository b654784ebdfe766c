"""graphfair benchmark: per-problem throughput, CLI latency and a traced run.

Run from the repository root, with nothing installed:

    python3 bench/run.py --workload trees --seed 0 --seconds 30 --trace 0

The run imports graphfair from ``src/`` and builds the workload's seeded corpus
(``corpus.py``), then decides every instance through the public entry point
``graphfair.cli.main(["solve", FILE, "--problem", P])`` in this process, one
solve at a time, with stdout captured.  It repeats the whole corpus for about
80% of ``--seconds`` (two passes at least) and takes each instance's median
over the passes.  The rest of the time goes to ``python -m graphfair solve``
subprocesses, one at a time, on the workload's fixed CLI subset.  Every answer
goes through the correctness gate (``gate.py``).

Timings are calibrated (see ``Clock``): on a shared host the speed of a CPU
changes by up to 1.6x for tens of seconds at a time, so every solve,
subprocess and set-up is scaled by a fixed probe loop timed right before and
after it.

With ``--trace 1`` the run instead makes one untraced and one traced pass and
reports per-layer self times from spans around the calls into each module
(``tracer.py``).  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
repeat every metric for people, with the ones the JSON leaves out.  A wrong
answer makes the run exit with 1.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import corpus
import gate as gate_mod
from tracer import Tracer

SETUP_REPEATS = 5
SOLVE_SHARE = 0.8  # of --seconds for in-process passes; the rest samples the CLI
MIN_PASSES = 2
MIN_CLI_SAMPLES = 21  # a median with at least ten samples on either side
BASELINE_SAMPLES = 7  # bare interpreter and import subprocesses in a traced run
SUBPROCESS_TIMEOUT_S = 120
PROBE_TERMS = tuple(Fraction(i % 17 + 1, i % 13 + 2) for i in range(40))

PROBLEM_METRIC = {"prop": "prop_per_s", "ef-complete": "ef_per_s", "mms": "mms_per_s"}

# The metrics of the JSON line, as BENCHMARK.json lists them.  ef_per_s and
# failed_frac are printed for people only: the trees workload has no
# ef-complete instances, and failed_frac is failed / attempted of that line.
END_TO_END = {
    "prop_per_s": "1/s",
    "mms_per_s": "1/s",
    "cli_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PRINTED_ONLY = {"ef_per_s": "1/s", "failed_frac": "ratio"}

# Per-layer metric -> (span name, what to read): self seconds, spans or items.
SPAN_METRICS = {
    "serialize.parse_s": ("serialize.parse", "self_s"),
    "serialize.parse_calls": ("serialize.parse", "spans"),
    "serialize.dumps_s": ("serialize.dumps", "self_s"),
    "cli.main_self_s": ("cli.main", "self_s"),
    "generators.gen_random_s": ("generators.gen_random", "self_s"),
    "graphs.classify_s": ("graphs.classify", "self_s"),
    "graphs.root_tree_s": ("graphs.root_tree", "self_s"),
    "graphs.root_tree_calls": ("graphs.root_tree", "spans"),
    "graphs.connected_sets_s": ("graphs.connected_sets", "self_s"),
    "graphs.connected_sets_yielded": ("graphs.connected_sets", "items"),
    "graphs.partitions_s": ("graphs.partitions", "self_s"),
    "graphs.partitions_yielded": ("graphs.partitions", "items"),
    "model.type_partition_s": ("model.type_partition", "self_s"),
    "model.make_report_s": ("model.make_report", "self_s"),
    "matching.solve_s": ("matching.solve", "self_s"),
    "matching.calls": ("matching.solve", "spans"),
    "oracle.prop_s": ("oracle.prop", "self_s"),
    "oracle.ef_s": ("oracle.ef", "self_s"),
    "oracle.mms_values_s": ("oracle.mms_values", "self_s"),
    "oracle.mms_exists_s": ("oracle.mms_exists", "self_s"),
    "solvers.dispatch_self_s": ("solvers.dispatch", "self_s"),
    "solvers.star_s": ("solvers.star", "self_s"),
    "solvers.greedy_s": ("solvers.greedy", "self_s"),
    "solvers.path_dp_s": ("solvers.path_dp", "self_s"),
    "solvers.tree_fpt_s": ("solvers.tree_fpt", "self_s"),
    "solvers.ef_path_s": ("solvers.ef_path", "self_s"),
    "mms_tree.solve_self_s": ("mms_tree.solve", "self_s"),
    "mms_tree.value_s": ("mms_tree.value", "self_s"),
    "mms_tree.value_calls": ("mms_tree.value", "spans"),
    "mms_tree.allocate_s": ("mms_tree.allocate", "self_s"),
}
PER_SOLVE_METRICS = {
    "graphs.classify_per_solve": "graphs.classify",
    "model.type_partition_per_solve": "model.type_partition",
}
OTHER_LAYER_METRICS = (
    "cli.interpreter_s", "cli.import_s", "model.verify_s",
    "trace.overhead_frac", "trace.unattributed_frac",
)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_per_solve"):
        return "calls/solve"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


PER_LAYER = {
    name: layer_unit(name)
    for name in [*SPAN_METRICS, *PER_SOLVE_METRICS, *OTHER_LAYER_METRICS]
}

# Layers a workload must reach (non-zero) or bypass (zero); the traced run
# reports whether the corpus still splits the work this way.
SPLIT = {
    "oracle.": {"general-oracle"},
    "graphs.partitions_yielded": {"general-oracle"},
    "mms_tree.": {"trees", "paths"},
    "solvers.ef_path_s": {"paths"},
    "solvers.tree_fpt_s": {"trees"},
}


# ---------------------------------------------------------------------------
# timing


def fraction_loop() -> None:
    total, kept = Fraction(0), {}
    for k in range(6):
        for term in PROBE_TERMS:
            total += term
        kept[k] = (total, PROBE_TERMS[:8])


def integer_loop() -> None:
    total = 0
    for i in range(5000):
        total += i * i % 7


# probe -> (loop, its seconds on the tuning host when uncontended)
PROBES = {"fraction": (fraction_loop, 0.00038), "integer": (integer_loop, 0.00032)}


class Clock:
    """Wall-clock seconds, calibrated against the host's changing speed.

    On a shared host the speed of one CPU flips between two states about 1.5x
    apart and stays in each for seconds to tens of seconds, which no number
    of repeats inside a 30-second run averages out.  So every timed interval
    is bracketed by a probe, a fixed loop timed right before and after it,
    and its calibrated duration is ``seconds * reference / mean(probe before,
    probe after)``: its length on a host where the probe takes its reference
    time, the tuning host's uncontended speed.

    Solves and set-ups use the Fraction loop, which is like graphfair's own
    inner loops and tracked their slowdown better than the integer loop.  A
    CLI subprocess, mostly interpreter start-up and imports, slows about as
    much as the integer loop (1.45x) and much less than the Fraction loop
    (1.85x), so its samples use the integer loop.
    """

    def __init__(self) -> None:
        self.probes: dict[str, list[float]] = {kind: [] for kind in PROBES}

    def probe(self, kind: str) -> float:
        start = perf_counter()
        PROBES[kind][0]()
        seconds = perf_counter() - start
        self.probes[kind].append(seconds)
        return seconds

    def calibrated(self, timing: "Timing") -> float:
        reference = PROBES[timing.kind][1]
        return timing.seconds * reference * 2 / (timing.before + timing.after)


class Timing:
    """One timed interval, the kind of probe around it and the probes' seconds."""

    __slots__ = ("seconds", "kind", "before", "after")

    def __init__(self, seconds: float, kind: str, before: float, after: float) -> None:
        self.seconds, self.kind, self.before, self.after = seconds, kind, before, after


# ---------------------------------------------------------------------------
# set-up


def import_graphfair():
    """A fresh import of graphfair and its CLI (earlier imports are dropped)."""
    for name in [n for n in sys.modules if n == "graphfair" or n.startswith("graphfair.")]:
        del sys.modules[name]
    importlib.import_module("graphfair.cli")
    return sys.modules["graphfair"]


def set_up(workload, seed: int, per_stream, workdir: Path, clock: Clock):
    """Import, generate the corpus and write its files; returns (Timing, gf, ops)."""
    shutil.rmtree(workdir, ignore_errors=True)
    before = clock.probe("fraction")
    start = perf_counter()
    gf = import_graphfair()
    ops = corpus.build(gf, workload, seed, per_stream)
    workdir.mkdir(parents=True)
    for op in ops:
        (workdir / op.filename).write_text(op.text, encoding="utf-8")
    seconds = perf_counter() - start
    return Timing(seconds, "fraction", before, clock.probe("fraction")), gf, ops


# ---------------------------------------------------------------------------
# measurement


def solve_pass(gf, ops, workdir: Path, clock: Clock, tracer=None) -> list[tuple]:
    """One in-process ``solve`` per operation: (exit code or error, stdout, Timing)."""
    gc.collect()
    results = []
    after = clock.probe("fraction")
    for op in ops:
        argv = ["solve", str(workdir / op.filename), "--problem", op.problem]
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.op = op.id
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = gf.cli.main(argv)
        except (Exception, SystemExit) as exc:
            code = f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
        before, after = after, clock.probe("fraction")
        results.append((code, out.getvalue(), Timing(seconds, "fraction", before, after)))
    if tracer is not None:
        tracer.op = None
    return results


def outcome_error(code, stdout: str):
    """Why an operation failed, or None with its report when it did not."""
    if not isinstance(code, int):
        return code, None
    if code not in gate_mod.EXIT_FOR.values():
        return f"exit code {code}", None
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not a JSON report", None
    if gate_mod.EXIT_FOR.get(doc.get("decision")) != code:
        return f"exit code {code} does not match decision {doc.get('decision')!r}", None
    return None, doc


def run_subprocess(argv: list[str], root: Path, env: dict) -> tuple[float, int, bytes]:
    start = perf_counter()
    proc = subprocess.run(argv, cwd=root, env=env, capture_output=True,
                          timeout=SUBPROCESS_TIMEOUT_S)
    return perf_counter() - start, proc.returncode, proc.stdout


def subprocess_env(root: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONIOENCODING="utf-8")


def percentile_label(samples: list[float]) -> str:
    """The median and the highest percentile with ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    text = f"p50 {statistics.median(ordered):.4f} s"
    if n >= 20:
        pct = int(100 * (n - 10) / n)
        text += f", p{pct} {ordered[max(0, (n * pct) // 100 - 1)]:.4f} s"
    return text + f" over {n} samples"


# ---------------------------------------------------------------------------
# the run


class Run:
    """One benchmark run of one workload; see the module docstring."""

    def __init__(self, root: Path, workload_name: str, seed: int, seconds: float,
                 per_stream=None, reference=None, cli_samples: int = MIN_CLI_SAMPLES):
        self.root = root
        self.workload = corpus.WORKLOADS[workload_name]
        self.seed = seed
        self.seconds = seconds
        self.per_stream = per_stream
        self.cli_samples = cli_samples
        if reference is None and seed == gate_mod.REFERENCE_SEED:
            reference = gate_mod.load_reference(workload_name)
        self.reference = reference
        self.workdir = root / "bench" / "work" / f"{workload_name}-{seed}-{os.getpid()}"
        self.lines: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.docs: dict[str, dict] = {}
        self.stdout: dict[str, str] = {}

    def say(self, text: str) -> None:
        self.lines.append(text)

    def execute(self, trace: bool) -> dict:
        self.clock = Clock()
        try:
            setup = []
            # the traced run reports no set-up time, so one set-up will do
            for _ in range(1 if trace else SETUP_REPEATS):
                timing, self.gf, self.ops = set_up(self.workload, self.seed,
                                                   self.per_stream, self.workdir, self.clock)
                setup.append(timing)
            self.gate = gate_mod.Gate(self.gf)
            self.say(f"workload {self.workload.name}, seed {self.seed}: "
                     f"{len(self.ops)} instances, corpus "
                     f"{corpus.corpus_digest(self.ops)[:16]}")
            metrics = self.traced() if trace else self.untraced(setup)
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)
        return {
            "correct": not self.gate.errors,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }

    def record(self, results: list[tuple], first: bool) -> list[bool]:
        """Count failures; keep the first pass's reports, check later ones equal."""
        ok = []
        for op, (code, stdout, _) in zip(self.ops, results):
            self.attempted += 1
            error, doc = outcome_error(code, stdout)
            ok.append(error is None)
            if error is not None:
                self.failed += 1
                self.say(f"failed {op.id}: {error}")
            elif first or op.id not in self.stdout:
                self.docs[op.id], self.stdout[op.id] = doc, stdout
            elif stdout != self.stdout[op.id]:
                self.gate.fail(op.id, "a repeated solve printed different bytes")
        return ok

    def check_answers(self) -> float:
        """The gate on the kept reports; returns seconds spent verifying witnesses."""
        start = perf_counter()
        for op in self.ops:
            if op.id in self.docs:
                self.gate.verify_witness(op, self.docs[op.id])
        verify_s = perf_counter() - start
        crossed = sum(self.gate.cross_check_oracle(op, self.docs[op.id])
                      for op in self.ops if op.id in self.docs)
        text = f"gate: witnesses verified, {crossed} oracle cross-checks"
        if self.reference is not None:
            applied = self.gate.check_reference(self.ops, self.docs, self.reference)
            text += f", {applied} of {len(self.ops)} reference answers applied"
        self.say(text)
        self.say_mix()
        return verify_s

    def say_mix(self) -> None:
        mix: dict[str, dict[str, int]] = {}
        for op in self.ops:
            doc = self.docs.get(op.id)
            if doc is not None:
                row = mix.setdefault(op.problem, {})
                for key in (doc["decision"], f"method={doc['method']}"):
                    row[key] = row.get(key, 0) + 1
        for problem, row in mix.items():
            counts = ", ".join(f"{k} {v}" for k, v in sorted(row.items()))
            self.say(f"answer mix {problem}: {counts}")

    def untraced(self, setup: list[Timing]) -> dict:
        budget = SOLVE_SHARE * self.seconds
        passes: list[list[tuple]] = []
        decided = [True] * len(self.ops)
        start = perf_counter()
        # another pass only while it should end within the budget
        while len(passes) < MIN_PASSES or perf_counter() - start < budget * (
                len(passes) / (len(passes) + 1)):
            passes.append(solve_pass(self.gf, self.ops, self.workdir, self.clock))
            ok = self.record(passes[-1], first=len(passes) == 1)
            decided = [a and b for a, b in zip(decided, ok)]
        cli = self.sample_cli(self.seconds - (perf_counter() - start))
        self.check_answers()

        values, raw = {}, {}
        for calibrate, out in ((self.clock.calibrated, values), (lambda t: t.seconds, raw)):
            per_op = [statistics.median(calibrate(p[i][2]) for p in passes)
                      for i in range(len(self.ops))]
            for problem, metric in PROBLEM_METRIC.items():
                idx = [i for i, op in enumerate(self.ops)
                       if op.problem == problem and decided[i]]
                if idx:
                    out[metric] = len(idx) / sum(per_op[i] for i in idx)
            out["setup_s"] = statistics.median(calibrate(t) for t in setup)
            out["cli_p50_s"] = statistics.median(calibrate(t) for t in cli)
        values["peak_rss_mb"] = raw["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        values["failed_frac"] = raw["failed_frac"] = self.failed / max(1, self.attempted)

        self.say(f"in-process: {len(passes)} passes, median pass per instance")
        self.say(f"CLI subset {self.workload.cli_stream}: "
                 f"{percentile_label([self.clock.calibrated(t) for t in cli])}")
        for kind, probes in self.clock.probes.items():
            self.say(f"calibration, {kind} probe: min {min(probes) * 1e3:.3f} ms, "
                     f"median {statistics.median(probes) * 1e3:.3f} ms, "
                     f"reference {PROBES[kind][1] * 1e3:.3f} ms")
        for name, unit in {**END_TO_END, **PRINTED_ONLY}.items():
            if name in values and values[name] != raw[name]:
                self.say(f"{name} {values[name]!r} {unit} (uncalibrated {raw[name]:.6g})")
            elif name in values:
                self.say(f"{name} {values[name]!r} {unit}")
            else:
                self.say(f"{name} n/a {unit} (no such instances in this workload)")
        return {name: {"value": values[name], "unit": unit}
                for name, unit in END_TO_END.items()}

    def sample_cli(self, budget: float) -> list[Timing]:
        """Timings of ``python -m graphfair solve`` subprocesses on the CLI subset."""
        subset = [op for op in self.ops if op.stream == self.workload.cli_stream]
        env = subprocess_env(self.root)
        samples = []
        start = perf_counter()
        after = self.clock.probe("integer")
        while len(samples) < self.cli_samples or perf_counter() - start < budget:
            op = subset[len(samples) % len(subset)]
            argv = [sys.executable, "-m", "graphfair", "solve",
                    str(self.workdir / op.filename), "--problem", op.problem]
            seconds, code, stdout = run_subprocess(argv, self.root, env)
            before, after = after, self.clock.probe("integer")
            samples.append(Timing(seconds, "integer", before, after))
            self.attempted += 1
            expected = self.stdout.get(op.id)
            error, _ = outcome_error(code, stdout.decode("utf-8", "replace"))
            if error is not None:
                self.failed += 1
                self.say(f"failed CLI {op.id}: {error}")
            elif expected is not None and stdout != expected.encode("utf-8"):
                self.gate.fail(op.id, "subprocess stdout differs from cli.main stdout")
        return samples

    def traced(self) -> dict:
        plain = solve_pass(self.gf, self.ops, self.workdir, self.clock)
        self.record(plain, first=True)
        with Tracer(self.gf) as tracer:
            corpus.build(self.gf, self.workload, self.seed, self.per_stream)
            traced = solve_pass(self.gf, self.ops, self.workdir, self.clock, tracer)
        self.record(traced, first=False)
        verify_s = self.check_answers()

        totals = tracer.totals()
        values = {}
        for metric, (span, field) in SPAN_METRICS.items():
            values[metric] = totals.get(span, {}).get(field, 0)
        for metric, span in PER_SOLVE_METRICS.items():
            values[metric] = totals.get(span, {}).get("spans", 0) / len(self.ops)
        env = subprocess_env(self.root)
        bare = [run_subprocess([sys.executable, "-c", "pass"], self.root, env)[0]
                for _ in range(BASELINE_SAMPLES)]
        imports = [run_subprocess([sys.executable, "-c", "import graphfair.cli"],
                                  self.root, env)[0] for _ in range(BASELINE_SAMPLES)]
        values["cli.interpreter_s"] = statistics.median(bare)
        values["cli.import_s"] = statistics.median(imports) - values["cli.interpreter_s"]
        values["model.verify_s"] = verify_s
        plain_s = sum(self.clock.calibrated(r[2]) for r in plain)
        values["trace.overhead_frac"] = (
            sum(self.clock.calibrated(r[2]) for r in traced) / plain_s - 1)
        values["trace.unattributed_frac"] = (
            1 - tracer.top_level_busy() / sum(r[2].seconds for r in traced))

        out = self.root / "bench" / "out"
        out.mkdir(exist_ok=True)
        spans_path = out / f"spans-{self.workload.name}-seed{self.seed}.jsonl"
        tracer.write(spans_path)
        self.say(f"{len(tracer.spans)} spans written to {spans_path.relative_to(self.root)}")
        self.say_split(values)
        for name, unit in PER_LAYER.items():
            self.say(f"{name} {values[name]!r} {unit}")
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}

    def say_split(self, values: dict) -> None:
        wrong = []
        for prefix, reached_by in SPLIT.items():
            for name, value in values.items():
                if name.startswith(prefix) and (value != 0) != (self.workload.name in reached_by):
                    wrong.append(f"{name}={value!r}")
        verdict = "UNEXPECTED " + " ".join(wrong) if wrong else "as expected"
        self.say(f"workload split: {verdict}")


def main(argv=None, **run_options) -> int:
    """The command line; ``run_options`` go to ``Run`` (the smoke test shrinks runs)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "graphfair" / "__init__.py").is_file():
        print(f"error: no graphfair sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))

    run = Run(root, args.workload, args.seed, args.seconds, **run_options)
    result = run.execute(trace=bool(args.trace))
    for line in run.lines:
        print(line)
    for error in run.gate.errors[:20]:
        print(f"WRONG {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
