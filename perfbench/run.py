"""The mannerforge benchmark.

    python3 perfbench/run.py --workload forge_x150 --seed 1 --seconds 30 --trace 0

Workloads (inputs.WORKLOADS holds their presets and sizes):

  forge_x150      `forge_dataset` on the vocab_x150 preset with one process:
                  every forge layer does real work.
  forge_k5_jobs2  `forge_dataset` on the kshot_k5 preset with jobs=2: the
                  only workload that runs the worker pool and the pickle
                  transport of examples.
  evaluate_mix    `read_dataset` + `read_predictions` + `evaluate` on a
                  corpus forged during set-up, with exact, valid-but-inexact
                  and truncated predictions.  Its timed part bypasses the
                  sampler, the oracle, emission and writing, so a forge-only
                  change should move only its forge_examples_per_s, which
                  comes from the forge inside its set-up.

`--trace 0` gives the end-to-end metrics.  A run repeats one iteration for
`--seconds`: a set-up in a fresh interpreter, then for the forge workloads
one `forge_dataset` and evaluations of oracle predictions on that corpus,
and for evaluate_mix evaluations only.  Interleaving spreads every
metric's samples over the whole run, so a slow spell on a shared host hits
all of them alike.  A throughput is the work of all its samples over their
summed wall time: on a host that alternates between a fast and a slow speed
for seconds at a time, that mean moves less from run to run than a median,
which jumps between the two.  setup_s is the median of the set-ups.  Each
timed operation is preceded by inputs.calibrate() in a fresh interpreter,
and the three timing metrics are scaled to the host speed of
CALIBRATION_REFERENCE_S (see there).  The line before the result line holds
the unscaled figures.  On the forge workloads, peak_rss_mb is read right
after the first forge, before anything else runs in the process, so it is
the forge's own peak.

`--trace 1` alternates untraced and traced runs of the workload's main
operation and reports per-layer self times and counts (tracing.py), the
tracing overhead, and the traced wall time that no named layer accounts for.
Its spans are written to .perfbench_out/trace-<workload>.jsonl.

Every run checks its outputs: manifest digests repeat within the run and
match golden.json where it has the seed (a missing golden.json fails the
run; one for another schema, size or seed is reported and skipped),
evaluate reports agree with what the predictions imply (and with
golden.json), every persisted target executes and satisfies its goal and
recomposes from the module records, and forge_x150 reproduces the ROADMAP
manifest digest under two hash seeds and with jobs=2.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
GOLDEN_PATH = os.path.join(HERE, "golden.json")

if HERE not in sys.path:
    sys.path.insert(0, HERE)

import inputs  # noqa: E402
import tracing  # noqa: E402

END_TO_END = {
    "forge_examples_per_s": "1/s",
    "eval_predictions_per_s": "1/s",
    "output_bytes_per_example": "B",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# The traced run's attributed time is the sum of these layers' self times.
TIMED_LAYERS = (
    "world.sample_situation",
    "world.execute",
    "pipeline.solve",
    "pipeline.goal_satisfied",
    "dsl.apply_program",
    "dsl.ground",
    "metagrammar.sample_registry",
    "forge.build_lexicon",
    "forge.generate_example",
    "forge.generate_parallel",
    "forge.worker_chunk",
    "forge.build_splits",
    "forge.emit_module_datasets",
    "forge.write_dataset",
    "forge.read_dataset",
    "harness.read_predictions",
    "harness.evaluate",
    "harness.semantic_check",
)
RETRY_CAUSES = ("OutOfBounds", "Blocked", "IllegalInteraction", "GoalNotSatisfied")
RETRY_TYPES = (tracing.NO_ADVERB, "spinning_type", "cautiously_type", "zigzag_type", "detour_type")

PER_LAYER = {f"{layer}_s": "s" for layer in TIMED_LAYERS}
PER_LAYER.update(
    {
        "world.sample_situation_calls": "count",
        "world.execute_calls": "count",
        "world.execute_fail": "count",
        "pipeline.solve_calls": "count",
        "pipeline.solve_fail": "count",
        "pipeline.goal_rejects": "count",
        "dsl.symbols_out": "count",
        "metagrammar.registry_size": "count",
        "forge.accept_ratio": "ratio",
        "forge.retries.total": "count",
        **{f"forge.retries.{c}.{t}": "count" for c in RETRY_CAUSES for t in RETRY_TYPES},
        "forge.retries.other": "count",
        "forge.bytes.examples": "B/example",
        "forge.bytes.modules": "B/example",
        "forge.jobs2_speedup": "ratio",
        "harness.semantic_checks": "count",
        "harness.exact_matches": "count",
        "trace.untraced_wall_s": "s",
        "trace.traced_wall_s": "s",
        "trace.overhead_ratio": "ratio",
        "trace.unattributed_s": "s",
        "failed_fraction": "ratio",
    }
)

MIN_ITERATIONS = 3
# On a shared host the same code runs up to 40% slower for minutes at a time.
# inputs.calibrate() slows down with it: over 30 s windows of one process,
# forge throughput spread 0.27 (interquartile range over median) while forge
# throughput times calibrate()'s mean time spread 0.03.  The untraced timing
# metrics are therefore scaled by calibrate()'s mean over the run relative to
# this reference, its median on the machine of BASELINE.md, and read as that
# machine's figures at its reference speed.  calibrate() runs in a fresh
# interpreter, so nothing the program leaves in this process can slow it.
CALIBRATION_REFERENCE_S = 0.12
# Evaluations per iteration: about a third of a forge's time on the forge
# workloads, and about one set-up's forge on evaluate_mix.
EVALS_PER_ITERATION = {"forge_x150": 2, "forge_k5_jobs2": 2, "evaluate_mix": 5}
SUBPROCESS_TIMEOUT_S = 150


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def load_program():
    """Import mannerforge from the checkout's src/; exit 2 when it is missing."""
    if not os.path.isdir(os.path.join(SRC, "mannerforge")):
        log(f"error: no mannerforge package under {SRC}")
        sys.exit(2)
    sys.path.insert(0, SRC)
    import mannerforge.forge
    import mannerforge.harness

    return mannerforge


class Ledger:
    """Counts attempted and failed units of work: set-ups, timed
    repetitions and output checks.  A unit fails when it raises or when one
    of its expectations does not hold; a failed unit's time is dropped."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self._ok = True

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self._ok = False
            log(f"check failed: {what}")

    def check(self, ok: bool, what: str) -> None:
        """A check that is a unit of its own."""
        self.run(what, self.expect, ok, what)

    def run(self, what: str, fn, *args):
        """Run one unit; return its result, or None when it failed."""
        self._ok = True
        try:
            result = fn(*args)
        except Exception:  # a failing unit is counted, and the run goes on
            log(f"{what} raised:\n{traceback.format_exc()}")
            self._ok = False
        self.attempted += 1
        if not self._ok:
            self.failed += 1
            return None
        return result


def python_script(args: list, **env) -> tuple[float, dict]:
    """Run inputs.py in a fresh interpreter that imports mannerforge from the
    checkout; return its wall time and the JSON line it prints."""
    cmd = [sys.executable, os.path.join(HERE, "inputs.py"), *args]
    start = time.perf_counter()
    proc = subprocess.run(
        cmd, env={**os.environ, "PYTHONPATH": SRC, **env},
        capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return wall, json.loads(proc.stdout.strip().splitlines()[-1])


class Bench:
    def __init__(self, mf, workload: str, seed: int, examples: int, work: str):
        self.forge = mf.forge
        self.harness = mf.harness
        self.workload = workload
        self.seed = seed
        self.examples = examples
        self.jobs = inputs.WORKLOADS[workload][2]
        self.work = work
        self.ledger = Ledger()
        self.golden = self._golden()
        self.cfg = self.forge.ForgeConfig.from_dict(inputs.config_dict(workload, seed, examples))
        self.manifest_digest = None

    def _golden(self):
        """This workload's and seed's expected manifest digest or report."""
        try:
            with open(GOLDEN_PATH, encoding="utf-8") as fh:
                golden = json.load(fh)
        except FileNotFoundError:
            self.ledger.check(False, f"{GOLDEN_PATH} is missing")
            return None
        if golden["schema_version"] != self.forge.SCHEMA_VERSION:
            log("golden.json is for another schema version: outputs are checked without it")
            return None
        if golden["examples"][self.workload] != self.examples:
            log(f"golden.json is for {golden['examples'][self.workload]} examples, not {self.examples}: "
                "outputs are checked without it")
            return None
        value = golden[self.workload].get(str(self.seed))
        if value is None:
            log(f"golden.json has no seed {self.seed}: outputs are checked without it")
        return value

    # --- units of work ----------------------------------------------------

    def setup_once(self, k: int) -> tuple[float, dict, str]:
        out = os.path.join(self.work, f"setup{k}")
        wall, report = python_script([
            "--workload", self.workload, "--seed", str(self.seed),
            "--examples", str(self.examples), "--out", out,
        ])
        if "manifest_sha256" in report:
            self.expect_digest(report["manifest_sha256"])
        return wall, report, out

    def forge_once(self, out: str, jobs: int) -> float:
        shutil.rmtree(out, ignore_errors=True)
        gc.collect()
        start = time.perf_counter()
        self.forge.forge_dataset(self.cfg, out, jobs=jobs)
        wall = time.perf_counter() - start
        self.expect_digest(inputs.file_sha256(os.path.join(out, self.forge.MANIFEST_FILE)))
        return wall

    def expect_digest(self, digest: str) -> None:
        """Every forge of the run writes the first one's manifest, which is
        the golden one when golden.json has this seed."""
        if self.manifest_digest is None:
            self.manifest_digest = digest
            if isinstance(self.golden, str):
                self.ledger.expect(digest == self.golden, f"manifest {digest} != golden {self.golden}")
        self.ledger.expect(digest == self.manifest_digest, f"manifest {digest} != first {self.manifest_digest}")

    def evaluate_once(self, dataset_dir: str, predictions: str, expect) -> tuple[float, int]:
        gc.collect()
        start = time.perf_counter()
        dataset = self.forge.read_dataset(dataset_dir)
        records = self.harness.read_predictions(predictions)
        report = self.harness.evaluate(dataset, records)
        wall = time.perf_counter() - start
        expect(report.to_dict())
        return wall, len(records)

    def expect_oracle(self, report: dict) -> None:
        for name, split in report["splits"].items():
            self.ledger.expect(
                split["matched"] == split["n"] == split["semantically_valid"],
                f"oracle predictions on split {name}: {split}",
            )

    def expect_mixed(self, expected: dict):
        def expect(report: dict) -> None:
            if isinstance(self.golden, dict):
                self.ledger.expect(report == self.golden, f"evaluate report differs from golden: {report}")
            for name, want in expected["splits"].items():
                got = report["splits"].get(name, {})
                self.ledger.expect(
                    got.get("n") == want["n"]
                    and got.get("matched") == want["matched"]
                    and want["valid_at_least"] <= got.get("semantically_valid", -1) <= want["n"],
                    f"split {name}: report {got}, predictions imply {want}",
                )

        return expect

    # --- checks outside the timed region ----------------------------------

    def check_soundness(self, dataset_dir: str) -> None:
        """Every target executes and satisfies its goal, and the module
        records recompose to it."""
        from mannerforge.pipeline import goal_satisfied
        from mannerforge.world import execute

        dataset = self.forge.read_dataset(dataset_dir)
        unsound = [
            ex.index for ex in dataset.examples
            if not goal_satisfied(ex.verb, ex.world, execute(ex.world, ex.target))
        ]
        self.ledger.expect(not unsound, f"targets that miss their goal: {unsound[:10]}")
        modules = self.forge.MODULE_FILES
        handles = [open(os.path.join(dataset_dir, modules[m]), encoding="utf-8") for m in modules]
        wrong, count = [], 0
        try:
            for lines in zip(*handles):
                records = {m: json.loads(line) for m, line in zip(modules, lines)}
                index = records["transformation"]["index"]
                target = self.forge.recompose(records, dataset.lexicon, self.cfg.max_depth)
                if target != dataset.example_by_index(index).target:
                    wrong.append(index)
                count += 1
        finally:
            for fh in handles:
                fh.close()
        self.ledger.expect(count == len(dataset.examples), f"{count} module records for {len(dataset.examples)} examples")
        self.ledger.expect(not wrong, f"module records that do not recompose to their target: {wrong[:10]}")

    def check_reference(self) -> None:
        """The ROADMAP manifest digest, under two hash seeds, with one and two
        worker processes."""
        digests = set()
        for hash_seed in ("0", "1"):
            out = os.path.join(self.work, f"reference{hash_seed}")
            _, result = python_script(["--reference", "--out", out], PYTHONHASHSEED=hash_seed)
            shutil.rmtree(out, ignore_errors=True)
            digests.update(result["digests"].values())
            if result["schema_version"] == inputs.REFERENCE_SCHEMA:
                digests.add(inputs.REFERENCE_MANIFEST_SHA256)
        self.ledger.expect(len(digests) == 1, f"reference manifests differ: {sorted(digests)}")

    def check_jobs_agree(self) -> float:
        """Forge the same input with the other worker count, expect the same
        manifest, and return that forge's wall time."""
        out = os.path.join(self.work, "other_jobs")
        try:
            return self.forge_once(out, 1 if self.jobs > 1 else 2)
        finally:
            shutil.rmtree(out, ignore_errors=True)


def dir_bytes(path: str) -> dict:
    return {name: os.path.getsize(os.path.join(path, name)) for name in os.listdir(path)}


def peak_rss_mb(include_children: bool) -> float:
    """Largest resident set of this process, or of it and its waited-for
    children (ru_maxrss is in KiB on Linux)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def rate(work: float, seconds: float) -> float:
    return work / seconds if seconds else 0.0


# --- untraced run ---------------------------------------------------------

def run_untraced(bench: Bench, seconds: float) -> dict:
    ledger = bench.ledger
    setups, forges, evals, calibrations = [], [], [], []
    forge_peak_mb = None
    if bench.workload != "evaluate_mix":
        dataset_dir = os.path.join(bench.work, "forge")
        # Untimed warm-up; it also writes the corpus the oracle predictions
        # are made from.  Later forges must rewrite the same bytes.  It runs
        # before any set-up or read, so the peak resident set so far, of this
        # process and of the pool workers, is the forge's own.
        ledger.run("forge", bench.forge_once, dataset_dir, bench.jobs)
        if not os.path.exists(os.path.join(dataset_dir, bench.forge.MANIFEST_FILE)):
            raise SystemExit("the warm-up forge wrote no dataset")
        forge_peak_mb = peak_rss_mb(include_children=bench.jobs > 1)
        log(f"peak RSS after the first forge (MB): {peak_rss_mb(False)} in this process, "
            f"{forge_peak_mb} with the pool workers")

    def calibrate() -> None:
        # Before every timed operation, so that the samples follow the host's
        # speed through the run as the operations do.
        result = ledger.run("calibration", python_script, ["--calibrate"])
        if result is not None:
            calibrations.append(result[1]["calibrate_s"])

    def setup(k: int):
        calibrate()
        done = ledger.run("set-up", bench.setup_once, k)
        if done is not None:
            setups.append(done[:2])
        return done

    first = setup(0)
    if first is None:
        raise SystemExit("the first set-up failed")
    if bench.workload == "evaluate_mix":
        setup_dir = first[2]
        dataset_dir = os.path.join(setup_dir, "dataset")
        predictions = os.path.join(setup_dir, "predictions.jsonl")
        with open(os.path.join(setup_dir, "expected.json"), encoding="utf-8") as fh:
            expect = bench.expect_mixed(json.load(fh))
    else:
        shutil.rmtree(first[2])
        predictions = os.path.join(bench.work, "oracle_predictions.jsonl")
        inputs.write_oracle_predictions(bench.forge.read_dataset(dataset_dir), predictions)
        expect = bench.expect_oracle

    iteration = 0
    start = time.perf_counter()
    while iteration < MIN_ITERATIONS or time.perf_counter() - start < seconds:
        iteration += 1
        done = setup(iteration)
        if done is not None:
            shutil.rmtree(done[2])
        if bench.workload != "evaluate_mix":
            calibrate()
            wall = ledger.run("forge", bench.forge_once, dataset_dir, bench.jobs)
            if wall is not None:
                forges.append(wall)
        for _ in range(EVALS_PER_ITERATION[bench.workload]):
            calibrate()
            result = ledger.run("evaluate", bench.evaluate_once, dataset_dir, predictions, expect)
            if result is not None:
                evals.append(result)

    if bench.workload == "evaluate_mix":
        forges = [report["forge_s"] for _, report in setups]
    raw = {
        "forge_examples_per_s": rate(bench.examples * len(forges), sum(forges)),
        "eval_predictions_per_s": rate(sum(n for _, n in evals), sum(w for w, _ in evals)),
        "setup_s": median([w for w, _ in setups]),
    }
    speed = CALIBRATION_REFERENCE_S / statistics.mean(calibrations)
    run_peak_mb = peak_rss_mb(include_children=bench.jobs > 1)
    metrics = {
        "forge_examples_per_s": raw["forge_examples_per_s"] / speed,
        "eval_predictions_per_s": raw["eval_predictions_per_s"] / speed,
        "output_bytes_per_example": sum(dir_bytes(dataset_dir).values()) / bench.examples,
        "peak_rss_mb": forge_peak_mb or run_peak_mb,
        "setup_s": raw["setup_s"] * speed,
    }
    print(json.dumps({"host_speed": speed, "unscaled": raw}), flush=True)
    log(f"peak RSS at the end of the run (MB): {run_peak_mb}")
    log(f"samples: {len(setups)} set-ups, {len(forges)} forges, {len(evals)} evaluations")
    log(f"calibration walls (s): {[round(w, 4) for w in calibrations]}")
    log(f"set-up walls (s): {[round(w, 4) for w, _ in setups]}")
    log(f"forge walls (s): {[round(w, 4) for w in forges]}")
    log(f"evaluate walls (s): {[round(w, 4) for w, _ in evals]}")

    ledger.run("soundness check", bench.check_soundness, dataset_dir)
    if bench.workload == "forge_x150":
        ledger.run("reference check", bench.check_reference)
    if bench.jobs > 1 and bench.golden is None:
        ledger.run("jobs check", bench.check_jobs_agree)
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}


# --- traced run -----------------------------------------------------------

def run_traced(bench: Bench, seconds: float) -> dict:
    ledger = bench.ledger
    first = ledger.run("set-up", bench.setup_once, 0)
    if first is None:
        raise SystemExit("the set-up failed")
    setup_dir = first[2]
    tracer = tracing.Tracer()

    if bench.workload == "evaluate_mix":
        dataset_dir = os.path.join(setup_dir, "dataset")
        with open(os.path.join(setup_dir, "expected.json"), encoding="utf-8") as fh:
            expect = bench.expect_mixed(json.load(fh))
        predictions = os.path.join(setup_dir, "predictions.jsonl")

        def operation():
            return bench.evaluate_once(dataset_dir, predictions, expect)[0]
    else:
        dataset_dir = os.path.join(bench.work, "forge")

        def operation():
            return bench.forge_once(dataset_dir, bench.jobs)

    def traced_operation():
        tracer.run += 1
        tracer.install()
        try:
            return operation()
        finally:
            tracer.uninstall()

    untraced, traced, other_jobs = [], [], []
    iteration = 0
    start = time.perf_counter()
    while iteration < MIN_ITERATIONS or time.perf_counter() - start < seconds:
        iteration += 1
        wall = ledger.run("untraced", operation)
        wall_traced = ledger.run("traced", traced_operation)
        if wall is not None and wall_traced is not None:
            untraced.append(wall)
            traced.append((tracer.run, wall_traced))
        if bench.jobs > 1:
            wall_other = ledger.run("jobs check", bench.check_jobs_agree)
            if wall_other is not None:
                other_jobs.append(wall_other)

    summaries = tracing.summarize(tracer.spans, os.getpid())
    counts = [summaries[run].counts() for run, _ in traced]
    ledger.check(all(c == counts[0] for c in counts), "per-layer counts differ between traced runs")
    if bench.workload != "evaluate_mix":
        ledger.run("soundness check", bench.check_soundness, dataset_dir)

    per_run = [layer_metrics(summaries[run], wall) for run, wall in traced]
    metrics = {name: median([m[name] for m in per_run]) for name in per_run[0]} if per_run else {}
    sizes = dir_bytes(dataset_dir) if os.path.isdir(dataset_dir) else {}
    metrics["forge.bytes.examples"] = sizes.get(bench.forge.EXAMPLES_FILE, 0) / bench.examples
    metrics["forge.bytes.modules"] = sum(sizes.get(f, 0) for f in bench.forge.MODULE_FILES.values()) / bench.examples
    if other_jobs and untraced:
        metrics["forge.jobs2_speedup"] = median(other_jobs) / median(untraced)
    metrics["trace.untraced_wall_s"] = median(untraced)
    metrics["trace.traced_wall_s"] = median([w for _, w in traced])
    if untraced:
        metrics["trace.overhead_ratio"] = metrics["trace.traced_wall_s"] / metrics["trace.untraced_wall_s"]
    metrics["failed_fraction"] = ledger.failed / ledger.attempted

    absent = tracer.absent_layers()
    if absent:
        log(f"absent layers, reported as 0: {absent} (missing {tracer.absent_sites})")
    retries = counts[0]["retries"] if counts else {}
    if retries:
        log(f"retries by cause|adverb type|verb: {json.dumps(retries)}")
    tracer.write(
        os.path.join(OUT_ROOT, f"trace-{bench.workload}.jsonl"),
        {
            "workload": bench.workload, "seed": bench.seed, "examples": bench.examples,
            "absent_layers": absent, "absent_sites": tracer.absent_sites,
            "fields": ["id", "parent", "layer", "start_ns", "end_ns", "run", "pid", "info"],
            "retries_by_cause_type_verb": retries,
        },
    )
    return {name: {"value": metrics.get(name, 0), "unit": unit} for name, unit in PER_LAYER.items()}


def layer_metrics(summary: tracing.RunSummary, wall: float) -> dict:
    """One traced run's per-layer metrics."""
    calls, fails = summary.calls, summary.fails
    out = {f"{layer}_s": summary.self_ns[layer] / 1e9 for layer in TIMED_LAYERS}
    out.update(
        {
            "world.sample_situation_calls": calls["world.sample_situation"],
            "world.execute_calls": calls["world.execute"],
            "world.execute_fail": fails["world.execute"],
            "pipeline.solve_calls": calls["pipeline.solve"],
            "pipeline.solve_fail": fails["pipeline.solve"],
            "pipeline.goal_rejects": summary.goal_rejects,
            "dsl.symbols_out": summary.symbols_out,
            "metagrammar.registry_size": summary.registry_size,
            "harness.semantic_checks": calls["harness.semantic_check"],
            "harness.exact_matches": summary.exact_matches,
        }
    )
    if calls["world.sample_situation"]:
        out["forge.accept_ratio"] = calls["forge.generate_example"] / calls["world.sample_situation"]
    retries = {name: 0 for name in PER_LAYER if name.startswith("forge.retries.")}
    for (cause, adverb_type, _verb), n in summary.retries.items():
        key = f"forge.retries.{cause}.{adverb_type}"
        retries[key if key in retries else "forge.retries.other"] += n
        retries["forge.retries.total"] += n
    out.update(retries)
    attributed = sum(summary.main_self_ns[layer] for layer in TIMED_LAYERS) / 1e9
    out["trace.unattributed_s"] = wall - attributed
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mannerforge benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--examples", type=int, help="override the workload's example count")
    args = parser.parse_args(argv)

    mf = load_program()
    examples = args.examples or inputs.WORKLOADS[args.workload][1]
    os.makedirs(OUT_ROOT, exist_ok=True)
    work = os.path.join(OUT_ROOT, f"work-{os.getpid()}")
    bench = Bench(mf, args.workload, args.seed, examples, work)
    try:
        if args.trace:
            metrics = run_traced(bench, args.seconds)
        else:
            metrics = run_untraced(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ledger = bench.ledger
    log(f"failed_fraction: {ledger.failed}/{ledger.attempted}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
