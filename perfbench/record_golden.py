"""Record the expected outputs the benchmark checks, per workload and seed.

    python3 perfbench/record_golden.py

For each of seeds 0 .. SEEDS-1 it forges the forge_x150 and forge_k5_jobs2
inputs with one process (so a jobs=2 run that matches has matched jobs=1)
and stores the manifest sha256, and it stores the evaluate_mix EvalReport
dict.  The seeds are recorded in os.cpu_count() worker processes.  The
result is perfbench/golden.json, keyed by schema version and example
counts: once either changes, the benchmark says so and checks without it.
Re-record only when a change is meant to alter the persisted bytes.
"""
from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import inputs  # noqa: E402

SEEDS = 100


def record_seed(seed: int) -> tuple[int, dict]:
    import mannerforge.forge as forge
    import mannerforge.harness as harness

    work = os.path.join(ROOT, ".perfbench_out", f"golden-{os.getpid()}-{seed}")
    result = {}
    try:
        for workload in ("forge_x150", "forge_k5_jobs2"):
            _, examples, _ = inputs.WORKLOADS[workload]
            cfg = forge.ForgeConfig.from_dict(inputs.config_dict(workload, seed, examples))
            out = os.path.join(work, workload)
            forge.forge_dataset(cfg, out, jobs=1)
            result[workload] = inputs.file_sha256(os.path.join(out, forge.MANIFEST_FILE))
        out = os.path.join(work, "evaluate_mix")
        inputs.setup("evaluate_mix", seed, inputs.WORKLOADS["evaluate_mix"][1], out)
        dataset = forge.read_dataset(os.path.join(out, "dataset"))
        predictions = harness.read_predictions(os.path.join(out, "predictions.jsonl"))
        result["evaluate_mix"] = harness.evaluate(dataset, predictions).to_dict()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return seed, result


def main() -> int:
    import mannerforge.forge as forge

    golden = {
        "schema_version": forge.SCHEMA_VERSION,
        "examples": {name: spec[1] for name, spec in inputs.WORKLOADS.items()},
        **{name: {} for name in inputs.WORKLOADS},
    }
    with multiprocessing.get_context("spawn").Pool(os.cpu_count()) as pool:
        for seed, result in pool.imap_unordered(record_seed, range(SEEDS)):
            for workload, value in result.items():
                golden[workload][str(seed)] = value
            print(f"seed {seed} recorded", file=sys.stderr)
    for workload in inputs.WORKLOADS:
        golden[workload] = dict(sorted(golden[workload].items(), key=lambda kv: int(kv[0])))
    with open(os.path.join(HERE, "golden.json"), "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
