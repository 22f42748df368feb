"""Workload inputs for the mannerforge benchmark, and its set-up step.

Every input is derived from the workload name, the workload seed and the
example count, so the same seed always gives the same config, dataset and
predictions file.  The benchmark runs this file as a fresh interpreter for
each set-up, which makes its set-up time include imports:

    python3 perfbench/inputs.py --workload forge_x150 --seed 3 --examples 5000 --out DIR
    python3 perfbench/inputs.py --reference --out DIR
    python3 perfbench/inputs.py --calibrate

The first form writes DIR/config.json and, for evaluate_mix, also forges
DIR/dataset, writes DIR/predictions.jsonl and DIR/expected.json.  The second
forges the determinism reference with one and with two workers.  The third
times calibrate() in an interpreter that never imports mannerforge.  Each
prints one JSON line.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import sys
import time

WORKLOADS = {
    # name: (preset, examples per forge, forge worker processes)
    "forge_x150": ("vocab_x150", 5000, 1),
    "forge_k5_jobs2": ("kshot_k5", 8000, 2),
    "evaluate_mix": ("vocab_x150", 6000, 1),
}

# evaluate_mix puts most indices in some test set, so nearly every example is
# scored: 90% by the random split, and every adverb example by the predicate.
EVALUATE_MIX_SPLITS = [
    {"kind": "random", "name": "random", "test_fraction": 0.9},
    {"kind": "predicate", "name": "has_adverb", "predicate": "has_adverb"},
]

# Share of evaluate_mix predictions that are the oracle target, the target
# plus a redundant turn pair (valid, never exact), or a truncated target.
PREDICTION_MIX = (("exact", 0.5), ("redundant_turns", 0.3), ("truncated", 0.2))

# ROADMAP determinism reference: `mannerforge generate --config vocab_x150
# --num-examples 2000` at schema version 1.
REFERENCE_PRESET = "vocab_x150"
REFERENCE_EXAMPLES = 2000
REFERENCE_SCHEMA = 1
REFERENCE_MANIFEST_SHA256 = "e6104d903481b5ae8c5c291d94f471aa8ad4328ebc541cc0dc7c7cc3509da55c"


def preset_dict(name: str) -> dict:
    from importlib import resources

    text = resources.files("mannerforge").joinpath("presets", f"{name}.json").read_text(encoding="utf-8")
    return json.loads(text)


def config_dict(workload: str, seed: int, examples: int) -> dict:
    preset, _, _ = WORKLOADS[workload]
    data = preset_dict(preset)
    data["seed"] = seed
    data["num_examples"] = examples
    if workload == "evaluate_mix":
        data["splits"] = EVALUATE_MIX_SPLITS
    return data


def file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def evaluated_indices(dataset) -> list[int]:
    """Union of every split's test indices: the predictions evaluate needs."""
    return sorted({i for a in dataset.splits.values() for i in a.test})


def write_oracle_predictions(dataset, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i in evaluated_indices(dataset):
            target = dataset.example_by_index(i).target
            fh.write(json.dumps({"index": i, "prediction": list(target)}) + "\n")


def write_mixed_predictions(dataset, seed: int, path: str) -> dict:
    """Write the evaluate_mix predictions and return what evaluate must report
    about them that follows from their construction alone: per split, the
    test size, the exact matches, and a lower bound on valid predictions."""
    rng = random.Random(f"evaluate_mix:{seed}")
    kinds = [k for k, _ in PREDICTION_MIX]
    weights = [w for _, w in PREDICTION_MIX]
    kind_of = {}
    with open(path, "w", encoding="utf-8") as fh:
        for i in evaluated_indices(dataset):
            target = list(dataset.example_by_index(i).target)
            kind = rng.choices(kinds, weights)[0]
            if kind == "redundant_turns":
                prediction = target + ["turn_left", "turn_right"]
            elif kind == "truncated":
                prediction = target[: rng.randrange(len(target))]
            else:
                prediction = target
            kind_of[i] = kind
            fh.write(json.dumps({"index": i, "prediction": prediction}) + "\n")
    expected = {}
    for name, assignment in dataset.splits.items():
        exact = sum(kind_of[i] == "exact" for i in assignment.test)
        redundant = sum(kind_of[i] == "redundant_turns" for i in assignment.test)
        expected[name] = {"n": len(assignment.test), "matched": exact, "valid_at_least": exact + redundant}
    return {"splits": expected}


def setup(workload: str, seed: int, examples: int, out: str) -> dict:
    import mannerforge.forge as forge

    data = config_dict(workload, seed, examples)
    cfg = forge.ForgeConfig.from_dict(data)
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    result = {"workload": workload}
    if workload == "evaluate_mix":
        dataset_dir = os.path.join(out, "dataset")
        start = time.perf_counter()
        forge.forge_dataset(cfg, dataset_dir)
        result["forge_s"] = time.perf_counter() - start
        result["manifest_sha256"] = file_sha256(os.path.join(dataset_dir, forge.MANIFEST_FILE))
        dataset = forge.read_dataset(dataset_dir)
        expected = write_mixed_predictions(dataset, seed, os.path.join(out, "predictions.jsonl"))
        with open(os.path.join(out, "expected.json"), "w", encoding="utf-8") as fh:
            json.dump(expected, fh)
    return result


def calibrate() -> float:
    """Wall time of a fixed stdlib workload: allocation, JSON and integer
    arithmetic, no mannerforge code.  The collector is off while it runs."""
    rng = random.Random(1)
    gc.disable()
    try:
        start = time.perf_counter()
        records = [{"i": i, "t": (i, rng.random()), "s": str(i)} for i in range(40_000)]
        total = len(json.loads(json.dumps(records[:15_000])))
        for i in range(300_000):
            total += i * i % 7
        return time.perf_counter() - start
    finally:
        gc.enable()


def reference(out: str) -> dict:
    import mannerforge.forge as forge

    data = preset_dict(REFERENCE_PRESET)
    data["num_examples"] = REFERENCE_EXAMPLES
    cfg = forge.ForgeConfig.from_dict(data)
    digests = {}
    for jobs in (1, 2):
        path = os.path.join(out, f"jobs{jobs}")
        forge.forge_dataset(cfg, path, jobs=jobs)
        digests[f"jobs{jobs}"] = file_sha256(os.path.join(path, forge.MANIFEST_FILE))
    return {"schema_version": forge.SCHEMA_VERSION, "digests": digests}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--examples", type=int)
    parser.add_argument("--reference", action="store_true")
    parser.add_argument("--calibrate", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.calibrate:
        result = {"calibrate_s": calibrate()}
    elif args.out is None:
        parser.error("--out is required")
    elif args.reference:
        result = reference(args.out)
    else:
        if args.workload is None or args.seed is None or args.examples is None:
            parser.error("--workload, --seed and --examples are required")
        result = setup(args.workload, args.seed, args.examples, args.out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
