"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import inputs
import run
import tracing

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")

# Small enough to be quick; the forge presets' cautiously_k5 split needs five
# examples of that adverb, which seed 1 has at 2000 examples.
TINY = {"forge_x150": 2000, "forge_k5_jobs2": 2000, "evaluate_mix": 400}


def bench(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_metric_tables_match_benchmark_json():
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(inputs.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = bench(
        "--workload", workload, "--seed", "1", "--seconds", "0.1",
        "--trace", str(trace), "--examples", str(TINY[workload]),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(value > 0 for value in metrics.values())
    elif workload == "evaluate_mix":
        assert metrics["harness.semantic_checks"] > 0
        assert metrics["world.sample_situation_calls"] == 0
    else:
        # For jobs=2 these spans come back from the pool workers.
        assert metrics["world.sample_situation_calls"] >= TINY[workload]
        assert metrics["forge.retries.total"] == metrics["world.sample_situation_calls"] - TINY[workload]


def test_missing_attribute_is_reported_absent(monkeypatch):
    forge = run.load_program().forge
    original_solve = forge.solve
    monkeypatch.delattr(forge, "sample_registry")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert forge.solve is not original_solve
    finally:
        tracer.uninstall()
    assert forge.solve is original_solve
    assert tracer.absent_layers() == ["metagrammar.sample_registry"]
    assert tracer.absent_sites == ["mannerforge.forge.sample_registry"]


def test_missing_golden_file_fails_the_run(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "GOLDEN_PATH", str(tmp_path / "golden.json"))
    bench_ = run.Bench(run.load_program(), "forge_x150", 1, 5000, str(tmp_path))
    assert bench_.golden is None
    assert (bench_.ledger.attempted, bench_.ledger.failed) == (1, 1)


def test_self_time_subtracts_direct_children():
    spans = [
        # id, parent, layer, start, end, run, pid, info
        (0, None, "forge.forge_dataset", 0, 100, 1, 7, None),
        (1, 0, "forge.generate_example", 10, 60, 1, 7, None),
        (2, 1, "pipeline.solve", 20, 30, 1, 7, None),
        (3, 1, "world.execute", 30, 45, 1, 7, ["raise", "OutOfBounds", "detour_type", "walk"]),
        (4, 0, "forge.write_dataset", 60, 90, 1, 7, None),
        (5, None, "world.sample_situation", 0, 40, 1, 8, None),
    ]
    summary = tracing.summarize(spans, main_pid=7)[1]
    assert summary.self_ns["forge.forge_dataset"] == 20
    assert summary.self_ns["forge.generate_example"] == 25
    assert summary.self_ns["world.execute"] == 15
    assert summary.self_ns["world.sample_situation"] == 40
    assert "world.sample_situation" not in summary.main_self_ns
    assert summary.fails["world.execute"] == 1
    assert summary.retries == {("OutOfBounds", "detour_type", "walk"): 1}


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "forge_x150", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
