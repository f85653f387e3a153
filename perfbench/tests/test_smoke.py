"""Tiny end-to-end runs of every workload through the command line."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from run import END_TO_END, PER_LAYER, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)


def _run(cwd, workload, trace, seconds="0.5"):
    return subprocess.run(
        [
            sys.executable,
            os.path.join("perfbench", "run.py"),
            "--workload", workload,
            "--seed", "3",
            "--seconds", seconds,
            "--trace", str(trace),
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_end_to_end_metric(workload):
    done = _run(ROOT, workload, trace=0)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == END_TO_END
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


def test_traced_run_prints_every_per_layer_metric():
    done = _run(ROOT, "serve-batch8", trace=1)
    assert done.returncode == 0, done.stderr
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    assert set(metrics) == set(PER_LAYER)
    assert metrics["segmenter.rows_per_forward"]["value"] > 1
    assert metrics["sensing.convert_ms"]["value"] > 0


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(
        BENCH,
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", "tests"),
    )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _run(tmp_path, "serve-single", trace=0)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    with open(os.path.join(BENCH, "manifest.json"), encoding="utf-8") as f:
        layer_map = json.load(f)
    mapped = {
        name for layer in layer_map["layers"] for name in layer["metrics"]
    }
    assert mapped == set(PER_LAYER)
