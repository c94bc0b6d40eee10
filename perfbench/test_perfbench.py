"""Tests of the benchmark itself: seeded inputs, exact counts, bare checkout.

    python3 -m pytest -q perfbench

Each traced run below takes a few seconds per workload.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
from workloads import WORKLOADS, generate_inputs  # noqa: E402

EXACT = ("ajtai.ajtai_hash.cols_summed", "rng.bytes", "ajtai.full_rank.accept_ratio")


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_runs_with_one_seed_repeat_exactly(name):
    first, _, first_info = run.run(name, 5, 0.1, True)
    second, _, second_info = run.run(name, 5, 0.1, True)
    assert first["correct"] and second["correct"]
    assert first["failed"] == 0
    assert set(first["metrics"]) == set(run.PER_LAYER)
    for metric in first["metrics"]:
        if metric.endswith(".calls") or metric in EXACT:
            assert first["metrics"][metric] == second["metrics"][metric], metric
    assert first_info == second_info  # bulletin SHA-256, bulletin_bytes, n/a set
    # the layers each workload exists to measure are really reached
    used = {m for m in run.PER_LAYER if m not in first_info["not_applicable"]}
    method_span = {
        "deal": "field.matrix_rank.calls",
        "recover-solve": "field.solve_linear.calls",
        "recover-lagrange": "field.lagrange_at_zero.calls",
        "recover-window": "ilr.backward_recover.ms",
    }[name]
    assert method_span in used


@pytest.mark.parametrize("name", WORKLOADS)
def test_inputs_follow_the_seed(name):
    workload = WORKLOADS[name]
    assert generate_inputs(workload, 1) == generate_inputs(workload, 1)
    other = generate_inputs(workload, 2)
    assert [op.owners for op in generate_inputs(workload, 1).ops] != [op.owners for op in other.ops]
    for op in other.ops:
        assert all(1 <= j <= 64 for j in op.owners)
        if workload.method is not None:
            assert len(set(op.owners)) == workload.quorum_size
        if workload.consecutive:
            assert list(op.owners) == list(range(op.owners[0], op.owners[0] + len(op.owners)))


def test_untraced_run_reports_every_end_to_end_metric():
    result, lines, _ = run.run("recover-window", 3, 0.0, False)
    assert result["correct"] and result["attempted"] >= run.MIN_OPS
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any("op_fail_ratio" in line and " 0 " in line for line in lines)


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "deal", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
