"""Smoke test of the benchmark at tiny sizes.

Run from the repository root: `python3 -m pytest perfbench -q` (about a minute).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

sys.path.insert(0, str(HERE))
import spans as sp  # noqa: E402


def run(workload, trace, seed=3, *extra, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--size", "tiny", *extra],
        capture_output=True, text=True, timeout=300, cwd=cwd)
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines else None)


def units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    proc, result = run(workload, 0)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert units(result) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_per_layer_metrics_from_nested_spans(workload):
    proc, result = run(workload, 1)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert units(result) == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    saved = json.loads((ROOT / ".perfbench" / f"{workload}-tiny-seed3-trace1" / "spans.json")
                       .read_text())
    for spans in saved["rounds"]:
        assert spans[0][1] == "bench.round" and spans[0][2] is None
        assert sp.check_nesting(spans) == []
        selfs = sp.self_times(spans)
        assert min(selfs) >= -1e-9
        wall = spans[0][4] - spans[0][3]
        assert sum(selfs) == pytest.approx(wall, rel=1e-9)
        for sid, _, parent, start, end in spans[1:]:
            assert spans[parent][3] <= start <= end <= spans[parent][4]


def test_counts_repeat_across_runs_and_seeds():
    counts = []
    for seed in (3, 4):
        proc, result = run("train-accept", 1, seed)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        counts.append({k: m["value"] for k, m in result["metrics"].items() if sp.is_count(k)})
    assert counts[0] == counts[1]
    assert counts[0]["train.steps"] > 0 and counts[0]["numerics.tape_nodes_per_step"] > 0


def test_forced_cli_failure_raises_error_rate():
    proc, result = run("train-accept", 0, 3, "--inject-failure")
    assert proc.returncode == 1
    assert not result["correct"]
    assert result["failed"] >= 1 and result["failed"] / result["attempted"] > 0
    assert "mmstt predict: exit 1" in proc.stdout


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc, result = run(WORKLOADS[0], 0, cwd=bare, script=bare / HERE.name / "run.py")
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert result is None
