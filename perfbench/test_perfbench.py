"""Smoke tests of the benchmark itself at a tiny scale.

Run from the repository root:  python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import worker
from rv2x import adaptation, harness

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)

TINY = {
    "allocator": "proposed",
    "overrides": {"num_pairs": 2, "absorption_len": 50, "matching_horizon": 50,
                  "adaptation_len": 5, "deviation_trace": False},
    "threads": 1,
    "trials_per_call": 2,
    "rng_seeds": [0, 1],
    "why": "smoke test",
}


def run_bench(tmp_path, trace, cwd=ROOT):
    path = tmp_path / "workloads.json"
    path.write_text(json.dumps({"tiny": TINY}))
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tiny", "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--workloads", str(path)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_with_its_unit(tmp_path, trace, kind):
    proc = run_bench(tmp_path, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK[kind]]
    for m in BENCHMARK[kind]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(m["name"] + " ") and line.endswith(" " + m["unit"])
                   for line in lines[:-1]), m["name"]
    if trace:
        assert any(line.startswith("span harness.run_trial ") for line in lines)


def test_injected_failed_trial_raises_trial_fail_frac(monkeypatch):
    run_trial = harness.run_trial

    def fail_trial_one(config, allocator, trial):
        if trial == 1:
            raise RuntimeError("injected")
        return run_trial(config, allocator, trial)

    workload = dict(TINY, name="tiny")
    clean = worker.measure(workload, seed=0, seconds=0)
    assert clean["failed"] == 0 and clean["metrics"]["trial_ok_frac"] == 1.0

    monkeypatch.setattr(harness, "run_trial", fail_trial_one)
    broken = worker.measure(workload, seed=0, seconds=0)
    assert broken["failed"] == len(TINY["rng_seeds"])
    assert broken["notes"]["trial_fail_frac"][0] == 0.5
    assert broken["metrics"]["trial_ok_frac"] == 0.5


def test_power_outside_the_box_fails_the_trial(monkeypatch):
    solve_slots = adaptation.solve_slots

    def too_loud(pair, slots):
        res = solve_slots(pair, slots)
        res["p_v"] = np.full_like(res["p_v"], 2.0 * pair.box[3])
        return res

    monkeypatch.setattr(adaptation, "solve_slots", too_loud)
    result = worker.measure(dict(TINY, name="tiny"), seed=0, seconds=0)
    assert result["failed"] == result["attempted"]
    assert all("outside the box" in p for p in result["problems"])


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench(tmp_path, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_workload_records_match_benchmark_json():
    records = worker.load_workloads()
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == \
        [(name, w["why"]) for name, w in records.items()]
    for w in records.values():
        assert set(w) == {"allocator", "overrides", "threads", "trials_per_call",
                          "rng_seeds", "why"}
