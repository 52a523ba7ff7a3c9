"""The benchmark's own test: every workload end to end at tiny scale.

Each workload runs through the real command in a subprocess (so pool
workers belong to that process, not to the test session), untraced and
traced, with the oracle checking every output.  The printed metric names
must be exactly those BENCHMARK.json declares, and every work counter
must repeat exactly across two runs of one seed.

Run it by path: ``python3 -m pytest perfbench/check_perfbench.py``.  It is
not named ``test_*.py``, so the repository's default ``pytest`` run does not
collect it: it keeps both cores busy for about 20 s, and the pool tests of
``tests/core/test_supervisor.py``, whose teardown is timing-sensitive,
failed in every full run made after it and in one of four without it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CATALOGUE = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in CATALOGUE["workloads"]]
# Per-layer values that are wall-clock times (or derived from them) and
# so may differ between runs; everything else is a count or a ratio of
# counts and must repeat exactly.
TIMED = {
    m["name"]
    for m in CATALOGUE["per_layer"]
    if m["unit"] == "s" or m["name"] == "shard.parallel_efficiency"
}


def run_bench(workload: str, trace: int, seed: int = 3) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            "0.1",
            "--trace",
            str(trace),
            "--tiny",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = run_bench(workload, trace=0)
    expected = {m["name"]: m["unit"] for m in CATALOGUE["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
    assert result["metrics"]["cost_ratio"]["value"] >= 1.0 - 1e-9


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_counters_repeat(workload):
    first = run_bench(workload, trace=1)
    second = run_bench(workload, trace=1)
    expected = {m["name"]: m["unit"] for m in CATALOGUE["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
    for name in expected:
        if name in TIMED:
            continue
        assert first["metrics"][name] == second["metrics"][name], name
