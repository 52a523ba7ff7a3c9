"""Unit tests for scripts/bench_trajectory.py (the merged perf artifact).

The script is CI tooling, but its schema check is the guard that keeps
the committed BENCH_*.json headline metrics diffable across PRs — so the
check itself gets pinned here.
"""

import importlib.util
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SPEC = importlib.util.spec_from_file_location(
    "bench_trajectory",
    os.path.join(REPO_ROOT, "scripts", "bench_trajectory.py"),
)
bench_trajectory = importlib.util.module_from_spec(_SPEC)
sys.modules["bench_trajectory"] = bench_trajectory
_SPEC.loader.exec_module(bench_trajectory)


def _committed_args(**overrides):
    paths = {
        "kernel": os.path.join(REPO_ROOT, "BENCH_kernel.json"),
        "index": os.path.join(REPO_ROOT, "BENCH_index.json"),
        "shard": os.path.join(REPO_ROOT, "BENCH_shard.json"),
        "serve": os.path.join(REPO_ROOT, "BENCH_serve.json"),
    }
    paths.update(overrides)
    args = []
    for name, path in paths.items():
        args.extend([f"--{name}", str(path)])
    return args


def test_committed_reports_satisfy_schema_and_merge(tmp_path):
    out = tmp_path / "BENCH_trajectory.json"
    rc = bench_trajectory.main(_committed_args() + ["--out", str(out)])
    assert rc == 0
    trajectory = json.loads(out.read_text())
    assert trajectory["schema_version"] == bench_trajectory.SCHEMA_VERSION
    assert set(trajectory["benches"]) == {
        "kernel",
        "index",
        "shard",
        "serve",
    }
    kernel = trajectory["benches"]["kernel"]["metrics"]
    # The fused-pipeline floor the ISSUE-4 tentpole establishes: the
    # committed columnar stack wins end to end at every sweep point.
    assert kernel["end_to_end_geomean"] >= 1.0
    assert kernel["end_to_end_speedup_min"] >= 1.0
    assert all(v >= 1.0 for v in kernel["end_to_end_per_point"].values())
    shard = trajectory["benches"]["shard"]
    assert shard["gates"]["provider_disjoint_exactness"] == "pass"
    assert shard["cpu_count"] >= 1
    assert shard["metrics"]["scaling_efficiency_geomean"] > 0.0
    serve = trajectory["benches"]["serve"]
    # The serving layer's acceptance contract: the committed artifact
    # was produced with the bit-identity gate on and passing.
    assert serve["gates"]["bit_identity"] == "pass"
    metrics = serve["metrics"]
    assert metrics["latency_p99_ms"] >= metrics["latency_p50_ms"] > 0.0
    assert metrics["events_per_sec"] > 0.0
    assert set(metrics["per_profile"]) >= {"steady"}
    for row in metrics["per_profile"].values():
        assert row["latency_p99_ms"] >= row["latency_p50_ms"] > 0.0
    # The degraded-mode point (ISSUE-9): serving under a fixed session
    # crash rate stays bit-identical and records its recovery cost.
    assert serve["gates"]["faulted_identity"] == "pass"
    assert metrics["degraded_latency_p99_ms"] > 0.0
    faulted = serve["faulted"]
    assert faulted["quarantines"] >= 1
    assert faulted["session_kills"] >= 1
    assert faulted["recovery_overhead"] >= 0.0
    assert faulted["p99_inflation"] > 0.0


def test_schema_violations_fail(tmp_path):
    broken = tmp_path / "BENCH_kernel.json"
    report = json.load(open(os.path.join(REPO_ROOT, "BENCH_kernel.json")))
    del report["end_to_end_geomean"]
    report["kernel_speedup_geomean"] = True  # bool is not a metric
    broken.write_text(json.dumps(report))
    rc = bench_trajectory.main(
        _committed_args(kernel=broken) + ["--out", str(tmp_path / "out.json")]
    )
    assert rc == 1


def test_serve_schema_violations_fail(tmp_path):
    broken = tmp_path / "BENCH_serve.json"
    report = json.load(open(os.path.join(REPO_ROOT, "BENCH_serve.json")))
    del report["latency_p99_ms"]
    report["events_per_sec"] = "fast"  # not a number
    broken.write_text(json.dumps(report))
    rc = bench_trajectory.main(
        _committed_args(serve=broken) + ["--out", str(tmp_path / "out.json")]
    )
    assert rc == 1


def test_missing_inputs_fail_unless_allowed(tmp_path):
    rc = bench_trajectory.main(
        _committed_args(kernel=tmp_path / "absent.json")
        + ["--out", str(tmp_path / "out.json")]
    )
    assert rc == 1
    rc = bench_trajectory.main(
        _committed_args(kernel=tmp_path / "absent.json")
        + ["--out", str(tmp_path / "out.json"), "--allow-missing"]
    )
    assert rc == 0
