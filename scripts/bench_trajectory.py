"""Merge the per-seam BENCH_*.json reports into one trajectory artifact.

Each benchmark (flow kernel, spatial index, sharded engine, serving
layer) writes its own JSON; comparing performance *across PRs* means
diffing four files with four shapes.  This script validates each report against a small
schema (so a bench refactor that silently drops a headline metric fails
loudly in CI) and folds the headline numbers into a single
``BENCH_trajectory.json``, which the nightly workflow uploads as an
artifact — one file to diff between any two commits.

Usage::

    python scripts/bench_trajectory.py \
        [--kernel BENCH_kernel.json] [--index BENCH_index.json] \
        [--shard BENCH_shard.json] [--serve BENCH_serve.json] \
        [--out BENCH_trajectory.json] [--allow-missing]

Exit status is non-zero when a required input is missing or fails its
schema check.
"""

from __future__ import annotations

import argparse
import json
import os

SCHEMA_VERSION = 1

# Per-bench schema: {field: type or (types,)} — presence + type checks on
# the headline metrics the trajectory extracts (not the full report).
_NUM = (int, float)
SCHEMAS = {
    "kernel": {
        "workload": str,
        "scale": _NUM,
        "seed": int,
        "sweep_paper_nq": list,
        "sweep_dropped": list,
        "points": list,
        "kernel_speedup_geomean": _NUM,
        "kernel_speedup_max": _NUM,
        "end_to_end_geomean": _NUM,
        "end_to_end_speedup_min": _NUM,
    },
    "index": {
        "workload": str,
        "scale": _NUM,
        "seed": int,
        "build_speedup": _NUM,
        "ann_stream_speedup_geomean": _NUM,
        "end_to_end": dict,
    },
    "shard": {
        "workload": str,
        "scale": _NUM,
        "seed": int,
        "shards": int,
        "workers": int,
        "cpu_count": int,
        "headline_speedup": _NUM,
        "speedup_geomean": _NUM,
        "scaling_efficiency_geomean": _NUM,
        "cost_ratio_worst": _NUM,
        "provider_disjoint_exactness": dict,
        "concise_vs_sa": dict,
    },
    "serve": {
        "workload": str,
        "scale": _NUM,
        "seed": int,
        "events": int,
        "shards": int,
        "cpu_count": int,
        "profiles": list,
        "per_profile": list,
        "latency_p50_ms": _NUM,
        "latency_p99_ms": _NUM,
        "events_per_sec": _NUM,
        "warm_rate": _NUM,
        "bit_identity": dict,
        # Degraded-mode point: {"status": "pass", degraded p99,
        # recovery overhead, ...} or {"status": "skipped"}.
        "faulted": dict,
        "degraded_latency_p99_ms": _NUM,
    },
}

# What each bench contributes to the trajectory's flat metric dict.
HEADLINES = {
    "kernel": (
        "kernel_speedup_geomean",
        "kernel_speedup_max",
        "end_to_end_geomean",
        "end_to_end_speedup_min",
    ),
    "index": ("build_speedup", "ann_stream_speedup_geomean"),
    "shard": (
        "headline_speedup",
        "speedup_geomean",
        "scaling_efficiency_geomean",
        "cost_ratio_worst",
    ),
    "serve": (
        "latency_p50_ms",
        "latency_p99_ms",
        "events_per_sec",
        "warm_rate",
        "degraded_latency_p99_ms",
    ),
}


def check_schema(name: str, report: dict) -> list:
    """Return a list of human-readable schema violations (empty = ok)."""
    problems = []
    for field, expected in SCHEMAS[name].items():
        if field not in report:
            problems.append(f"{name}: missing field {field!r}")
        elif not isinstance(report[field], expected):
            problems.append(
                f"{name}: field {field!r} has type "
                f"{type(report[field]).__name__}, expected "
                f"{getattr(expected, '__name__', expected)}"
            )
    # bool is an int subclass; a True slipping into a numeric metric is a
    # bench bug, not a number.
    for field in HEADLINES[name]:
        if isinstance(report.get(field), bool):
            problems.append(f"{name}: field {field!r} is a bool")
    return problems


def fold(name: str, path: str, report: dict) -> dict:
    entry = {
        "source": os.path.basename(path),
        "workload": report["workload"],
        "scale": report["scale"],
        "seed": report["seed"],
        "metrics": {field: report[field] for field in HEADLINES[name]},
    }
    if name == "kernel":
        entry["metrics"]["end_to_end_per_point"] = {
            str(p["nq_paper"]): p["end_to_end_speedup"] for p in report["points"]
        }
        entry["sweep_dropped"] = report["sweep_dropped"]
    if name == "index":
        entry["metrics"]["end_to_end_speedup"] = (report["end_to_end"]["speedup"])
    if name == "shard":
        entry["cpu_count"] = report["cpu_count"]
        entry["gates"] = {
            "provider_disjoint_exactness": (
                report["provider_disjoint_exactness"]["status"]
            ),
            "concise_vs_sa": report["concise_vs_sa"]["status"],
        }
    if name == "serve":
        entry["cpu_count"] = report["cpu_count"]
        entry["shards"] = report["shards"]
        entry["metrics"]["per_profile"] = {
            row["profile"]: {
                "latency_p50_ms": row["latency_p50_ms"],
                "latency_p99_ms": row["latency_p99_ms"],
                "events_per_sec": row["events_per_sec"],
            }
            for row in report["per_profile"]
        }
        faulted = report["faulted"]
        entry["gates"] = {
            "bit_identity": report["bit_identity"]["status"],
            "faulted_identity": faulted.get("status", "skipped"),
        }
        if faulted.get("status") == "pass":
            entry["faulted"] = {
                "session_kills": faulted["session_kills"],
                "p99_inflation": faulted["p99_inflation"],
                "recovery_overhead": faulted["recovery_overhead"],
                "quarantines": faulted["quarantines"],
            }
    return entry


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kernel", default="BENCH_kernel.json")
    parser.add_argument("--index", default="BENCH_index.json")
    parser.add_argument("--shard", default="BENCH_shard.json")
    parser.add_argument("--serve", default="BENCH_serve.json")
    parser.add_argument("--out", default="BENCH_trajectory.json")
    parser.add_argument(
        "--allow-missing",
        action="store_true",
        help="skip absent input files instead of failing",
    )
    args = parser.parse_args(argv)

    inputs = {
        "kernel": args.kernel,
        "index": args.index,
        "shard": args.shard,
        "serve": args.serve,
    }
    benches = {}
    problems = []
    for name, path in inputs.items():
        if not os.path.exists(path):
            if args.allow_missing:
                print(f"[bench_trajectory] skipping absent {path}")
                continue
            problems.append(f"{name}: input file {path} not found")
            continue
        with open(path) as fh:
            report = json.load(fh)
        bench_problems = check_schema(name, report)
        if bench_problems:
            problems.extend(bench_problems)
            continue
        benches[name] = fold(name, path, report)

    if problems:
        for problem in problems:
            print(f"[bench_trajectory] SCHEMA: {problem}")
        return 1
    if not benches:
        print("[bench_trajectory] no inputs found")
        return 1

    trajectory = {"schema_version": SCHEMA_VERSION, "benches": benches}
    with open(args.out, "w") as fh:
        json.dump(trajectory, fh, indent=2)
    parts = []
    for name in sorted(benches):
        metrics = benches[name]["metrics"]
        joined = "/".join(f"{metrics[m]:.2f}" for m in HEADLINES[name])
        parts.append(f"{name}:{joined}")
    summary = ", ".join(parts)
    print(f"[bench_trajectory] {len(benches)} benches -> {args.out} " f"({summary})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
