"""Measure a baseline: run every workload on several seeds and summarise.

Usage, from the root of a checkout::

    python3 perfbench/baseline.py --seeds 1-10 --held-out 9001 \
        --out perfbench/baseline.json

For each workload this makes one untraced run per seed, plus one traced
run per seed when ``--traced-seeds`` is given, and records each metric's
median, quartiles and spread (interquartile range over median, the
statistic BENCHMARK.json's bounds are compared against).  The held-out
seed is run last, once untraced, and reported on its own.  Every run must
pass its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str):
    if not text:
        return []
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    started = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - started
    values = {name: f"{m['value']:.6g}" for name, m in result["metrics"].items()}
    print(f"{workload} seed {seed} trace {trace}: {values}", flush=True)
    return result


def summarise(results):
    values = {}
    for result in results:
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    summary = {}
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        summary[name] = {
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": vals,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--traced-seeds", default="")
    parser.add_argument("--held-out", type=int, default=None)
    parser.add_argument("--out", default="")
    parser.add_argument(
        "--workloads", default="", help="comma-separated names (default: all)"
    )
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [name for name in names if name in args.workloads.split(",")]
    report = {
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "run_seconds": seconds,
        "workloads": {},
    }
    for name in names:
        entry = {}
        plain = [run(name, seed, seconds, 0) for seed in seed_list(args.seeds)]
        entry["seeds"] = seed_list(args.seeds)
        entry["end_to_end"] = summarise(plain)
        entry["wall_s"] = [round(r["wall_s"], 1) for r in plain]
        traced_seeds = seed_list(args.traced_seeds)
        if traced_seeds:
            traced = [run(name, seed, seconds, 1) for seed in traced_seeds]
            entry["traced_seeds"] = traced_seeds
            entry["per_layer"] = summarise(traced)
        report["workloads"][name] = entry
        for metric, stats in entry["end_to_end"].items():
            print(
                f"{name:<14} {metric:<16} median {stats['median']:<12.6g} "
                f"spread {stats['spread']:.3f}",
                flush=True,
            )
    if args.held_out is not None:
        report["held_out"] = {"seed": args.held_out}
        for name in names:
            result = run(name, args.held_out, seconds, 0)
            report["held_out"][name] = {
                metric: value["value"] for metric, value in result["metrics"].items()
            }
    text = json.dumps(report, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
