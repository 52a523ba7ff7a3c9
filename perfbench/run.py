"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload exact-batch --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric of BENCHMARK.json, ``--trace
1`` every per-layer metric (and writes the spans to
``.perfbench/trace-<workload>.npz``).  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every output passed its checks.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="seconds-scale inputs, for the benchmark's own test",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    catalogue = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = parse_args(
        sys.argv[1:] if argv is None else argv,
        [w["name"] for w in catalogue["workloads"]],
    )
    # The package under test is imported from this checkout's sources,
    # never from an installed copy.
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no package sources under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    workloads = importlib.import_module("perfbench.workloads")

    outcome, tracer = workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), tiny=args.tiny
    )
    wanted = catalogue["per_layer" if args.trace else "end_to_end"]
    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(outcome.metrics):
        raise SystemExit(
            "metric names differ from BENCHMARK.json: "
            f"{sorted(set(names) ^ set(outcome.metrics))}"
        )
    if tracer is not None:
        tracer.write(str(ROOT / ".perfbench" / f"trace-{args.workload}.npz"))

    for note in outcome.notes:
        print(f"# {note}")
    metrics = {}
    for metric in wanted:
        value = outcome.metrics[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']:<28} {value:>16.6g} {metric['unit']}")
    failed = len(outcome.failures)
    correct = failed == 0
    print(
        f"error_rate = {failed / outcome.attempted:.4g} "
        f"({failed} failed of {outcome.attempted} attempted)"
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
