"""Flow-kernel benchmark: reference vs columnar stack on Fig. 10.

Measures two things per sweep point:

* **end-to-end** — a full IDA solve (index/ANN supply + certification +
  flow kernel), comparing the *reference stack* (``dict`` flow kernel on
  the ``pointer`` R-tree) against the *columnar stack* (``array`` flow
  kernel on the ``packed`` R-tree).  This is the fused-pipeline number:
  since the bulk ``add_edges`` / ANN-column-streaming seams landed, the
  columnar stack must win end to end, not just inside the kernel
  (``end_to_end_geomean`` >= 1.0 is a repo invariant asserted in CI).
* **kernel replay** — the pure flow-kernel work: rebuild the residual
  network from the solve's frozen Esub edge set (one bulk ``add_edges``
  call per backend) and run the successive-shortest-path loop to
  completion.  This isolates the Dijkstra inner loop, dict vs array.

Both stacks must produce bit-identical matching costs and |Esub|; the
script asserts it and records the speedups in ``BENCH_kernel.json``.

End-to-end timings take the best of ``--repeats`` runs per stack
(interleaved), which reports the noise floor rather than whatever the
shared-runner scheduler did to a single run.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel.py \
        [--out BENCH_kernel.json] [--scale 0.05] [--seed 0] [--points 3]
        [--repeats 2] [--min-end-to-end-geomean 1.0]

The Fig. 10 sweep is |Q| ∈ {250, 500, 1000, 2500, 5000} (paper units) at
k = 80, |P| = 100K, scaled linearly.  ``--points`` truncates the sweep
(default 3, i.e. up to the paper-default |Q| = 1000 point) so the script
finishes in minutes; each dropped point is recorded in the JSON with the
reason it was dropped rather than silently omitted.
"""

from __future__ import annotations

import argparse
import json
import math
import time

import numpy as np

from repro.core.ida import IDASolver
from repro.datagen.workloads import make_problem
from repro.experiments.config import PAPER_DEFAULTS, scaled
from repro.flow.backend import get_backend

NQ_SWEEP_PAPER = (250, 500, 1000, 2500, 5000)
# End-to-end stacks: (label, flow backend, index backend).
STACKS = (
    ("reference", "dict", "pointer"),
    ("columnar", "array", "packed"),
)
# Kernel replay isolates the flow seam only.
KERNEL_BACKENDS = ("dict", "array")


def _replay(backend_name, caps, weights, edges):
    """SSP to completion over a frozen Esub — the kernel-only workload."""
    backend = get_backend(backend_name)
    i_col = np.asarray([e[0] for e in edges], dtype=np.int64)
    j_col = np.asarray([e[1] for e in edges], dtype=np.int64)
    d_col = np.asarray([e[2] for e in edges], dtype=np.float64)
    started = time.perf_counter()
    net = backend.network(caps, weights)
    net.add_edges(i_col, j_col, d_col)
    gamma = net.gamma
    pops = 0
    while net.matched < gamma:
        state = backend.dijkstra(net)
        if not state.run():
            raise RuntimeError("kernel replay: sink unreachable in Esub")
        net.augment_with_state(state.path_nodes(), state.sp_cost, state)
        pops += state.pops
    elapsed = time.perf_counter() - started
    return elapsed, net.matching_cost(), pops


def _end_to_end_once(nq, np_, k, seed, flow, index):
    problem = make_problem(nq=nq, np_=np_, k=k, seed=seed)
    problem.rtree(index_backend=index)  # index build is setup, not work
    started = time.perf_counter()
    solver = IDASolver(problem, backend=flow, index_backend=index)
    matching = solver.solve()
    elapsed = time.perf_counter() - started
    return elapsed, matching, solver


def bench_point(nq_paper, scale, seed, repeats, stacks, kernel_backends):
    nq = scaled(nq_paper, scale, minimum=2)
    np_ = scaled(PAPER_DEFAULTS["np"], scale, minimum=50)
    k = PAPER_DEFAULTS["k"]
    row = {
        "nq_paper": nq_paper,
        "nq": nq,
        "np": np_,
        "k": k,
        "end_to_end_s": {},
        "kernel_s": {},
    }
    edges = None
    reference = None
    best = {label: math.inf for label, _, _ in stacks}
    for _ in range(max(1, repeats)):
        for label, flow, index in stacks:
            elapsed, matching, solver = _end_to_end_once(nq, np_, k, seed, flow, index)
            best[label] = min(best[label], elapsed)
            signature = (matching.cost, solver.stats.esub_edges)
            if reference is None:
                reference = signature
                edges = solver.net.edge_triples()
                caps = [q.capacity for q in solver.problem.providers]
                weights = [c.weight for c in solver.problem.customers]
                row["cost"] = matching.cost
                row["esub"] = solver.stats.esub_edges
            elif signature != reference:
                raise AssertionError(
                    f"stack divergence at nq={nq} ({label}): "
                    f"{signature} != {reference}"
                )
    for label, _, _ in stacks:
        row["end_to_end_s"][label] = best[label]
    replay_cost = None
    replay_pops = None
    row["kernel_pops"] = {}
    for name in kernel_backends:
        elapsed, cost, pops = _replay(name, caps, weights, edges)
        row["kernel_s"][name] = elapsed
        row["kernel_pops"][name] = pops
        if replay_cost is None:
            replay_cost, replay_pops = cost, pops
        elif cost != replay_cost or pops != replay_pops:
            raise AssertionError(
                f"kernel replay divergence at nq={nq}: "
                f"cost {cost} vs {replay_cost}, pops {pops} vs {replay_pops}"
            )
    row["kernel_speedup"] = row["kernel_s"]["dict"] / row["kernel_s"]["array"]
    row["end_to_end_speedup"] = (
        row["end_to_end_s"]["reference"] / row["end_to_end_s"]["columnar"]
    )
    return row


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_kernel.json")
    parser.add_argument(
        "--scale",
        type=float,
        default=0.05,
        help="linear scale on |Q| and |P| (default 0.05)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--points",
        type=int,
        default=3,
        help="how many Fig. 10 sweep points to run "
        "(default 3 = up to the paper-default |Q|)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=2,
        help="end-to-end repetitions per stack; the best "
        "run is reported (default %(default)s)",
    )
    parser.add_argument(
        "--min-end-to-end-geomean",
        type=float,
        default=None,
        help="fail (exit 1) when the end-to-end geomean "
        "falls below this bound — the CI regression "
        "gate for the fused columnar pipeline",
    )
    args = parser.parse_args(argv)

    sweep = NQ_SWEEP_PAPER[: max(1, args.points)]
    dropped = [
        {
            "nq_paper": nq_paper,
            "reason": (
                f"runtime budget: --points {args.points} truncates the "
                f"Fig. 10 sweep (re-run with --points 5 for the full one)"
            ),
        }
        for nq_paper in NQ_SWEEP_PAPER[len(sweep):]
    ]
    for item in dropped:
        print(
            f"[bench_kernel] dropping paper |Q|={item['nq_paper']}: "
            f"{item['reason']}"
        )
    points = []
    for nq_paper in sweep:
        row = bench_point(
            nq_paper,
            args.scale,
            args.seed,
            args.repeats,
            STACKS,
            KERNEL_BACKENDS,
        )
        points.append(row)
        print(
            f"[bench_kernel] |Q|={row['nq']} |P|={row['np']}: "
            f"kernel {row['kernel_s']['dict']:.2f}s -> "
            f"{row['kernel_s']['array']:.2f}s "
            f"({row['kernel_speedup']:.2f}x), end-to-end "
            f"{row['end_to_end_s']['reference']:.2f}s -> "
            f"{row['end_to_end_s']['columnar']:.2f}s "
            f"({row['end_to_end_speedup']:.2f}x)"
        )

    end_to_end_geomean = geomean([p["end_to_end_speedup"] for p in points])
    report = {
        "workload": "fig10 (performance vs |Q|; k=80, |P|=100K paper units)",
        "stacks": {
            label: {"flow": flow, "index": index}
            for label, flow, index in STACKS
        },
        "kernel_backends": list(KERNEL_BACKENDS),
        "scale": args.scale,
        "seed": args.seed,
        "repeats": args.repeats,
        "sweep_paper_nq": list(sweep),
        "sweep_dropped": dropped,
        "points": points,
        "kernel_speedup_geomean": geomean(
            [p["kernel_speedup"] for p in points]
        ),
        "kernel_speedup_max": max(p["kernel_speedup"] for p in points),
        "end_to_end_geomean": end_to_end_geomean,
        "end_to_end_speedup_min": min(
            p["end_to_end_speedup"] for p in points
        ),
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
    print(
        f"[bench_kernel] kernel speedup geomean "
        f"{report['kernel_speedup_geomean']:.2f}x (max "
        f"{report['kernel_speedup_max']:.2f}x), end-to-end geomean "
        f"{end_to_end_geomean:.2f}x -> {args.out}"
    )
    failed = False
    if (
        args.min_end_to_end_geomean is not None
        and end_to_end_geomean < args.min_end_to_end_geomean
    ):
        print(
            f"[bench_kernel] FAIL: end-to-end geomean "
            f"{end_to_end_geomean:.3f} < required "
            f"{args.min_end_to_end_geomean:.3f}"
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
