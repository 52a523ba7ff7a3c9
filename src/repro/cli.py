"""Command-line interface.

Examples::

    repro-cca list
    repro-cca table2
    repro-cca figure fig9 --scale 0.05 --seed 0
    repro-cca solve --nq 50 --np 5000 --k 80 --method ida
    repro-cca serve --nq 50 --np 5000 --events 200 --shards 4
    repro-cca index-info --np 5000 --index-backend packed
    repro-cca generate --n 1000 --distribution clustered --out points.csv
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

import numpy as np

from repro.core.shard import ROUTERS
from repro.datagen.events import PROFILES as EVENT_PROFILES
from repro.datagen.generator import generate_points
from repro.datagen.network import build_road_network
from repro.datagen.workloads import make_problem
from repro.experiments.config import DEFAULT_SCALE, PAPER_DEFAULTS
from repro.experiments.figures import FIGURES, run_figure
from repro.experiments.harness import run_method
from repro.experiments.report import format_figure_report, format_table2
from repro.flow.backend import BACKENDS, get_backend
from repro.rtree.backend import INDEX_BACKENDS, index_info


def _cmd_lint(args) -> int:
    from repro.lint import all_rules, lint_paths

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id}  {rule.title}")
            print(f"        {rule.rationale}")
        return 0
    try:
        diags = lint_paths(args.paths, strict=args.strict)
    except OSError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2
    for diag in diags:
        print(diag.render())
    if diags:
        files = len({d.path for d in diags})
        print(f"repro-lint: {len(diags)} finding(s) in {files} file(s)")
        return 1
    return 0


def _cmd_list(_args) -> int:
    print("Available figures (run with: repro-cca figure <id>):")
    for fig_id, spec in sorted(FIGURES.items()):
        print(f"  {fig_id:<6} {spec.title}")
        print(f"         setup: {spec.paper_setup}")
    return 0


def _cmd_table2(_args) -> int:
    print(format_table2())
    return 0


def _cmd_figure(args) -> int:
    started = time.perf_counter()
    results = run_figure(args.figure_id, scale=args.scale, seed=args.seed)
    report = format_figure_report(args.figure_id, results)
    print(report)
    print(
        f"(regenerated in {time.perf_counter() - started:.1f}s wall, "
        f"scale={args.scale}, seed={args.seed})"
    )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report + "\n")
        print(f"written to {args.out}")
    return 0


def _cmd_all(args) -> int:
    """Regenerate every figure; write one text + one markdown report."""
    from repro.experiments.report import figure_to_markdown

    import os

    order = sorted(FIGURES, key=lambda f: int(f.replace("fig", "")))
    out_dir = None
    if args.out:
        out_dir = os.path.dirname(os.path.abspath(args.out)) or "."
    text_blocks = [format_table2(), ""]
    md_blocks = []
    for fig_id in order:
        started = time.perf_counter()
        print(f"[{fig_id}] running at scale={args.scale} ...", flush=True)
        results = run_figure(fig_id, scale=args.scale, seed=args.seed)
        elapsed = time.perf_counter() - started
        print(f"[{fig_id}] done in {elapsed:.1f}s", flush=True)
        text_blocks.append(format_figure_report(fig_id, results))
        md_blocks.append(figure_to_markdown(fig_id, results))
        if out_dir:
            # Incremental per-figure dumps survive interruption.
            with open(os.path.join(out_dir, f"{fig_id}.md"), "w") as fh:
                fh.write(md_blocks[-1] + "\n")
    text = "\n".join(text_blocks)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        with open(args.out.rsplit(".", 1)[0] + ".md", "w") as fh:
            fh.write("\n".join(md_blocks) + "\n")
        print(f"reports written to {args.out} (+ .md)")
    else:
        print(text)
    return 0


def _cmd_solve(args) -> int:
    problem = make_problem(
        nq=args.nq,
        np_=args.np,
        k=args.k,
        dist_q=args.dist_q,
        dist_p=args.dist_p,
        seed=args.seed,
    )
    backend = get_backend(args.backend)
    result = run_method(
        problem,
        args.method,
        sweep_label="cli",
        backend=backend,
        index_backend=args.index_backend,
        ann_group_size=args.ann_group_size,
        shards=args.shards,
        workers=args.workers,
        router=args.router,
    )
    sharding = (
        f" shards={args.shards} workers={args.workers or 1} "
        f"router={args.router}"
        if args.shards > 1
        else ""
    )
    print(
        f"method={args.method} backend={backend.name} "
        f"index={args.index_backend} "
        f"|Q|={args.nq} |P|={args.np} k={args.k} gamma={result.gamma}"
        f"{sharding}"
    )
    print(
        f"cost={result.cost:.2f} matched={result.matched} "
        f"esub={result.esub} cpu={result.cpu_s:.3f}s "
        f"io={result.io_s:.3f}s ({result.io_faults} faults) "
        f"total={result.total_s:.3f}s"
    )
    if args.shards > 1:
        extra = result.extra
        print(
            f"sharding: plan={extra['plan_s']:.3f}s "
            f"route={extra['route_s']:.3f}s "
            f"solve={extra['solve_s']:.3f}s "
            f"reconcile={extra['reconcile_s']:.3f}s "
            f"(moves={extra['reconcile_moves']}, "
            f"residual={extra['residual']['matched']})"
        )
    return 0


def _cmd_profile(args) -> int:
    """Per-stage wall-time breakdown of one solve — where the fused
    pipeline spends its time for a given method/backend combo.

    Stages (collected in ``SolverStats.stage_s`` by the solvers
    themselves): ``supply`` (index/ANN retrieval), ``insert`` (edge
    insertion into the flow network), ``dijkstra`` (shortest-path
    search), ``augment`` (path reversal + potential update); the
    remainder is certification, heap upkeep, and bookkeeping.
    """
    problem = make_problem(
        nq=args.nq,
        np_=args.np,
        k=args.k,
        dist_q=args.dist_q,
        dist_p=args.dist_p,
        seed=args.seed,
    )
    backend = get_backend(args.backend)
    result = run_method(
        problem,
        args.method,
        sweep_label="profile",
        backend=backend,
        index_backend=args.index_backend,
        ann_group_size=args.ann_group_size,
    )
    print(
        f"method={args.method} backend={backend.name} "
        f"index={args.index_backend} |Q|={args.nq} |P|={args.np} "
        f"k={args.k} gamma={result.gamma}"
    )
    print(
        f"cost={result.cost:.2f} esub={result.esub} "
        f"cpu={result.cpu_s:.3f}s io={result.io_s:.3f}s "
        f"({result.io_faults} faults)"
    )
    stage_s = result.extra.get("stage_s", {})
    total_s = result.cpu_s
    if not stage_s and "concise" in result.extra:
        # SA/CA run IDA internally on a concise instance; surface that
        # solve's breakdown, against *its* cpu time (the outer partition
        # build and refinement phases are untimed and reported apart).
        inner = result.extra["concise"]
        stage_s = getattr(inner, "stage_s", {})
        total_s = getattr(inner, "cpu_s", result.cpu_s)
        print(
            f"(stage breakdown of the internal concise-matching solve: "
            f"{total_s:.3f}s of {result.cpu_s:.3f}s total; the remainder "
            f"is partitioning + refinement)"
        )
    if not stage_s:
        print("no stage timings recorded for this method")
        return 0
    timed = sum(stage_s.values())
    other = max(0.0, total_s - timed)
    width = max(len(s) for s in list(stage_s) + ["other"])
    for stage in ("supply", "insert", "dijkstra", "augment"):
        if stage in stage_s:
            seconds = stage_s[stage]
            share = 100.0 * seconds / total_s if total_s else 0.0
            print(f"  {stage:<{width}}  {seconds:8.3f}s  {share:5.1f}%")
    for stage in sorted(set(stage_s) - {"supply", "insert", "dijkstra", "augment"}):
        seconds = stage_s[stage]
        share = 100.0 * seconds / total_s if total_s else 0.0
        print(f"  {stage:<{width}}  {seconds:8.3f}s  {share:5.1f}%")
    share = 100.0 * other / total_s if total_s else 0.0
    print(f"  {'other':<{width}}  {other:8.3f}s  {share:5.1f}%")
    return 0


def _cmd_serve(args) -> int:
    """Replay a seeded event stream against warm shard sessions and
    report per-delta latency, throughput, and the warm/cold ledger."""
    from repro.datagen.events import (
        EventStreamSpec,
        generate_events,
        summarize_events,
    )
    from repro.serve.engine import OnlineAssignmentService

    problem = make_problem(
        nq=args.nq,
        np_=args.np,
        k=args.k,
        dist_q=args.dist_q,
        dist_p=args.dist_p,
        seed=args.seed,
    )
    spec = EventStreamSpec(n_events=args.events, profile=args.profile, rate=args.rate)
    events = generate_events(problem, spec, seed=args.stream_seed)
    stream = summarize_events(events)
    service = OnlineAssignmentService(
        problem,
        shards=args.shards,
        backend=args.backend,
        index_backend=args.index_backend,
        reconcile_every=args.reconcile_every,
    )
    stats = service.run(events, window=args.window)
    summary = stats.summary()
    print(
        f"profile={args.profile} |Q|={args.nq} |P|={args.np} k={args.k} "
        f"shards={args.shards} backend={service.backend.name} "
        f"index={service.index_backend.name}"
    )
    print(
        f"stream: {stream.arrivals} arrivals, {stream.departures} "
        f"departures, {stream.capacity_changes} capacity changes over "
        f"{stream.duration:.2f} stream-time units "
        f"(window={args.window} -> {stats.groups} delta groups)"
    )
    print(
        f"latency: p50={summary['latency_p50_ms']:.1f}ms "
        f"p99={summary['latency_p99_ms']:.1f}ms  "
        f"throughput: {summary['events_per_sec']:.0f} events/sec "
        f"(startup cold solve {stats.startup_s:.3f}s, reported apart)"
    )
    print(
        f"assigns: {stats.assigns} ({stats.warm_assigns} warm / "
        f"{stats.cold_assigns} cold; {stats.hazard_colds} hazard, "
        f"{stats.repair_fallbacks} mid-assign repair fallbacks), "
        f"warm rate {summary['warm_rate']:.2f}, "
        f"{stats.rejected} events rejected"
    )
    reasons = ", ".join(
        f"{reason} {count}" for reason, count in summary["cold_reasons"].items()
    )
    print(
        f"arrival repairs: {stats.arrival_repairs} pinned arrivals repaired "
        f"in place; cold reasons: {reasons or 'none'}"
    )
    print(
        f"degraded ops: {stats.quarantines} quarantines "
        f"({stats.quarantine_s:.3f}s rebuilding cold), "
        f"{stats.shed} requests shed, {stats.timeouts} request timeouts"
    )
    if args.shards > 1:
        print(
            f"reconcile: {stats.reconcile_passes} passes, "
            f"{stats.reconcile_moves} session moves, "
            f"{stats.reconcile_rebalanced} unmatched rebalanced "
            f"({stats.reconcile_s:.3f}s total)"
        )
    if args.verify:
        report = service.verify_against_cold()
        if args.shards > 1:
            # Sharded matchings are boundary-approximate by design; the
            # bit-identity contract holds at shards=1.  Report quality
            # against the cold optimum instead of pass/fail.
            ratio = report["live_cost"] / max(report["cold_cost"], 1e-12)
            print(
                f"verify vs cold solve of final state: sharded run — "
                f"live {report['live_size']} pairs / cost "
                f"{report['live_cost']:.2f} vs optimal "
                f"{report['cold_size']} pairs / cost "
                f"{report['cold_cost']:.2f} (ratio {ratio:.4f}; "
                f"bit-identity is the shards=1 contract)"
            )
            return 0
        verdict = "bit-identical" if report["identical"] else "DIVERGED"
        print(
            f"verify vs cold solve of final state: {verdict} "
            f"(live {report['live_size']} pairs / cost "
            f"{report['live_cost']:.2f}, cold {report['cold_size']} "
            f"pairs / cost {report['cold_cost']:.2f})"
        )
        if not report["identical"]:
            return 1
    return 0


def _cmd_chaos(args) -> int:
    """Reproducible chaos runs: sweep seeded fault plans through the
    supervised sharded engine (and, optionally, the serving layer's
    quarantine path) and gate on the reliability contract — every faulted
    run bit-identical to the fault-free one, zero leaked shm segments,
    zero orphaned worker processes.  Exit 1 on any violation.
    """
    import glob
    import multiprocessing

    from repro.core.faults import FaultPlan
    from repro.core.shard import plan_shards, solve_sharded
    from repro.core.supervisor import RetryPolicy

    problem = make_problem(
        nq=args.nq,
        np_=args.np,
        k=args.k,
        dist_q=args.dist_q,
        dist_p=args.dist_p,
        seed=args.seed,
    )
    num_shards = plan_shards(problem, args.shards).num_shards
    policy = RetryPolicy(max_retries=args.max_retries, task_timeout_s=args.task_timeout)
    solve_kwargs = dict(
        workers=args.workers,
        backend=args.backend,
        index_backend=args.index_backend,
        retry_policy=policy,
    )
    segments_before = set(glob.glob("/dev/shm/repro_cca_*"))
    baseline = solve_sharded(
        problem, args.shards, fault_plan=FaultPlan.none(), **solve_kwargs
    )
    reference = sorted(baseline.pairs)
    print(
        f"chaos: |Q|={args.nq} |P|={args.np} k={args.k} "
        f"shards={num_shards} workers={args.workers or 1} "
        f"backend={args.backend} retries={policy.max_retries} "
        f"timeout={policy.task_timeout_s}s"
    )
    print(f"fault-free baseline: {len(reference)} pairs, " f"cost {baseline.cost:.2f}")
    failures = 0
    for plan_seed in range(args.plan_seed, args.plan_seed + args.plans):
        plan = FaultPlan.from_seed(plan_seed, num_shards, hang_s=args.hang_s)
        matching = solve_sharded(problem, args.shards, fault_plan=plan, **solve_kwargs)
        identical = sorted(matching.pairs) == reference
        ledger = matching.stats.faults
        verdict = "ok" if identical else "DIVERGED"
        if not identical:
            failures += 1
        print(f"plan seed {plan_seed}: {verdict}")
        print(f"  {plan.describe()}")
        print(f"  ledger: {ledger.summary()}")
    if args.serve_groups > 0:
        from repro.datagen.events import EventStreamSpec, generate_events
        from repro.serve.engine import OnlineAssignmentService

        def service(fault_plan=None):
            instance = make_problem(
                nq=args.nq,
                np_=args.np,
                k=args.k,
                dist_q=args.dist_q,
                dist_p=args.dist_p,
                seed=args.seed,
            )
            return OnlineAssignmentService(
                instance,
                shards=1,
                backend=args.backend,
                index_backend=args.index_backend,
                fault_plan=fault_plan,
            )

        spec = EventStreamSpec(n_events=args.events)
        events = generate_events(problem, spec, seed=args.stream_seed)
        clean = service()
        clean.run(events, window=0.25)
        # Kill the (single) warm session every --serve-crash-every groups.
        kill_groups = list(
            range(1, clean.stats.groups, max(1, args.serve_crash_every))
        )[: args.serve_groups]
        chaotic = service(
            fault_plan=FaultPlan.session_faults(kill_groups, num_shards=1)
        )
        chaotic.run(events, window=0.25)
        replay_identical = sorted(chaotic.live_pairs()) == sorted(clean.live_pairs())
        cold = chaotic.verify_against_cold()
        if not (replay_identical and cold["identical"]):
            failures += 1
        print(
            f"serve replay (shards=1, {chaotic.stats.quarantines} "
            f"quarantines over {chaotic.stats.groups} groups): "
            f"{'ok' if replay_identical and cold['identical'] else 'DIVERGED'}"
            f" — identical to clean replay: {replay_identical}, "
            f"bit-identical to cold solve: {cold['identical']}"
        )
    leaked = sorted(set(glob.glob("/dev/shm/repro_cca_*")) - segments_before)
    orphans = [
        p for p in multiprocessing.active_children()
        if "resource_tracker" not in repr(p)
    ]
    if leaked:
        failures += 1
        print(f"LEAKED shm segments: {leaked}")
    if orphans:
        failures += 1
        print(f"ORPHANED worker processes: {orphans}")
    print(
        f"chaos gates: bit-identity "
        f"{'pass' if failures == 0 else 'FAIL'}, "
        f"shm leaks {len(leaked)}, orphan workers {len(orphans)}"
    )
    return 1 if failures else 0


def _cmd_index_info(args) -> int:
    """Build the customer index for one synthetic instance and describe it
    (tree height, node counts, fill factors) — handy when sizing shard
    plans or comparing the pointer and packed backends."""
    problem = make_problem(
        nq=args.nq,
        np_=args.np,
        k=args.k,
        dist_q=args.dist_q,
        dist_p=args.dist_p,
        seed=args.seed,
    )
    started = time.perf_counter()
    tree = problem.rtree(index_backend=args.index_backend)
    build_s = time.perf_counter() - started
    info = index_info(tree)
    print(
        f"backend={info['backend']} "
        f"points={info['points']} built in {build_s:.3f}s"
    )
    print(
        f"height={info['height']} pages={info['pages']} "
        f"(leaves={info['leaves']}, dir={info['dir_nodes']})"
    )
    print(f"capacity: leaf={info['leaf_capacity']} dir={info['dir_capacity']}")
    print(f"fill factor: leaf={info['leaf_fill']:.3f} " f"dir={info['dir_fill']:.3f}")
    return 0


def _cmd_generate(args) -> int:
    network = build_road_network(seed=args.network_seed)
    points = generate_points(network, args.n, args.distribution, seed=args.seed)
    header = "x,y"
    if args.out:
        np.savetxt(args.out, points, delimiter=",", header=header, comments="")
        print(f"{len(points)} points -> {args.out}")
    else:
        sys.stdout.write(header + "\n")
        np.savetxt(sys.stdout, points, delimiter=",")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cca",
        description=(
            "Capacity Constrained Assignment in Spatial Databases "
            "(SIGMOD 2008) — reproduction toolkit"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible figures").set_defaults(
        func=_cmd_list
    )
    sub.add_parser("table2", help="print Table 2").set_defaults(func=_cmd_table2)

    fig = sub.add_parser("figure", help="regenerate a figure's data series")
    fig.add_argument("figure_id", choices=sorted(FIGURES))
    fig.add_argument(
        "--scale",
        type=float,
        default=DEFAULT_SCALE,
        help="linear scale on |Q| and |P| (default %(default)s)",
    )
    fig.add_argument("--seed", type=int, default=0)
    fig.add_argument(
        "--out", type=str, default=None, help="also write the report to this file"
    )
    fig.set_defaults(func=_cmd_figure)

    allf = sub.add_parser("all", help="regenerate every figure")
    allf.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    allf.add_argument("--seed", type=int, default=0)
    allf.add_argument("--out", type=str, default=None)
    allf.set_defaults(func=_cmd_all)

    slv = sub.add_parser("solve", help="solve one synthetic instance")
    slv.add_argument("--nq", type=int, default=50)
    slv.add_argument("--np", type=int, default=5000)
    slv.add_argument("--k", type=int, default=80)
    slv.add_argument("--method", type=str, default="ida")
    slv.add_argument(
        "--backend",
        type=str,
        default="dict",
        choices=sorted(BACKENDS),
        help="flow-kernel backend: 'dict' is the readable reference "
        "implementation, 'array' the columnar NumPy kernel — "
        "identical results on both; default %(default)s",
    )
    slv.add_argument(
        "--index-backend",
        type=str,
        default="pointer",
        choices=sorted(INDEX_BACKENDS),
        help="spatial-index backend: 'pointer' is the node-object "
        "reference R-tree, 'packed' the columnar array tree with "
        "vectorized NN streams (bit-identical matchings and page "
        "accounting; default %(default)s)",
    )
    slv.add_argument(
        "--ann-group-size",
        type=int,
        default=PAPER_DEFAULTS["ann_group_size"],
        help="Algorithm 6 provider-group size for the shared NN streams "
        "(paper default %(default)s)",
    )
    slv.add_argument(
        "--shards",
        type=int,
        default=1,
        help="split the instance into N provider-disjoint spatial shards "
        "solved independently and reconciled (default %(default)s = "
        "plain serial solve; exact methods only)",
    )
    slv.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the per-shard solves (default: solve "
        "shards inline in one process)",
    )
    slv.add_argument(
        "--router",
        type=str,
        default="nearest",
        choices=sorted(ROUTERS),
        help="customer->shard routing: 'nearest' follows the nearest "
        "provider, 'concise' follows SA's concise matching at the "
        "planning delta (capacity-respecting; objective provably <= "
        "serial SA)",
    )
    slv.add_argument("--dist-q", type=str, default="clustered")
    slv.add_argument("--dist-p", type=str, default="clustered")
    slv.add_argument("--seed", type=int, default=0)
    slv.set_defaults(func=_cmd_solve)

    prof = sub.add_parser(
        "profile",
        help="per-stage wall-time breakdown of one solve "
        "(supply/insert/dijkstra/augment)",
    )
    prof.add_argument("--nq", type=int, default=50)
    prof.add_argument("--np", type=int, default=5000)
    prof.add_argument("--k", type=int, default=80)
    prof.add_argument("--method", type=str, default="ida")
    prof.add_argument(
        "--backend",
        type=str,
        default="dict",
        choices=sorted(BACKENDS),
        help="flow-kernel backend to profile (default %(default)s)",
    )
    prof.add_argument(
        "--index-backend",
        type=str,
        default="pointer",
        choices=sorted(INDEX_BACKENDS),
        help="spatial-index backend to profile (default %(default)s)",
    )
    prof.add_argument(
        "--ann-group-size",
        type=int,
        default=PAPER_DEFAULTS["ann_group_size"],
        help="Algorithm 6 provider-group size (paper default %(default)s)",
    )
    prof.add_argument("--dist-q", type=str, default="clustered")
    prof.add_argument("--dist-p", type=str, default="clustered")
    prof.add_argument("--seed", type=int, default=0)
    prof.set_defaults(func=_cmd_profile)

    srv = sub.add_parser(
        "serve",
        help="replay a seeded event stream against warm shard sessions "
        "(online assignment service)",
    )
    srv.add_argument("--nq", type=int, default=50)
    srv.add_argument("--np", type=int, default=5000)
    srv.add_argument("--k", type=int, default=80)
    srv.add_argument(
        "--events",
        type=int,
        default=200,
        help="stream length (default %(default)s)",
    )
    srv.add_argument(
        "--profile",
        type=str,
        default="steady",
        choices=sorted(EVENT_PROFILES),
        help="arrival-rate profile: constant-rate 'steady', on/off "
        "'burst', sinusoidal 'diurnal' (default %(default)s)",
    )
    srv.add_argument(
        "--rate",
        type=float,
        default=40.0,
        help="mean stream intensity, events per stream-time unit "
        "(default %(default)s)",
    )
    srv.add_argument(
        "--window",
        type=float,
        default=0.25,
        help="batching window in stream-time units; events closer "
        "together land in one delta group (default %(default)s)",
    )
    srv.add_argument(
        "--shards",
        type=int,
        default=1,
        help="provider-disjoint shards, each holding one warm session "
        "(default %(default)s; >1 adds periodic reconciliation)",
    )
    srv.add_argument(
        "--reconcile-every",
        type=int,
        default=8,
        help="reconcile boundaries after every N delta groups when "
        "sharded (default %(default)s)",
    )
    srv.add_argument(
        "--backend",
        type=str,
        default="array",
        choices=sorted(BACKENDS),
        help="flow-kernel backend for the warm sessions (default " "%(default)s)",
    )
    srv.add_argument(
        "--index-backend",
        type=str,
        default="pointer",
        choices=sorted(INDEX_BACKENDS),
        help="spatial-index backend (default %(default)s)",
    )
    srv.add_argument(
        "--verify",
        action="store_true",
        help="after replay, check the live matching is bit-identical to "
        "a cold solve of the final state (exit 1 on divergence)",
    )
    srv.add_argument("--dist-q", type=str, default="clustered")
    srv.add_argument("--dist-p", type=str, default="clustered")
    srv.add_argument("--seed", type=int, default=0, help="problem-instance seed")
    srv.add_argument(
        "--stream-seed",
        type=int,
        default=0,
        help="event-stream seed (independent of --seed)",
    )
    srv.set_defaults(func=_cmd_serve)

    cha = sub.add_parser(
        "chaos",
        help="sweep seeded fault plans through the supervised sharded "
        "engine and gate on bit-identity / zero leaks / zero "
        "orphans (reproducible chaos runs)",
    )
    cha.add_argument("--nq", type=int, default=30)
    cha.add_argument("--np", type=int, default=600)
    cha.add_argument("--k", type=int, default=40)
    cha.add_argument(
        "--shards",
        type=int,
        default=3,
        help="requested shard count (default %(default)s)",
    )
    cha.add_argument(
        "--workers",
        type=int,
        default=3,
        help="worker processes — >1 exercises real crash/kill paths "
        "(default %(default)s)",
    )
    cha.add_argument(
        "--plans",
        type=int,
        default=5,
        help="how many seeded FaultPlans to sweep (default %(default)s)",
    )
    cha.add_argument(
        "--plan-seed",
        type=int,
        default=0,
        help="first FaultPlan seed; plans use seed..seed+plans-1 "
        "(default %(default)s)",
    )
    cha.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="supervisor retry budget per shard (default %(default)s)",
    )
    cha.add_argument(
        "--task-timeout",
        type=float,
        default=30.0,
        help="per-task deadline in seconds; hung workers are killed and "
        "their shard retried (default %(default)s)",
    )
    cha.add_argument(
        "--hang-s",
        type=float,
        default=60.0,
        help="sleep injected by generated hang faults — keep it above "
        "--task-timeout so hangs are killed, not waited out "
        "(default %(default)s)",
    )
    cha.add_argument(
        "--serve-groups",
        type=int,
        default=3,
        help="also chaos the serving layer: kill the warm session on N "
        "delta groups of a shards=1 replay and require bit-identity "
        "(0 disables; default %(default)s)",
    )
    cha.add_argument(
        "--serve-crash-every",
        type=int,
        default=4,
        help="kill the warm session every Nth delta group during the "
        "serve chaos replay (default %(default)s)",
    )
    cha.add_argument(
        "--events",
        type=int,
        default=120,
        help="serve chaos stream length (default %(default)s)",
    )
    cha.add_argument("--stream-seed", type=int, default=0)
    cha.add_argument(
        "--backend",
        type=str,
        default="array",
        choices=sorted(BACKENDS),
        help="flow-kernel backend (default %(default)s)",
    )
    cha.add_argument(
        "--index-backend",
        type=str,
        default="pointer",
        choices=sorted(INDEX_BACKENDS),
        help="spatial-index backend (default %(default)s)",
    )
    cha.add_argument("--dist-q", type=str, default="clustered")
    cha.add_argument("--dist-p", type=str, default="clustered")
    cha.add_argument("--seed", type=int, default=0)
    cha.set_defaults(func=_cmd_chaos)

    idx = sub.add_parser(
        "index-info",
        help="build one instance's customer index and describe it",
    )
    idx.add_argument("--nq", type=int, default=50)
    idx.add_argument("--np", type=int, default=5000)
    idx.add_argument("--k", type=int, default=80)
    idx.add_argument(
        "--index-backend",
        type=str,
        default="pointer",
        choices=sorted(INDEX_BACKENDS),
        help="which index backend to build (default %(default)s)",
    )
    idx.add_argument("--dist-q", type=str, default="clustered")
    idx.add_argument("--dist-p", type=str, default="clustered")
    idx.add_argument("--seed", type=int, default=0)
    idx.set_defaults(func=_cmd_index_info)

    gen = sub.add_parser("generate", help="emit a synthetic point set (CSV)")
    gen.add_argument("--n", type=int, default=1000)
    gen.add_argument("--distribution", type=str, default="clustered")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--network-seed", type=int, default=7)
    gen.add_argument("--out", type=str, default=None)
    gen.set_defaults(func=_cmd_generate)

    lnt = sub.add_parser(
        "lint",
        help="run the repro-lint determinism/reliability checks (RPR001-8)",
    )
    lnt.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    lnt.add_argument(
        "--strict",
        action="store_true",
        help="also report unused suppressions (nightly sweep mode)",
    )
    lnt.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    lnt.set_defaults(func=_cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
