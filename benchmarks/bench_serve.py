"""Online-serving benchmark: per-delta latency and sustained throughput.

Replays seeded event streams (:mod:`repro.datagen.events`) — one per
arrival profile — against an :class:`~repro.serve.engine.OnlineAssignmentService`
holding warm per-shard sessions, and reports:

* **p50 / p99 per-delta-group latency** (ms) — group latencies include
  the warm re-assigns of every touched shard *and* any reconciliation
  pass the group triggered, so the p99 is honest about maintenance
  spikes;
* **sustained events/sec** — events over total time spent applying
  groups (startup's cold solves are reported separately, not amortized
  away);
* **warm/cold accounting** — warm re-assign rate plus both certified
  fallback kinds (pre-assign hazards and mid-assign dual-repair
  failures), so a latency regression can be attributed.

Two correctness gates run (CI executes both at tiny scale):

* after replaying each stream on a single-shard service, the live
  matching must be **bit-identical** to a cold ``solve()`` of the final
  problem state — the serving layer's acceptance contract.  ``--shards >
  1`` runs the sharded service for the latency numbers and gates on a
  separate single-shard replay of the same streams;
* the final residual state of **every shard session** of every replay
  must pass the solver-independent optimality certificate
  (:func:`repro.core.certify.certify`), so a pinned arrival that the
  session repaired in place is never kept uncertified.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py \
        [--out BENCH_serve.json] [--scale 0.05] [--seed 0] \
        [--events 400] [--window 0.25] [--shards 1] [--rate 40]
"""

from __future__ import annotations

import argparse
import json
import os
import time

from repro.core.certify import certify
from repro.core.faults import FaultPlan
from repro.datagen.events import (
    PROFILES,
    EventStreamSpec,
    generate_events,
    summarize_events,
)
from repro.datagen.workloads import make_problem
from repro.experiments.config import PAPER_DEFAULTS, scaled
from repro.serve.engine import OnlineAssignmentService


def _build_problem(scale, seed):
    nq = scaled(PAPER_DEFAULTS["nq"], scale, minimum=4)
    np_ = scaled(PAPER_DEFAULTS["np"], scale, minimum=40)
    return make_problem(nq=nq, np_=np_, k=PAPER_DEFAULTS["k"], seed=seed)


def bench_profile(profile, args):
    problem = _build_problem(args.scale, args.seed)
    spec = EventStreamSpec(n_events=args.events, profile=profile, rate=args.rate)
    events = generate_events(problem, spec, seed=args.seed)
    stream = summarize_events(events)
    service = OnlineAssignmentService(
        problem,
        shards=args.shards,
        backend="array",
        reconcile_every=args.reconcile_every,
    )
    started = time.perf_counter()
    stats = service.run(events, window=args.window)
    wall_s = time.perf_counter() - started
    summary = stats.summary()
    summary.update(
        {
            "profile": profile,
            "wall_s": wall_s,
            "stream_arrivals": stream.arrivals,
            "stream_departures": stream.departures,
            "stream_capacity_changes": stream.capacity_changes,
            "stream_duration": stream.duration,
        }
    )
    return service, stats, summary


def certify_sessions(service, label):
    """Every shard session's final residual state must certify optimal
    for its sub-instance.  Raises on violation; returns the count."""
    for index, session in sorted(service.sessions.items()):
        net = session.net
        q_tau, p_tau = net.tau_lists()
        failure = certify(
            session.problem, net.matching_flows(), q_tau, p_tau, net.tau_s
        )
        if failure is not None:
            raise AssertionError(
                f"certificate failed on {label}, shard {index}: {failure}"
            )
    return len(service.sessions)


def identity_gate(profile, args):
    """Single-shard replay must be bit-identical to a cold solve of the
    final state.  Raises on violation."""
    problem = _build_problem(args.scale, args.seed)
    spec = EventStreamSpec(n_events=args.events, profile=profile, rate=args.rate)
    events = generate_events(problem, spec, seed=args.seed)
    service = OnlineAssignmentService(problem, shards=1, backend="array")
    service.run(events, window=args.window)
    certified = certify_sessions(service, f"{profile} single-shard replay")
    report = service.verify_against_cold()
    if not report["identical"]:
        raise AssertionError(
            f"bit-identity violated on profile {profile!r}: live "
            f"{report['live_size']} pairs / cost {report['live_cost']}, "
            f"cold {report['cold_size']} pairs / cost "
            f"{report['cold_cost']}"
        )
    report["profile"] = profile
    report["status"] = "pass"
    report["certified_sessions"] = certified
    return report


def bench_faulted(args):
    """Faulted replay at a fixed crash rate: one warm session killed
    every ``--fault-every`` delta groups, quarantined, and rebuilt cold.

    Reports degraded latency (the quarantine rebuilds land inside group
    latencies, so the degraded p99 is honest) and the recovery overhead
    (seconds spent rebuilding over total busy seconds) — and gates on
    the PR's acceptance contract: the degraded replay's final matching
    must be bit-identical to the clean replay's *and* to a cold solve.
    """
    profile = "steady"
    spec = EventStreamSpec(n_events=args.events, profile=profile, rate=args.rate)

    clean = OnlineAssignmentService(
        _build_problem(args.scale, args.seed), shards=1, backend="array"
    )
    events = generate_events(clean.problem, spec, seed=args.seed)
    clean_stats = clean.run(events, window=args.window)
    reference = sorted(clean.live_pairs())
    clean_summary = clean_stats.summary()

    kill_groups = list(range(1, max(2, clean_stats.groups), max(1, args.fault_every)))
    plan = FaultPlan.session_faults(kill_groups, num_shards=1)
    faulted = OnlineAssignmentService(
        _build_problem(args.scale, args.seed),
        shards=1,
        backend="array",
        fault_plan=plan,
    )
    stats = faulted.run(events, window=args.window)
    summary = stats.summary()

    identical = sorted(faulted.live_pairs()) == reference
    certified = certify_sessions(faulted, "faulted replay")
    cold_report = faulted.verify_against_cold()
    if not (identical and cold_report["identical"]):
        raise AssertionError(
            f"faulted replay diverged: identical-to-clean={identical}, "
            f"identical-to-cold={cold_report['identical']} after "
            f"{stats.quarantines} quarantines"
        )

    busy = sum(stats.group_latencies_s)
    clean_p99 = clean_summary["latency_p99_ms"]
    degraded_p99 = summary["latency_p99_ms"]
    return {
        "status": "pass",
        "profile": profile,
        "certified_sessions": certified,
        "fault_every": args.fault_every,
        "session_kills": len(kill_groups),
        "clean_latency_p50_ms": clean_summary["latency_p50_ms"],
        "clean_latency_p99_ms": clean_p99,
        "degraded_latency_p50_ms": summary["latency_p50_ms"],
        "degraded_latency_p99_ms": degraded_p99,
        "p99_inflation": degraded_p99 / clean_p99 if clean_p99 else 0.0,
        "quarantines": stats.quarantines,
        "recovery_s": stats.quarantine_s,
        "recovery_overhead": stats.quarantine_s / busy if busy else 0.0,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_serve.json")
    parser.add_argument(
        "--scale",
        type=float,
        default=0.05,
        help="linear scale on |Q| and |P| (default 0.05)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--events",
        type=int,
        default=400,
        help="events per profile stream (default 400)",
    )
    parser.add_argument(
        "--window",
        type=float,
        default=0.25,
        help="batching window in stream-time units "
        "(default 0.25; ~rate*window events/group)",
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=40.0,
        help="mean stream intensity, events per " "stream-time unit (default 40)",
    )
    parser.add_argument("--shards", type=int, default=1)
    parser.add_argument(
        "--reconcile-every",
        type=int,
        default=8,
        help="reconcile after every N groups when " "sharded (default 8)",
    )
    parser.add_argument(
        "--profiles", nargs="+", default=list(PROFILES), choices=list(PROFILES)
    )
    parser.add_argument(
        "--skip-identity-gate",
        action="store_true",
        help="skip the cold-solve bit-identity gate " "(latency-only runs)",
    )
    parser.add_argument(
        "--fault-every",
        type=int,
        default=4,
        help="faulted replay: kill the warm session "
        "every N delta groups (default 4)",
    )
    parser.add_argument(
        "--skip-faulted",
        action="store_true",
        help="skip the faulted-replay degradation point",
    )
    args = parser.parse_args(argv)

    rows = []
    pooled_latencies = []
    total_events = 0
    certified = 0
    for profile in args.profiles:
        service, stats, summary = bench_profile(profile, args)
        certified += certify_sessions(service, f"{profile} replay")
        rows.append(summary)
        pooled_latencies.extend(stats.group_latencies_s)
        total_events += stats.events
        print(
            f"[bench_serve] {profile}: {stats.events} events in "
            f"{stats.groups} groups, p50 {summary['latency_p50_ms']:.1f}ms "
            f"p99 {summary['latency_p99_ms']:.1f}ms, "
            f"{summary['events_per_sec']:.0f} ev/s, warm rate "
            f"{summary['warm_rate']:.2f}, {stats.arrival_repairs} arrival "
            f"repairs, cold reasons {summary['cold_reasons']}"
        )

    gates = []
    if not args.skip_identity_gate:
        for profile in args.profiles:
            gate = identity_gate(profile, args)
            gates.append(gate)
            certified += gate["certified_sessions"]
            print(
                f"[bench_serve] bit-identity vs cold solve ({profile}): "
                f"{gate['status']} ({gate['live_size']} pairs)"
            )

    if args.skip_faulted:
        faulted = {"status": "skipped"}
    else:
        faulted = bench_faulted(args)
        certified += faulted["certified_sessions"]
        print(
            f"[bench_serve] faulted replay ({faulted['profile']}): "
            f"{faulted['session_kills']} session kills, degraded p99 "
            f"{faulted['degraded_latency_p99_ms']:.1f}ms (clean "
            f"{faulted['clean_latency_p99_ms']:.1f}ms), recovery "
            f"overhead {faulted['recovery_overhead']:.1%} -> "
            f"bit-identity {faulted['status']}"
        )

    pooled = sorted(pooled_latencies)

    def percentile(q):
        if not pooled:
            return 0.0
        rank = min(len(pooled) - 1, int(round(q / 100 * (len(pooled) - 1))))
        return pooled[rank]

    busy = sum(pooled)
    report = {
        "workload": "event-stream replay over warm shard sessions "
                    "(paper-unit |Q|=1000, |P|=100K, k=80, scaled)",
        "scale": args.scale,
        "seed": args.seed,
        "events": args.events,
        "window": args.window,
        "rate": args.rate,
        "shards": args.shards,
        "reconcile_every": args.reconcile_every,
        "cpu_count": os.cpu_count(),
        "profiles": list(args.profiles),
        "per_profile": rows,
        # Headlines: pooled over every profile's delta groups.
        "latency_p50_ms": percentile(50) * 1e3,
        "latency_p99_ms": percentile(99) * 1e3,
        "events_per_sec": total_events / busy if busy else 0.0,
        "warm_rate": (
            sum(r["warm_assigns"] for r in rows)
            / max(1, sum(r["assigns"] for r in rows))
        ),
        "bit_identity": {
            "status": "skipped" if args.skip_identity_gate else "pass",
            "gates": gates,
        },
        # Every shard session's final state passed certify().
        "certificate": {"status": "pass", "sessions": certified},
        # Degraded-mode point: serving under a fixed session-crash rate.
        "faulted": faulted,
        "degraded_latency_p99_ms": faulted.get(
            "degraded_latency_p99_ms", 0.0
        ),
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
    print(
        f"[bench_serve] pooled p50 {report['latency_p50_ms']:.1f}ms / "
        f"p99 {report['latency_p99_ms']:.1f}ms, "
        f"{report['events_per_sec']:.0f} events/sec sustained -> "
        f"{args.out}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
