"""The benchmark's workloads: exact-batch, sharded-batch and serve-stream.

Each workload builds its inputs from the seed alone, times the operations
a user waits for (an instance solve, or one delta group), checks every
output against the independent oracle in :mod:`perfbench.oracle`, and
returns one :class:`Outcome`.  Every workload runs the production stack:
the ``array`` flow backend and the ``packed`` index.  README.md in this
directory says why each workload exists and which layer each metric
belongs to.

An untraced run fills ``--seconds`` with operations (at least one pass
over its inputs) and yields the end-to-end metrics, each time scaled to a
reference host by the fixed workload of :mod:`perfbench.calibrate` timed
between operations.  A traced run makes one untraced pass and one traced
pass over the same inputs, asserts that their work counters match, and
yields the per-layer metrics from the traced pass's spans; the difference
between the two passes is the tracing overhead.
"""

from __future__ import annotations

import multiprocessing
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro.core.shard as shard_module
import repro.serve.engine as serve_module
from repro.core.matching import Matching, SolverStats
from repro.core.problem import CCAProblem
from repro.core.session import Matcher
from repro.core.solve import solve
from repro.datagen.events import EventStreamSpec, generate_events, group_events
from repro.datagen.generator import derive_rng
from repro.datagen.workloads import make_problem
from repro.flow.arraykernel import ArrayDijkstraState, ArrayFlowNetwork
from repro.rtree.backend import IndexBackend
from repro.serve.engine import OnlineAssignmentService

from . import oracle
from .calibrate import Calibrator
from .tracer import Tracer

FLOW_BACKEND = "array"
INDEX_BACKEND = "packed"


# ----------------------------------------------------------------------
# workload shapes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BatchShape:
    """A pool of seeded clustered instances solved one at a time."""

    nq: int
    np_: int
    k: int
    instances: int
    shards: int = 1
    workers: int = 1


@dataclass(frozen=True)
class StreamShape:
    """Seeded steady event streams, each replayed through its own
    sharded service in a closed loop (one client: a group is applied
    after the previous one returned)."""

    nq: int
    np_: int
    k: int
    streams: int
    events: int
    window: float
    shards: int


# Both batch workloads draw clustered instances with k·|Q|/|P| = 0.64,
# the paper's Figure 10 default regime scaled down.  Instance hardness
# varies a lot from seed to seed, so a run solves many small instances
# rather than a few large ones: the seed-to-seed spread of a run's median
# falls with the square root of the instance count.  sharded-batch keeps
# ten providers so that each of its four shards has more than one.
# serve-stream replays many short streams on small instances for the
# same reason: the latency of one long stream moved by more than 50% from
# seed to seed.
SHAPES = {
    "exact-batch": BatchShape(nq=5, np_=625, k=80, instances=200),
    "sharded-batch": BatchShape(
        nq=10, np_=1000, k=64, instances=100, shards=4, workers=2
    ),
    "serve-stream": StreamShape(
        nq=8, np_=400, k=40, streams=48, events=75, window=0.05, shards=4
    ),
}

# Seconds-scale shapes for the benchmark's own test: same code paths,
# tiny inputs.
TINY_SHAPES = {
    "exact-batch": BatchShape(nq=3, np_=150, k=30, instances=3),
    "sharded-batch": BatchShape(nq=8, np_=300, k=30, instances=3, shards=4, workers=2),
    "serve-stream": StreamShape(
        nq=4, np_=120, k=25, streams=2, events=40, window=0.05, shards=2
    ),
}


@dataclass
class Outcome:
    """What one run measured: metrics, operations attempted, what failed,
    and human-readable notes (each metric under the name the workload's
    users know it by, with sample counts)."""

    metrics: Dict[str, float]
    attempted: int
    failures: List[str]
    notes: List[str]


def _seed_of(seed: int, workload: str, index: int) -> int:
    """A per-instance generator seed derived from the run seed."""
    return int(derive_rng(seed, workload, index).integers(0, 2**31 - 1))


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus the largest reaped child
    (a pool worker on sharded-batch), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _reap_children() -> None:
    """Wait for every child process this run started."""
    for child in multiprocessing.active_children():
        child.join(timeout=10.0)


def _stop_resource_tracker() -> None:
    """Stop, and wait for, the helper process that shared memory and
    spawned pools start; otherwise it outlives the run."""
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


class Timing:
    """Wall times of one run's operations and set-ups, from their
    (start, end) pairs, and the same times scaled to the reference host
    by the calibration samples taken nearest to each (see
    :mod:`perfbench.calibrate`)."""

    def __init__(self, ops, setup, calibrator: Calibrator):
        seconds = np.array([end - start for start, end in ops])
        setup_s = np.array([end - start for start, end in setup])
        op_factor = calibrator.factors([start for start, _ in ops])
        setup_factor = calibrator.factors([start for start, _ in setup])
        scaled = seconds * op_factor
        self.setup_s = float(np.median(setup_s))
        self.p50 = float(np.percentile(seconds, 50))
        self.p90 = float(np.percentile(seconds, 90))
        self.busy = float(seconds.sum())
        self.scaled_setup_s = float(np.median(setup_s * setup_factor))
        self.scaled_p50 = float(np.percentile(scaled, 50))
        self.factor = float(np.median(op_factor))
        self.samples = len(calibrator.samples)

    def end_to_end(self, cost: float, best: float, rss: float) -> Dict[str, float]:
        """The BENCHMARK.json end-to-end metrics of one run."""
        return {
            "setup_s": self.scaled_setup_s,
            "ref_latency_ms.p50": self.scaled_p50 * 1e3,
            "cost_ratio": cost / best,
            "peak_rss_mb": rss,
        }

    def notes(self, unit: str, scale: float) -> List[str]:
        """The wall-clock figures the scaled metrics came from."""
        return [
            f"host factor = {self.factor:.4f} (median over operations; "
            f"{self.samples} reference samples; scaled = wall x factor)",
            f"wall latency p50 = {self.p50 * scale:.4g} {unit}, "
            f"wall setup = {self.setup_s:.4g} s",
        ]


# ----------------------------------------------------------------------
# tracing: the layer entry points, wrapped from outside
# ----------------------------------------------------------------------
def install_spans(tracer: Tracer, tally: LayerTally) -> None:
    """Record a span around each public layer entry point the workloads
    reach, and collect the statistics of every session assign into
    ``tally``.  ``plan_shards``/``route_nearest`` are patched in both
    modules that call them, since each holds its own reference."""
    tracer.wrap(IndexBackend, "build", "rtree.build")
    tracer.wrap(IndexBackend, "grouped_ann", "rtree.ann")
    tracer.wrap(CCAProblem, "tree_insert", "rtree.insert")
    tracer.wrap(CCAProblem, "tree_delete", "rtree.delete")
    tracer.wrap(ArrayDijkstraState, "run", "flow.dijkstra")
    tracer.wrap(ArrayFlowNetwork, "add_edge", "flow.insert")
    tracer.wrap(ArrayFlowNetwork, "add_edges", "flow.insert")
    tracer.wrap(ArrayFlowNetwork, "augment_with_state", "flow.augment")
    tracer.wrap(
        Matcher, "assign", "session.assign", lambda m: tally.local.append(m.stats)
    )
    for module in (shard_module, serve_module):
        tracer.wrap(module, "plan_shards", "shard.plan")
        tracer.wrap(module, "route_nearest", "shard.route")
    tracer.wrap(OnlineAssignmentService, "apply", "serve.apply")
    tracer.wrap(OnlineAssignmentService, "reconcile", "serve.reconcile")


@dataclass
class LayerTally:
    """Solver statistics seen during a traced pass, split by where the
    solve ran: in this process, or in a pool worker (which returns only
    its per-shard summary)."""

    local: List[SolverStats] = field(default_factory=list)
    worker_stage_s: Dict[str, float] = field(default_factory=dict)
    worker_other_s: float = 0.0
    worker_runs: int = 0
    worker_nn: int = 0
    worker_esub: int = 0
    worker_faults: int = 0
    shard_s: Dict[str, float] = field(default_factory=dict)
    worker_busy_s: float = 0.0
    workers: int = 0
    reconcile_moves: int = 0
    reconcile_attempted: int = 0
    retries: int = 0
    requeues: int = 0
    timeouts: int = 0

    def add_sharded(self, stats: SolverStats) -> None:
        extra = stats.extra
        for part in extra["per_shard"]:
            self.worker_busy_s += part["cpu_s"]
            self.worker_faults += part["io_faults"]
        for stage, seconds in stats.stage_s.items():
            self.worker_stage_s[stage] = self.worker_stage_s.get(stage, 0.0) + seconds
        busy = sum(part["cpu_s"] for part in extra["per_shard"])
        self.worker_other_s += max(0.0, busy - sum(stats.stage_s.values()))
        self.worker_runs += stats.dijkstra_runs
        self.worker_nn += stats.nn_requests
        self.worker_esub += stats.esub_edges
        for key in ("plan_s", "route_s", "solve_s", "reconcile_s"):
            self.shard_s[key] = self.shard_s.get(key, 0.0) + extra[key]
        self.workers = int(extra["workers"])
        self.reconcile_moves += int(extra["reconcile_moves"])
        self.reconcile_attempted += int(extra["reconcile_attempted"])
        ledger = stats.faults
        if ledger is not None:
            self.retries += ledger.retries
            self.requeues += ledger.requeues
            self.timeouts += ledger.timeouts


def layer_metrics(
    tracer: Tracer,
    tally: LayerTally,
    serve: Optional[Dict[str, float]],
    overhead_s: float,
) -> Dict[str, float]:
    """Every per-layer metric of BENCHMARK.json from one traced pass.

    Times are span self times in this process plus, for pool workers,
    the stage times their per-shard results return.  Counters are sums
    over the solver statistics the pass produced.  A layer the workload
    never reaches reads 0.
    """
    own = tracer.self_times()
    local = tally.local

    def stage(name: str) -> float:
        return sum(s.stage_s.get(name, 0.0) for s in local)

    def worker(name: str) -> float:
        return tally.worker_stage_s.get(name, 0.0)

    runs = sum(s.dijkstra_runs for s in local)
    invalid = sum(s.invalid_paths for s in local)
    pops = sum(s.dijkstra_pops for s in local)
    shard_solve_s = tally.shard_s.get("solve_s", 0.0)
    serve = serve or {}
    metrics = {
        "datagen.generate_s": own.get("datagen.generate", 0.0),
        "rtree.build_s": own.get("rtree.build", 0.0),
        "rtree.supply_s": stage("supply") + worker("supply"),
        "rtree.update_s": own.get("rtree.insert", 0.0) + own.get("rtree.delete", 0.0),
        "rtree.nn_requests": sum(s.nn_requests for s in local) + tally.worker_nn,
        "rtree.range_searches": sum(s.range_searches for s in local),
        "storage.page_faults": sum(s.io.faults for s in local) + tally.worker_faults,
        "flow.dijkstra_s": own.get("flow.dijkstra", 0.0) + worker("dijkstra"),
        "flow.augment_s": own.get("flow.augment", 0.0) + worker("augment"),
        "flow.insert_s": own.get("flow.insert", 0.0) + worker("insert"),
        "flow.dijkstra_runs": runs + tally.worker_runs,
        "flow.dijkstra_pops": pops,
        "flow.pops_per_run": pops / runs if runs else 0.0,
        "flow.edges_inserted": sum(s.edges_inserted for s in local),
        "flow.esub_edges": sum(s.esub_edges for s in local) + tally.worker_esub,
        "flow.valid_path_ratio": runs / (runs + invalid) if runs else 0.0,
        "core.other_s": sum(s.stage_other_s for s in local) + tally.worker_other_s,
        "core.fast_path_augments": sum(s.fast_path_augments for s in local),
        "session.assign_s": own.get("session.assign", 0.0),
        "session.assigns": serve.get("assigns", 0),
        "session.warm_rate": serve.get("warm_rate", 0.0),
        "session.hazard_colds": serve.get("hazard_colds", 0),
        "session.repair_fallbacks": serve.get("repair_fallbacks", 0),
        "shard.plan_s": own.get("shard.plan", 0.0),
        "shard.route_s": own.get("shard.route", 0.0),
        "shard.solve_s": shard_solve_s,
        "shard.reconcile_s": tally.shard_s.get("reconcile_s", 0.0),
        "shard.worker_busy_s": tally.worker_busy_s,
        "shard.parallel_efficiency": (
            tally.worker_busy_s / (shard_solve_s * tally.workers)
            if shard_solve_s and tally.workers
            else 0.0
        ),
        "shard.reconcile_moves": tally.reconcile_moves,
        "shard.reconcile_yield": (
            tally.reconcile_moves / tally.reconcile_attempted
            if tally.reconcile_attempted
            else 0.0
        ),
        "supervisor.retries": tally.retries,
        "supervisor.requeues": tally.requeues,
        "supervisor.timeouts": tally.timeouts,
        "serve.apply_s": own.get("serve.apply", 0.0),
        "serve.reconcile_s": own.get("serve.reconcile", 0.0),
        "serve.reconcile_passes": serve.get("reconcile_passes", 0),
        "serve.reconcile_moves": serve.get("reconcile_moves", 0),
        "serve.rejected": serve.get("rejected", 0),
        "trace.overhead_s": overhead_s,
        "trace.spans": len(tracer),
    }
    return {name: float(value) for name, value in metrics.items()}


# ----------------------------------------------------------------------
# batch workloads
# ----------------------------------------------------------------------
@dataclass
class Solved:
    """One instance solve: its result and its exact work counters."""

    matching: Matching
    counters: Tuple
    span: Tuple[float, float]  # perf_counter at start and end


def _counters(matching: Matching) -> Tuple:
    """Work counters (and the matching) that must repeat exactly for one
    input."""
    s = matching.stats
    extra = s.extra
    shards = tuple(
        (p["shard"], p["gamma"], p["esub"], p["io_faults"])
        for p in extra.get("per_shard", ())
    )
    return (
        s.gamma,
        s.esub_edges,
        s.dijkstra_runs,
        s.dijkstra_pops,
        s.invalid_paths,
        s.fast_path_augments,
        s.edges_inserted,
        s.nn_requests,
        s.range_searches,
        s.io.faults,
        extra.get("reconcile_moves"),
        extra.get("reconcile_attempted"),
        shards,
        tuple(sorted(matching.pairs)),
    )


class Run:
    """One run of one workload: its inputs' shape, its seed, and the
    failures and spans it collects."""

    def __init__(self, name: str, shape, seed: int):
        self.name = name
        self.shape = shape
        self.seed = seed
        self.failures: List[str] = []
        self.trace: Optional[Tracer] = None


class BatchRun(Run):
    """exact-batch and sharded-batch: a seeded pool of instances, each
    solved from scratch, one at a time."""

    def set_up(
        self, tracer: Optional[Tracer] = None, calibrator: Optional[Calibrator] = None
    ):
        """Generate every instance and build its index; returns the
        instances and the set-up span of each.  A calibrator is sampled
        before each instance, outside its span."""
        shape = self.shape
        instances, spans = [], []
        for i in range(shape.instances):
            if calibrator:
                calibrator.sample()
            started = time.perf_counter()
            span = tracer.begin("datagen.generate") if tracer else 0
            problem = make_problem(
                shape.nq, shape.np_, k=shape.k, seed=_seed_of(self.seed, "batch", i)
            )
            if tracer:
                tracer.end(span)
            problem.rtree(index_backend=INDEX_BACKEND)
            instances.append(problem)
            spans.append((started, time.perf_counter()))
        return instances, spans

    def solve_one(self, problem: CCAProblem) -> Matching:
        shape = self.shape
        if shape.shards > 1:
            return solve(
                problem,
                "ida",
                backend=FLOW_BACKEND,
                index_backend=INDEX_BACKEND,
                shards=shape.shards,
                workers=shape.workers,
            )
        return solve(problem, "ida", backend=FLOW_BACKEND, index_backend=INDEX_BACKEND)

    def attempt(self, problem: CCAProblem, label: str) -> Optional[Solved]:
        started = time.perf_counter()
        try:
            matching = self.solve_one(problem)
        # A solver exception is a measured failure, not a crash of the
        # benchmark: record it and keep the run going.
        except Exception:
            self.failures.append(f"{label}: {traceback.format_exc(limit=3)}")
            return None
        ended = time.perf_counter()
        ledger = matching.stats.faults
        if ledger is not None and (
            ledger.retries or ledger.requeues or ledger.timeouts
        ):
            self.failures.append(f"{label}: supervisor ledger {ledger.summary()}")
        return Solved(matching, _counters(matching), (started, ended))

    def warm_up(self, instances) -> None:
        """One untimed solve, so lazy imports, first-touch allocations and
        the first pool start are not charged to the measured solves."""
        self.attempt(instances[0], "warm-up")

    def one_pass(self, instances, tracer=None, tally=None) -> Dict[int, Solved]:
        done: Dict[int, Solved] = {}
        for i, problem in enumerate(instances):
            if tracer:
                tracer.op = i
                span = tracer.begin("op.solve")
            solved = self.attempt(problem, f"instance {i}")
            if tracer:
                tracer.end(span)
            if solved is None:
                continue
            done[i] = solved
            if tally is not None:
                if self.shape.shards > 1:
                    tally.add_sharded(solved.matching.stats)
                else:
                    tally.local.append(solved.matching.stats)
        return done

    def check(self, instances, solved: Dict[int, Solved]) -> Tuple[float, float]:
        """Oracle-check one result per instance; returns (Σ cost, Σ opt)."""
        order = sorted(solved)
        optima = oracle.optima([instances[i] for i in order])
        total = best_total = 0.0
        for i, (best, gamma) in zip(order, optima, strict=True):
            matching = solved[i].matching
            failure = oracle.check(
                matching, instances[i], best, gamma, exact=self.shape.shards == 1
            )
            if failure:
                self.failures.append(f"instance {i}: {failure}")
            total += matching.cost
            best_total += best
        return total, best_total

    def run(self, seconds: float) -> Outcome:
        calibrator = Calibrator()
        instances, setup = self.set_up(calibrator=calibrator)
        self.warm_up(instances)
        first: Dict[int, Solved] = {}
        ops: List[Tuple[float, float]] = []
        units = attempted = 0
        n = len(instances)
        deadline = time.perf_counter() + seconds
        # Cycle through the pool until the time is up, at least once
        # round; a repeated instance must reproduce its counters exactly.
        while attempted < n or time.perf_counter() < deadline:
            i = attempted % n
            attempted += 1
            calibrator.sample()
            solved = self.attempt(instances[i], f"instance {i}")
            if solved is None:
                continue
            ops.append(solved.span)
            units += solved.matching.size
            if i not in first:
                first[i] = solved
            elif solved.counters != first[i].counters:
                self.failures.append(f"instance {i}: counters differ on repeat")
        rss = peak_rss_mb()
        cost, best = self.check(instances, first)
        timing = Timing(ops, setup, calibrator)
        metrics = timing.end_to_end(cost, best, rss)
        notes = timing.notes("s", 1.0) + [
            f"solve_s.p50 = {timing.p50:.4f} s, solve_s.p90 = {timing.p90:.4f} s "
            f"over {len(ops)} solves of {n} instances",
            f"units_per_s = {units / timing.busy:.1f} /s (sum gamma {units} over "
            f"{timing.busy:.2f} s of solve wall time)",
            f"cost_gap = {cost / best - 1:.3e} (sum of costs over sum of optima)",
            f"setup_s = median host-scaled time over {n} instances of generation "
            "plus index build",
            "solve_s figures and units_per_s are wall-clock, not scaled",
        ]
        return Outcome(metrics, attempted, self.failures, notes)

    def run_traced(self) -> Outcome:
        instances, _ = self.set_up()
        self.warm_up(instances)
        started = time.perf_counter()
        plain = self.one_pass(instances)
        plain_s = time.perf_counter() - started

        tracer = Tracer()
        tally = LayerTally()
        install_spans(tracer, tally)
        try:
            traced_instances, _ = self.set_up(tracer)
            started = time.perf_counter()
            traced = self.one_pass(traced_instances, tracer, tally)
            traced_s = time.perf_counter() - started
        finally:
            tracer.unwrap_all()
        for i in sorted(plain):
            if i not in traced or traced[i].counters != plain[i].counters:
                self.failures.append(f"instance {i}: traced counters differ")
        self.check(traced_instances, traced)
        self.trace = tracer
        metrics = layer_metrics(tracer, tally, None, traced_s - plain_s)
        notes = [
            f"untraced pass {plain_s:.3f} s, traced pass {traced_s:.3f} s, "
            f"{len(tracer)} spans over {len(instances)} instances",
        ]
        attempted = 2 * len(instances)
        return Outcome(metrics, attempted, self.failures, notes)


# ----------------------------------------------------------------------
# serve-stream
# ----------------------------------------------------------------------
# serve-stream groups take milliseconds; the reference workload runs
# before every few of them, so it tracks the host without dominating.
CALIBRATE_EVERY = 4


class StreamRun(Run):
    """serve-stream: seeded event streams, each through its own service."""

    def set_up_one(self, i: int, tracer: Optional[Tracer] = None):
        """Generate stream ``i``'s instance and events and start its
        service (one cold solve per shard)."""
        shape = self.shape
        seed = _seed_of(self.seed, self.name, i)
        span = tracer.begin("datagen.generate") if tracer else 0
        problem = make_problem(shape.nq, shape.np_, k=shape.k, seed=seed)
        spec = EventStreamSpec(n_events=shape.events, profile="steady")
        groups = group_events(generate_events(problem, spec, seed=seed), shape.window)
        if tracer:
            tracer.end(span)
        service = OnlineAssignmentService(
            problem,
            shards=shape.shards,
            backend=FLOW_BACKEND,
            index_backend=INDEX_BACKEND,
        )
        return service, groups

    def set_up(
        self, tracer: Optional[Tracer] = None, calibrator: Optional[Calibrator] = None
    ):
        """Every stream, set up; returns the (service, groups) pairs and
        the set-up span of each.  A calibrator is sampled before each
        stream, outside its span."""
        streams, spans = [], []
        for i in range(self.shape.streams):
            if calibrator:
                calibrator.sample()
            started = time.perf_counter()
            streams.append(self.set_up_one(i, tracer))
            spans.append((started, time.perf_counter()))
        return streams, spans

    def replay(self, service, groups, ops, tracer=None, calibrator=None) -> Tuple:
        """Apply one stream's groups in order, appending each group's
        (start, end) to ``ops``; returns the counters that must repeat
        exactly.  A calibrator is sampled before every
        ``CALIBRATE_EVERY``-th group, outside the group's time."""
        for g, group in enumerate(groups):
            if calibrator and g % CALIBRATE_EVERY == 0:
                calibrator.sample()
            if tracer:
                tracer.op = len(ops)
                span = tracer.begin("op.group")
            started = time.perf_counter()
            result = service.apply(group)
            ops.append((started, time.perf_counter()))
            if tracer:
                tracer.end(span)
            for outcome in result.outcomes:
                if not outcome.ok:
                    self.failures.append(
                        f"event {outcome.seq}: {outcome.kind} {outcome.detail}"
                    )
        s = service.stats
        return (
            s.events,
            s.groups,
            s.assigns,
            s.warm_assigns,
            s.hazard_colds,
            s.repair_fallbacks,
            s.reconcile_passes,
            s.reconcile_moves,
            s.reconcile_rebalanced,
            s.rejected,
            s.shed,
            s.timeouts,
            s.quarantines,
            tuple(sorted(service.live_pairs())),
        )

    def check(self, streams) -> Tuple[float, float, int]:
        """Oracle-check each stream's final state; returns (Σ cost, Σ opt,
        units left unmatched before the final reconcile pass).

        Between periodic reconcile passes a sharded service may leave an
        arrival stranded in a full shard while another shard has room, so
        the check runs after one last reconcile pass, which is what
        re-homes such customers."""
        finals = []
        stranded = 0
        for i, (service, _groups) in enumerate(streams):
            s = service.stats
            lost = s.rejected + s.shed + s.timeouts
            if lost:
                self.failures.append(f"stream {i}: {lost} events lost")
            final = service.final_problem()
            stranded += final.gamma - len(service.live_pairs())
            service.reconcile()
            finals.append(final)
        total = best_total = 0.0
        optima = oracle.optima(finals)
        for i, (service, _groups) in enumerate(streams):
            best, gamma = optima[i]
            matching = service.live_matching()
            failure = oracle.check(matching, finals[i], best, gamma, exact=False)
            if failure:
                self.failures.append(f"stream {i}: {failure}")
            total += matching.cost
            best_total += best
        return total, best_total, stranded

    def run(self, seconds: float) -> Outcome:
        calibrator = Calibrator()
        streams, setup = self.set_up(calibrator=calibrator)
        n = len(streams)
        ops: List[Tuple[float, float]] = []
        first: Dict[int, Tuple] = {}
        replayed = 0
        deadline = time.perf_counter() + seconds
        # Replay every stream once, then replay streams again on fresh
        # services while time remains; a repeat must reproduce the first
        # replay's counters exactly.
        while replayed < n or time.perf_counter() < deadline:
            i = replayed % n
            service, groups = streams[i] if replayed < n else self.set_up_one(i)
            replayed += 1
            counters = self.replay(service, groups, ops, calibrator=calibrator)
            if i not in first:
                first[i] = counters
            elif counters != first[i]:
                self.failures.append(f"stream {i}: counters differ on replay")
        events = sum(first[i % n][0] for i in range(replayed))
        rss = peak_rss_mb()
        cost, best, stranded = self.check(streams)
        timing = Timing(ops, setup, calibrator)
        metrics = timing.end_to_end(cost, best, rss)
        notes = timing.notes("ms", 1e3) + [
            f"group_ms.p50 = {timing.p50 * 1e3:.2f} ms, group_ms.p90 = "
            f"{timing.p90 * 1e3:.2f} ms over {len(ops)} groups ({replayed} "
            f"stream replays of {n} streams; closed loop, one client)",
            f"events_per_s = {events / timing.busy:.2f} /s ({events} events over "
            f"{timing.busy:.2f} s of group latency)",
            f"cost_gap = {cost / best - 1:.3e} (sum of costs over sum of optima, "
            f"after a final reconcile pass; {stranded} units were stranded "
            "before it)",
            f"setup_s = median host-scaled time over {n} streams of generation "
            "plus service start-up (one cold solve per shard)",
            "group_ms figures and events_per_s are wall-clock, not scaled",
        ]
        return Outcome(metrics, events, self.failures, notes)

    def run_traced(self) -> Outcome:
        streams, _ = self.set_up()
        started = time.perf_counter()
        plain = [self.replay(svc, groups, []) for svc, groups in streams]
        plain_s = time.perf_counter() - started

        tracer = Tracer()
        tally = LayerTally()
        install_spans(tracer, tally)
        ops: List[Tuple[float, float]] = []
        try:
            traced_streams, _ = self.set_up(tracer)
            started = time.perf_counter()
            traced = [
                self.replay(svc, groups, ops, tracer) for svc, groups in traced_streams
            ]
            traced_s = time.perf_counter() - started
        finally:
            tracer.unwrap_all()
        if traced != plain:
            self.failures.append("traced stream counters differ from untraced")
        serve = serve_counters(traced_streams)
        self.check(traced_streams)
        self.trace = tracer
        metrics = layer_metrics(tracer, tally, serve, traced_s - plain_s)
        notes = [
            f"untraced replay {plain_s:.3f} s, traced replay {traced_s:.3f} s, "
            f"{len(tracer)} spans over {len(ops)} groups",
        ]
        events = 2 * sum(c[0] for c in plain)
        return Outcome(metrics, events, self.failures, notes)


def serve_counters(streams) -> Dict[str, float]:
    """ServeStats counters summed over every stream's service."""
    keys = (
        "assigns",
        "warm_assigns",
        "hazard_colds",
        "repair_fallbacks",
        "reconcile_passes",
        "reconcile_moves",
        "rejected",
    )
    totals = {key: sum(getattr(s.stats, key) for s, _ in streams) for key in keys}
    assigns = totals["assigns"]
    totals["warm_rate"] = totals["warm_assigns"] / assigns if assigns else 0.0
    return totals


WORKLOADS = {
    "exact-batch": BatchRun,
    "sharded-batch": BatchRun,
    "serve-stream": StreamRun,
}


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, tiny: bool = False
) -> Tuple[Outcome, Optional[Tracer]]:
    """Run one workload; returns its outcome and, for a traced run, the
    tracer holding its spans."""
    shapes = TINY_SHAPES if tiny else SHAPES
    runner = WORKLOADS[name](name, shapes[name], seed)
    try:
        outcome = runner.run_traced() if trace else runner.run(seconds)
    finally:
        _reap_children()
        _stop_resource_tracker()
    for failure in outcome.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return outcome, runner.trace
