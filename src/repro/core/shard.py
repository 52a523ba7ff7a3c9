"""Sharded parallel assignment engine.

The δ-bounded decomposition that powers the paper's SA/CA approximations
is exactly the seam a multi-core solver needs: provider groups whose MBR
diagonal stays within δ can be bundled into *shards*, each shard solved
exactly and independently, and the pieces reconciled into one valid,
capacity-feasible assignment.  This module implements that pipeline:

1. **Planning** (:func:`plan_shards`) — partition the providers with the
   shared Hilbert-greedy grouping (:mod:`repro.partitioning`), then bundle
   contiguous groups into ``num_shards`` capacity-balanced shards.  Shards
   are always provider-disjoint.
2. **Routing** — assign every customer (unit) to a shard:

   * ``"nearest"`` — each customer follows its globally nearest provider.
     Cheap (vectorized NumPy) and exact on well-separated shardings; any
     over-subscribed shard simply leaves its surplus to the residual pass.
   * ``"concise"`` — SA's concise matching (Section 4.1) at the plan's δ:
     group representatives at capacity-weighted centroids are matched
     exactly against all customers and each customer unit follows its
     representative's shard.  Routed demand never exceeds shard capacity,
     and because per-shard exact solves can only improve on SA's per-group
     refinement, the final objective is provably ≤ serial SA at the same δ
     (hence within Theorem 3's Ψ(opt) + 2γδ family).
3. **Parallel solve** — every shard becomes a picklable :class:`ShardTask`
   solved in worker processes (``concurrent.futures.ProcessPoolExecutor``)
   with a per-shard flow-kernel backend; ``workers<=1`` solves inline.
   Coordinate columns, capacities, and routed weights travel through ONE
   ``multiprocessing.shared_memory`` segment (:mod:`repro.core.shm`):
   tasks pickle only scalars plus a :class:`~repro.core.shm.StoreHandle`,
   and workers rebuild zero-copy ``np.ndarray`` views — the per-task
   serialization cost no longer grows with |Q| + |P|.  The segment is
   unlinked in a ``finally``, so neither normal nor faulted exits leak.
4. **Reconciliation** — each worker ships its residual network back to the
   parent, which adopts it as a warm :class:`~repro.core.session.Matcher`
   (:meth:`~repro.core.session.Matcher.from_solved`).  A bounded
   improvement sweep then re-homes boundary customers: a customer matched
   at distance d whose nearest cross-shard provider sits closer is moved
   via session deltas (remove from its shard, add to the other) and both
   shards re-assign **warm** — the target shard's successive-shortest-path
   re-solve reroutes around saturated providers automatically.  Moves that
   fail to lower the global objective are reverted, so reconciliation
   never degrades the solution.
5. **Residual pass** — leftover demand (over-subscribed shards) is matched
   against leftover capacity by one exact solve, restoring maximality:
   the final matching always has exactly γ pairs and respects every
   capacity, which :meth:`~repro.core.matching.Matching.validate` asserts
   before the result is returned.

With ``shards=1`` the engine falls through to the plain serial solver and
is bit-identical to it.  On provider-disjoint, well-separated shardings
(every customer's optimal provider inside its own shard) the sharded
objective equals the serial optimum; ``benchmarks/bench_shard.py`` checks
that invariant on a separated-cluster workload in CI.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.faults import (
    FaultLedger,
    FaultPlan,
    attach_fault,
    poison_result,
    trigger,
)
from repro.core.ida import IDASolver
from repro.core.matching import Matching, SolverStats
from repro.core.nia import NIASolver
from repro.core.problem import CCAProblem
from repro.core.ria import RIASolver
from repro.core.session import Matcher
from repro.core.shm import SharedColumnStore, StoreHandle, attach
from repro.core.supervisor import RetryPolicy, run_supervised
from repro.experiments.config import PAPER_DEFAULTS, default_theta
from repro.flow.backend import DEFAULT_BACKEND, BackendLike, get_backend
from repro.partitioning import (
    balanced_bundles,
    capacity_weighted_centroid,
    hilbert_greedy_groups,
)
from repro.rtree.backend import IndexBackendLike, resolve_index_backend

ROUTERS = ("nearest", "concise")
SHARD_METHODS = ("ida", "nia", "ria")

# Customers are routed / re-homed in bounded-size coordinate chunks so the
# distance matrix never materializes at |P| x |Q|.
_CHUNK = 8192

_EPS = 1e-9


# ----------------------------------------------------------------------
# planning
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardSpec:
    """One shard: a capacity-balanced bundle of δ-bounded provider groups."""

    index: int
    provider_ids: Tuple[int, ...]
    capacity: int


@dataclass(frozen=True)
class ShardPlan:
    """A provider-disjoint decomposition of the instance.

    ``groups`` are the δ-bounded Hilbert groups (global provider ids) the
    shards were bundled from; ``group_to_shard[g]`` names the shard owning
    group ``g`` — the concise router needs both.
    """

    shards: List[ShardSpec]
    groups: List[List[int]]
    group_to_shard: List[int]
    delta: float
    shard_of_provider: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.shard_of_provider:
            for spec in self.shards:
                for pid in spec.provider_ids:
                    self.shard_of_provider[pid] = spec.index

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @classmethod
    def from_provider_lists(
        cls, provider_lists: Sequence[Sequence[int]], problem: CCAProblem
    ) -> "ShardPlan":
        """A hand-built plan (e.g. operator-defined districts): each inner
        list becomes one shard and one routing group."""
        shards = []
        for index, pids in enumerate(provider_lists):
            capacity = sum(problem.providers[i].capacity for i in pids)
            shards.append(ShardSpec(index, tuple(pids), capacity))
        groups = [list(pids) for pids in provider_lists]
        return cls(
            shards=shards,
            groups=groups,
            group_to_shard=list(range(len(groups))),
            delta=float("inf"),
        )


def plan_shards(
    problem: CCAProblem,
    num_shards: int,
    delta: Optional[float] = None,
) -> ShardPlan:
    """Partition the providers into ≤ ``num_shards`` provider-disjoint,
    capacity-balanced shards of δ-bounded Hilbert groups."""
    if num_shards < 1:
        raise ValueError("num_shards must be positive")
    if delta is None:
        delta = PAPER_DEFAULTS["sa_delta"]
    world = problem.world_mbr()
    point_groups = hilbert_greedy_groups(
        [q.point for q in problem.providers], delta, world.lo, world.hi
    )
    groups = [[p.pid for p in members] for members in point_groups]
    group_caps = [
        sum(problem.providers[i].capacity for i in members) for members in groups
    ]
    ranges = balanced_bundles(group_caps, num_shards)
    shards: List[ShardSpec] = []
    group_to_shard = [0] * len(groups)
    for index, (start, end) in enumerate(ranges):
        provider_ids: List[int] = []
        for g in range(start, end):
            provider_ids.extend(groups[g])
            group_to_shard[g] = index
        shards.append(
            ShardSpec(index, tuple(provider_ids), sum(group_caps[start:end]),)
        )
    return ShardPlan(
        shards=shards,
        groups=groups,
        group_to_shard=group_to_shard,
        delta=float(delta),
    )


# ----------------------------------------------------------------------
# routing
# ----------------------------------------------------------------------
def _provider_xy(problem: CCAProblem) -> np.ndarray:
    return np.array(
        [q.point.coords for q in problem.providers], dtype=float
    ).reshape(len(problem.providers), 2)


def _customer_xy(problem: CCAProblem) -> np.ndarray:
    return np.array(
        [p.point.coords for p in problem.customers], dtype=float
    ).reshape(len(problem.customers), 2)


def nearest_providers(problem: CCAProblem) -> Tuple[np.ndarray, np.ndarray]:
    """Per customer: (globally nearest provider id, its distance).

    Chunked NumPy broadcast — no SciPy dependency in the core package.
    """
    qxy = _provider_xy(problem)
    pxy = _customer_xy(problem)
    nearest = np.empty(len(pxy), dtype=np.int64)
    distance = np.empty(len(pxy), dtype=float)
    for start in range(0, len(pxy), _CHUNK):
        chunk = pxy[start : start + _CHUNK]
        d = np.hypot(
            chunk[:, None, 0] - qxy[None, :, 0],
            chunk[:, None, 1] - qxy[None, :, 1],
        )
        idx = np.argmin(d, axis=1)  # ties -> lowest provider id
        nearest[start : start + len(chunk)] = idx
        distance[start : start + len(chunk)] = d[np.arange(len(chunk)), idx]
    return nearest, distance


def route_nearest(problem: CCAProblem, plan: ShardPlan) -> List[Dict[int, int]]:
    """Each customer (with its full weight) follows its nearest provider's
    shard.  Over-subscription is allowed — the residual pass mops it up."""
    nearest, _ = nearest_providers(problem)
    routed: List[Dict[int, int]] = [dict() for _ in plan.shards]
    for j, customer in enumerate(problem.customers):
        if customer.weight <= 0:
            continue
        shard = plan.shard_of_provider[int(nearest[j])]
        routed[shard][j] = customer.weight
    return routed


def route_concise(
    problem: CCAProblem,
    plan: ShardPlan,
    backend: BackendLike = DEFAULT_BACKEND,
    index_backend: Optional[IndexBackendLike] = None,
) -> List[Dict[int, int]]:
    """SA's concise matching as a capacity-respecting router.

    Every δ-group becomes a representative provider (capacity-weighted
    centroid, summed capacity) and the representative ↔ customer CCA is
    solved exactly; each matched customer unit then follows its
    representative's shard.  Routed demand per shard never exceeds shard
    capacity, so every routed unit is matched by the per-shard solves.
    """
    from repro.core.problem import Provider
    from repro.geometry.point import Point

    representatives = []
    for rep_id, members in enumerate(plan.groups):
        points = [problem.providers[i].point for i in members]
        capacities = [problem.providers[i].capacity for i in members]
        x, y = capacity_weighted_centroid(points, capacities)
        representatives.append(Provider(Point(rep_id, (x, y)), sum(capacities)))
    concise_problem = CCAProblem(
        representatives,
        problem.customers,
        page_size=problem.page_size,
        buffer_fraction=problem.buffer_fraction,
    )
    # attach_rtree adopts the shared tree's backend, so the concise
    # routing solve streams neighbors on the selected index kernel.
    concise_problem.attach_rtree(problem.rtree(index_backend=index_backend))
    solver = IDASolver(concise_problem, use_pua=True, cold_start=False, backend=backend)
    solver.solve()
    routed: List[Dict[int, int]] = [dict() for _ in plan.shards]
    for rep_id, customer_id, _, units in solver.net.matching_flows():
        shard = plan.group_to_shard[rep_id]
        bucket = routed[shard]
        bucket[customer_id] = bucket.get(customer_id, 0) + units
    return routed


# ----------------------------------------------------------------------
# per-shard tasks (picklable; solved in worker processes)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardTask:
    """Everything a worker needs to solve one shard.

    Deliberately column-free: coordinates, capacities, shard membership,
    and routed weights live in the shared segment behind ``store``, so a
    task pickles to a few hundred bytes regardless of instance size.
    """

    index: int
    method: str
    backend: str
    index_backend: str
    use_pua: bool
    ann_group_size: int
    use_fast_path: bool
    theta: Optional[float]
    page_size: int
    buffer_fraction: float
    need_net: bool
    store: Optional[StoreHandle] = None
    # Supervision extras: the coordinator-resolved fault schedule (tests
    # and chaos runs; None in production) and the retry attempt this
    # execution represents — both travel WITH the task so workers need
    # no ambient state.
    faults: Optional[FaultPlan] = None
    attempt: int = 0


class _TaskColumns(NamedTuple):
    """One shard's slice of the shared columns (safe, owned copies)."""

    provider_ids: np.ndarray
    provider_xy: np.ndarray
    capacities: np.ndarray
    customer_ids: np.ndarray
    customer_xy: np.ndarray
    customer_weights: np.ndarray


def _task_columns(task: ShardTask) -> _TaskColumns:
    """Materialize the shard's columns from the shared segment.

    ``attach`` is a cached zero-copy mapping; the per-shard subsets are
    explicit copies (fancy indexing copies, slices are ``.copy()``-ed)
    because problems and warm sessions built from them must stay valid
    after the segment is unlinked.
    """
    cols = attach(task.store)
    s = task.index
    qid = cols["qid"][cols["qptr"][s] : cols["qptr"][s + 1]]
    pid = cols["pid"][cols["pptr"][s] : cols["pptr"][s + 1]]
    pw = cols["pw"][cols["pptr"][s] : cols["pptr"][s + 1]]
    return _TaskColumns(
        provider_ids=qid.copy(),
        provider_xy=cols["q_xy"][qid],
        capacities=cols["q_cap"][qid],
        customer_ids=pid.copy(),
        customer_xy=cols["p_xy"][pid],
        customer_weights=pw.copy(),
    )


@dataclass
class ShardResult:
    """A worker's answer: global-id pairs plus bookkeeping."""

    index: int
    pairs: List[Tuple[int, int, float]]
    cpu_s: float
    esub_edges: int
    dijkstra_runs: int
    nn_requests: int
    io_faults: int
    gamma: int
    net: Optional[object] = None
    # Per-stage pipeline wall times of the shard's solve (summed across
    # shards into the top-level SolverStats.stage_s — sharded runs keep
    # the `repro-cca profile` surface).
    stage_s: Dict[str, float] = field(default_factory=dict)


def _task_problem(task: ShardTask, cols: Optional[_TaskColumns] = None) -> CCAProblem:
    if cols is None:
        cols = _task_columns(task)
    return CCAProblem.from_arrays(
        cols.provider_xy,
        cols.capacities,
        cols.customer_xy,
        customer_weights=cols.customer_weights,
        page_size=task.page_size,
        buffer_fraction=task.buffer_fraction,
    )


def _build_solver(problem: CCAProblem, task: ShardTask):
    if task.method == "ida":
        return IDASolver(
            problem,
            use_pua=task.use_pua,
            ann_group_size=task.ann_group_size,
            use_fast_path=task.use_fast_path,
            backend=task.backend,
            index_backend=task.index_backend,
        )
    if task.method == "nia":
        return NIASolver(
            problem,
            use_pua=task.use_pua,
            ann_group_size=task.ann_group_size,
            backend=task.backend,
            index_backend=task.index_backend,
        )
    if task.method == "ria":
        theta = task.theta
        if theta is None:
            theta = default_theta(max(1, len(problem.customers)))
        return RIASolver(
            problem,
            theta=theta,
            backend=task.backend,
            index_backend=task.index_backend,
        )
    raise ValueError(
        f"unknown shard method {task.method!r}; expected one of " f"{SHARD_METHODS}"
    )


def solve_shard_task(task: ShardTask) -> ShardResult:
    """Solve one shard to optimality (runs inside a worker process)."""
    where = f"shard {task.index}, attempt {task.attempt}"
    poison = attach_spec = None
    if task.faults is not None:
        spec = task.faults.match("worker", task.index, task.attempt)
        if spec is not None:
            if spec.kind == "poison":
                poison = spec  # corrupt the result after solving
            else:
                trigger(spec, where=where)
        attach_spec = task.faults.match("attach", task.index, task.attempt)
    with attach_fault(attach_spec, where=where):
        cols = _task_columns(task)
    if cols.customer_ids.size == 0 or int(cols.capacities.sum()) == 0:
        # Nothing to solve (γ = 0) — but the shard still wants a
        # (trivially solved) network of the right shape so the
        # reconciliation pass can adopt it as a warm session and move
        # boundary customers into any unused capacity.
        net = None
        if task.need_net and cols.capacities.size:
            net = get_backend(task.backend).network(
                cols.capacities.tolist(), cols.customer_weights.tolist()
            )
        result = ShardResult(task.index, [], 0.0, 0, 0, 0, 0, 0, net=net)
        return poison_result(result) if poison is not None else result
    problem = _task_problem(task, cols)
    solver = _build_solver(problem, task)
    matching = solver.solve()
    pids = cols.provider_ids
    cids = cols.customer_ids
    pairs = [(int(pids[i]), int(cids[j]), d) for i, j, d in matching.pairs]
    stats = solver.stats
    result = ShardResult(
        index=task.index,
        pairs=pairs,
        cpu_s=stats.cpu_s,
        esub_edges=stats.esub_edges,
        dijkstra_runs=stats.dijkstra_runs,
        nn_requests=stats.nn_requests,
        io_faults=stats.io.faults,
        gamma=stats.gamma,
        net=solver.net if task.need_net else None,
        stage_s=dict(stats.stage_s),
    )
    return poison_result(result) if poison is not None else result


def _make_tasks(
    problem: CCAProblem,
    plan: ShardPlan,
    routed: List[Dict[int, int]],
    method: str,
    backend_names: List[str],
    index_backend_name: str,
    use_pua: bool,
    ann_group_size: int,
    use_fast_path: bool,
    theta: Optional[float],
    need_net: bool,
) -> Tuple[List[ShardTask], SharedColumnStore]:
    """Pack the instance columns into one shared segment + slim tasks.

    The caller owns the returned store and must ``close_and_unlink`` it
    (in a ``finally``) once the results — and any reconciliation built on
    them — are in hand.
    """
    qid_parts: List[np.ndarray] = []
    pid_parts: List[np.ndarray] = []
    pw_parts: List[np.ndarray] = []
    qptr = [0]
    pptr = [0]
    for spec in plan.shards:
        qid_parts.append(np.asarray(spec.provider_ids, dtype=np.int64))
        qptr.append(qptr[-1] + len(spec.provider_ids))
        bucket = routed[spec.index]
        customer_ids = sorted(bucket)
        pid_parts.append(np.asarray(customer_ids, dtype=np.int64))
        pw_parts.append(np.asarray([bucket[j] for j in customer_ids], dtype=np.int64))
        pptr.append(pptr[-1] + len(customer_ids))
    store = SharedColumnStore(
        {
            "q_xy": _provider_xy(problem),
            "q_cap": np.asarray(
                [q.capacity for q in problem.providers], dtype=np.int64
            ),
            "p_xy": _customer_xy(problem),
            "qid": np.concatenate(qid_parts),
            "qptr": np.asarray(qptr, dtype=np.int64),
            "pid": np.concatenate(pid_parts),
            "pw": np.concatenate(pw_parts),
            "pptr": np.asarray(pptr, dtype=np.int64),
        }
    )
    tasks = [
        ShardTask(
            index=spec.index,
            method=method,
            backend=backend_names[spec.index],
            index_backend=index_backend_name,
            use_pua=use_pua,
            ann_group_size=ann_group_size,
            use_fast_path=use_fast_path,
            theta=theta,
            page_size=problem.page_size,
            buffer_fraction=problem.buffer_fraction,
            need_net=need_net,
            store=store.handle,
        )
        for spec in plan.shards
    ]
    return tasks, store


def _requeue_cold(task: ShardTask) -> ShardResult:
    """Re-solve a given-up shard in the coordinator, fault-free.

    The per-shard solvers are deterministic, so this produces exactly the
    result a healthy worker would have returned — the supervisor's
    certify-or-fall-back guarantee rests on that.
    """
    return solve_shard_task(replace(task, faults=None, attempt=0))


def _verify_shard_result(task: ShardTask, result: ShardResult) -> Optional[str]:
    """Cheap coordinator-side plausibility certificate for a worker's
    answer; a lying (poisoned) result reads as a fault, not a matching.

    Returns an error string, or None when the result certifies: pair ids
    inside the shard's provider/routed-customer sets, stored distances
    matching the shared coordinate columns, per-provider/per-customer
    feasibility, and both the claimed γ and the pair count equal to the
    shard's true γ = min(Σ capacities, Σ routed weights) — so a worker
    that drops a pair cannot hide it by lowering its claim.
    """
    if result.index != task.index:
        return f"result for shard {result.index} answers task {task.index}"
    cols = _task_columns(task)
    gamma = min(int(cols.capacities.sum()), int(cols.customer_weights.sum()))
    if result.gamma != gamma:
        return f"claimed gamma {result.gamma} != shard gamma {gamma}"
    if len(result.pairs) != gamma:
        return f"{len(result.pairs)} pairs != shard gamma {gamma}"
    providers = {int(i) for i in cols.provider_ids}
    capacity = {
        int(i): int(c) for i, c in zip(cols.provider_ids, cols.capacities, strict=False)
    }
    weight = {
        int(j): int(w)
        for j, w in zip(cols.customer_ids, cols.customer_weights, strict=False)
    }
    qxy = {
        int(i): xy for i, xy in zip(cols.provider_ids, cols.provider_xy, strict=False)
    }
    pxy = {
        int(j): xy for j, xy in zip(cols.customer_ids, cols.customer_xy, strict=False)
    }
    used: Dict[int, int] = {}
    served: Dict[int, int] = {}
    for i, j, d in result.pairs:
        if i not in providers:
            return f"pair provider {i} outside shard {task.index}"
        if j not in weight:
            return f"pair customer {j} not routed to shard {task.index}"
        actual = float(np.hypot(qxy[i][0] - pxy[j][0], qxy[i][1] - pxy[j][1]))
        if abs(actual - d) > 1e-6:
            return (f"pair ({i},{j}) distance {d!r} != actual {actual!r}")
        used[i] = used.get(i, 0) + 1
        served[j] = served.get(j, 0) + 1
        if used[i] > capacity[i]:
            return f"provider {i} over capacity {capacity[i]}"
        if served[j] > weight[j]:
            return f"customer {j} over weight {weight[j]}"
    return None


def _run_tasks(
    tasks: List[ShardTask],
    workers: Optional[int],
    mp_context=None,
    policy: Optional[RetryPolicy] = None,
    ledger: Optional[FaultLedger] = None,
) -> List[ShardResult]:
    return run_supervised(
        tasks,
        solve=solve_shard_task,
        fallback=_requeue_cold,
        verify=_verify_shard_result,
        workers=workers,
        mp_context=mp_context,
        policy=policy,
        ledger=ledger,
    )


# ----------------------------------------------------------------------
# reconciliation
# ----------------------------------------------------------------------
def _reconcile_boundaries(
    problem: CCAProblem,
    plan: ShardPlan,
    tasks: List[ShardTask],
    results: List[ShardResult],
    max_moves: int,
    patience: int,
) -> Tuple[List[Tuple[int, int, float]], int, int, int]:
    """Bounded cross-shard improvement via warm Matcher sessions.

    Candidates are matched unit-weight customers whose nearest cross-shard
    provider is strictly closer than their assigned provider.  A move
    removes the customer from its shard's session, adds it to the target
    shard's session, and warm re-assigns both; the target's SSP re-solve
    reroutes internally when the closer provider is saturated.  Moves that
    do not lower the combined objective are reverted, so this pass is
    monotone non-increasing in cost and preserves matching size exactly.

    Candidates are computed *first* (cheap vectorized NumPy) and warm
    sessions are built lazily, only for shards a candidate actually
    touches: adopting a session rebuilds the shard problem and its
    R-tree, which used to dominate the pass on well-separated instances
    with nothing to move (the |Q|=250 bench point paid 0.19s of session
    builds against a 0.16s solve for zero accepted moves).  Shards with
    no session contribute their worker pairs unchanged, which is exactly
    what the eager version produced for them — the accept/reject
    decisions are unchanged because the batch test compares cost *deltas*
    and untouched sessions only ever contributed constants.

    Attempts stop after ``patience`` consecutive rejections (deterministic
    early exit): candidates are ordered by estimated gain, so a streak of
    failures means the remaining, lower-gain candidates are near-certain
    losers — and in the capacity-saturated regime each attempt may cost a
    cold shard re-solve, which is exactly when bailing out matters.

    Returns the merged global pairs, accepted move count, attempted
    count, and the number of sessions actually built.
    """
    has_net = {r.index for r in results if r.net is not None}
    columns: Dict[int, _TaskColumns] = {
        task.index: _task_columns(task) for task in tasks
    }

    # Current assignment of every matched unit-weight customer, the
    # routed-but-unmatched ones, and each shard's worst matched distance.
    assigned: Dict[int, Tuple[int, float]] = {}
    worst_matched: Dict[int, float] = {}
    for result in results:
        for i, j, d in result.pairs:
            if problem.customers[j].weight == 1:
                assigned[j] = (i, d)
            worst_matched[result.index] = max(worst_matched.get(result.index, 0.0), d)
    unmatched: Dict[int, int] = {}
    for task in tasks:
        if task.index not in has_net:
            continue
        for j in columns[task.index].customer_ids:
            j = int(j)
            if j not in assigned and problem.customers[j].weight == 1:
                unmatched[j] = task.index

    candidates = _move_candidates(
        problem, plan, assigned, unmatched, worst_matched, max_moves
    )

    needed = set()
    for j, target, _gain in candidates:
        if j in assigned:
            needed.add(plan.shard_of_provider[assigned[j][0]])
        else:
            needed.add(unmatched[j])
        needed.add(target)
    needed &= has_net

    sessions: Dict[int, Matcher] = {}
    local_to_global: Dict[int, List[int]] = {}
    global_to_local: Dict[int, Tuple[int, int]] = {}
    task_by_index = {task.index: task for task in tasks}
    result_by_index = {result.index: result for result in results}
    for index in sorted(needed):
        task = task_by_index[index]
        cols = columns[index]
        sessions[index] = Matcher.from_solved(
            _task_problem(task, cols),
            result_by_index[index].net,
            backend=task.backend,
            index_backend=task.index_backend,
        )
        ids = [int(j) for j in cols.customer_ids]
        local_to_global[index] = list(ids)
        for local_j, global_j in enumerate(ids):
            global_to_local[global_j] = (index, local_j)

    mover = _SessionMover(problem, sessions, local_to_global, global_to_local, assigned)
    moves, attempted = mover.run(candidates, patience)

    pairs: List[Tuple[int, int, float]] = []
    for index in sorted(sessions):
        pids = columns[index].provider_ids
        mapping = local_to_global[index]
        for i_local, j_local, d in sessions[index].current_pairs():
            pairs.append((int(pids[i_local]), mapping[j_local], d))
    # Shards without a session (no candidate touched them, or skipped
    # empties) contribute their worker pairs unchanged.
    for result in results:
        if result.index not in sessions:
            pairs.extend(result.pairs)
    return pairs, moves, attempted, len(sessions)


class _SessionMover:
    """Executes candidate moves against the per-shard warm sessions.

    Strategy: apply *all* candidates as one delta batch and re-assign
    every touched session once (two warm re-solves per shard instead of
    two per move).  Keep the batch iff it lowers the combined objective
    without changing the matched count; otherwise revert it wholesale and
    retry the top candidates one at a time (with the ``patience``
    early-exit), which salvages the good moves a bad batch member hid.
    Either way the pass is monotone non-increasing in cost and preserves
    the matching size exactly.
    """

    def __init__(self, problem, sessions, local_to_global, global_to_local, assigned):
        self.problem = problem
        self.sessions = sessions
        self.local_to_global = local_to_global
        self.global_to_local = global_to_local
        self.assigned = assigned

    # -- session-state helpers -----------------------------------------
    def _totals(self) -> Tuple[float, int]:
        cost = sum(m.net.matching_cost() for m in self.sessions.values())
        matched = sum(m.net.matched for m in self.sessions.values())
        return cost, matched

    def _viable(self, j: int, source, target) -> bool:
        """Can this move preserve the matching size?

        A *matched* unit stays matched iff the target has spare capacity
        or the source is over-subscribed (its γ stays at capacity after
        the removal while the saturated target may swap its worst unit
        out for the arrival).  An *unmatched* customer only helps when
        the saturated target swaps for it — targets with spare capacity
        are the residual pass's job (matching there would grow |M|,
        which the cost-only accept test cannot credit).
        """
        target_spare = target.net.spare_capacity() > 0
        if j in self.assigned:
            source_surplus = (sum(source.net.p_cap) - source.net.matched >= 1)
            return target_spare or source_surplus
        return not target_spare

    def _apply(self, j: int, target_shard: int):
        """Move j's delta to the target session; returns an undo token."""
        source_shard, local_j = self.global_to_local[j]
        source = self.sessions[source_shard]
        target = self.sessions[target_shard]
        xy = self.problem.customers[j].point.coords
        source.remove_customer(local_j)
        new_local = target.add_customer(xy)
        # Every add_customer call extends the session's customer list,
        # so the local->global map must grow in lockstep — even for
        # adds that a revert immediately tombstones.
        self.local_to_global[target_shard].append(j)
        self.global_to_local[j] = (target_shard, new_local)
        return (j, source_shard, target_shard, new_local, xy)

    def _undo(self, token) -> None:
        j, source_shard, target_shard, new_local, xy = token
        self.sessions[target_shard].remove_customer(new_local)
        back_local = self.sessions[source_shard].add_customer(xy)
        self.local_to_global[source_shard].append(j)
        self.global_to_local[j] = (source_shard, back_local)

    def _assign(self, shard_indices) -> None:
        for index in sorted(shard_indices):
            self.sessions[index].assign()

    # -- strategies ----------------------------------------------------
    def run(self, candidates, patience: int) -> Tuple[int, int]:
        candidates = [
            (j, target, gain)
            for j, target, gain in candidates
            if self._filter(j, target)
        ]
        if not candidates:
            return 0, 0
        accepted = self._batch(candidates)
        if accepted:
            return len(candidates), 1
        if len(candidates) == 1:
            return 0, 1  # the batch WAS the single per-move attempt
        moves, attempted = self._per_move(candidates, patience)
        return moves, attempted + 1

    def _filter(self, j: int, target_shard: int) -> bool:
        if j not in self.global_to_local:
            return False  # source shard has no session (net-less shard)
        source_shard, _ = self.global_to_local[j]
        if source_shard == target_shard:
            return False
        source = self.sessions.get(source_shard)
        target = self.sessions.get(target_shard)
        if source is None or target is None:
            return False
        return self._viable(j, source, target)

    def _batch(self, candidates) -> bool:
        before_cost, before_matched = self._totals()
        tokens = []
        touched = set()
        for j, target_shard, _ in candidates:
            source_shard, _local = self.global_to_local[j]
            tokens.append(self._apply(j, target_shard))
            touched.add(source_shard)
            touched.add(target_shard)
        self._assign(touched)
        after_cost, after_matched = self._totals()
        if (after_matched == before_matched and after_cost < before_cost - 1e-12):
            return True
        for token in reversed(tokens):
            self._undo(token)
        self._assign(touched)
        return False

    def _per_move(self, candidates, patience: int) -> Tuple[int, int]:
        moves = attempted = 0
        consecutive_rejects = 0
        for j, target_shard, _gain in candidates:
            if patience > 0 and consecutive_rejects >= patience:
                break
            if not self._filter(j, target_shard):
                continue
            attempted += 1
            source_shard, _local = self.global_to_local[j]
            before_cost, before_matched = self._totals()
            token = self._apply(j, target_shard)
            self._assign({source_shard, target_shard})
            after_cost, after_matched = self._totals()
            if (after_matched == before_matched and after_cost < before_cost - 1e-12):
                moves += 1
                consecutive_rejects = 0
            else:
                self._undo(token)
                self._assign({source_shard, target_shard})
                consecutive_rejects += 1
        return moves, attempted


def _move_candidates(
    problem: CCAProblem,
    plan: ShardPlan,
    assigned: Dict[int, Tuple[int, float]],
    unmatched: Dict[int, int],
    worst_matched: Dict[int, float],
    max_moves: int,
) -> List[Tuple[int, int, float]]:
    """Top-gain (customer, target shard, gain) triples, best first.

    Two candidate kinds:

    * a *matched* customer whose nearest cross-shard provider is closer
      than its assigned one (gain = distance saved by re-homing);
    * an *unmatched* customer that is closer to some other shard's
      providers than that shard's worst matched unit (gain = the swap's
      estimated saving — the target re-solve trades its worst unit out).
    """
    if max_moves <= 0 or not (assigned or unmatched):
        return []
    qxy = _provider_xy(problem)
    num_shards = plan.num_shards
    shard_of = np.array(
        [plan.shard_of_provider[i] for i in range(len(qxy))], dtype=np.int64
    )
    shard_cols = [np.flatnonzero(shard_of == s) for s in range(num_shards)]
    worst = np.array([worst_matched.get(s, 0.0) for s in range(num_shards)])

    matched_items = sorted(assigned.items())
    unmatched_items = sorted(unmatched.items())
    n_matched = len(matched_items)
    all_j = [j for j, _ in matched_items] + [j for j, _ in unmatched_items]
    pxy = np.array(
        [problem.customers[j].point.coords for j in all_j], dtype=float
    ).reshape(len(all_j), 2)
    source = np.array(
        [plan.shard_of_provider[i] for _, (i, _) in matched_items]
        + [s for _, s in unmatched_items],
        dtype=np.int64,
    )
    d_cur = np.array([d for _, (_, d) in matched_items])

    out: List[Tuple[int, int, float]] = []
    for start in range(0, len(all_j), _CHUNK):
        end = min(start + _CHUNK, len(all_j))
        chunk = pxy[start:end]
        d = np.hypot(
            chunk[:, None, 0] - qxy[None, :, 0],
            chunk[:, None, 1] - qxy[None, :, 1],
        )
        # Per-customer minimum distance into each shard's provider set.
        per_shard = np.full((len(chunk), num_shards), np.inf)
        for s, cols in enumerate(shard_cols):
            if len(cols):
                per_shard[:, s] = d[:, cols].min(axis=1)
        rows = np.arange(len(chunk))
        per_shard[rows, source[start:end]] = np.inf  # own shard excluded
        # Matched rows: gain = current distance − nearest foreign provider.
        m_rows = rows[start + rows < n_matched]
        if len(m_rows):
            best = np.argmin(per_shard[m_rows], axis=1)
            gains = d_cur[start + m_rows] - per_shard[m_rows, best]
            for row, shard, gain in zip(m_rows, best, gains, strict=False):
                if gain > _EPS:
                    out.append((all_j[start + row], int(shard), float(gain)))
        # Unmatched rows: gain = target's worst matched unit − entry cost
        # (shards with no matched pairs have worst 0 ⇒ never positive).
        u_rows = rows[start + rows >= n_matched]
        if len(u_rows):
            swap_gains = worst[None, :] - per_shard[u_rows]
            best = np.argmax(swap_gains, axis=1)
            gains = swap_gains[np.arange(len(u_rows)), best]
            for row, shard, gain in zip(u_rows, best, gains, strict=False):
                if gain > _EPS:
                    out.append((all_j[start + row], int(shard), float(gain)))
    out.sort(key=lambda item: (-item[2], item[0]))
    return out[:max_moves]


# ----------------------------------------------------------------------
# residual pass
# ----------------------------------------------------------------------
def _residual_pairs(
    problem: CCAProblem,
    pairs: List[Tuple[int, int, float]],
    backend: str,
    index_backend: str,
) -> Tuple[List[Tuple[int, int, float]], Dict[str, int]]:
    """Match leftover demand against leftover capacity (restores γ)."""
    used = [0] * len(problem.providers)
    matched = [0] * len(problem.customers)
    for i, j, _ in pairs:
        used[i] += 1
        matched[j] += 1
    spare_ids = [i for i, q in enumerate(problem.providers) if q.capacity - used[i] > 0]
    open_ids = [j for j, p in enumerate(problem.customers) if p.weight - matched[j] > 0]
    info = {"providers": len(spare_ids), "customers": len(open_ids)}
    if not spare_ids or not open_ids:
        info["matched"] = 0
        return [], info
    residual = CCAProblem.from_arrays(
        [problem.providers[i].point.coords for i in spare_ids],
        [problem.providers[i].capacity - used[i] for i in spare_ids],
        [problem.customers[j].point.coords for j in open_ids],
        customer_weights=[problem.customers[j].weight - matched[j] for j in open_ids],
        page_size=problem.page_size,
        buffer_fraction=problem.buffer_fraction,
    )
    solver = IDASolver(residual, backend=backend, index_backend=index_backend)
    matching = solver.solve()
    extra = [(spare_ids[i], open_ids[j], d) for i, j, d in matching.pairs]
    info["matched"] = len(extra)
    return extra, info


# ----------------------------------------------------------------------
# the engine façade
# ----------------------------------------------------------------------
def _backend_names(
    backend: Union[BackendLike, Sequence[BackendLike]], num_shards: int
) -> List[str]:
    """Normalize the per-shard backend selection to one name per shard."""
    if isinstance(backend, (list, tuple)):
        if len(backend) != num_shards:
            raise ValueError(
                f"per-shard backend list has {len(backend)} entries for "
                f"{num_shards} shards"
            )
        return [get_backend(b).name for b in backend]
    name = get_backend(backend).name
    return [name] * num_shards


def solve_sharded(
    problem: CCAProblem,
    shards: int,
    *,
    workers: Optional[int] = None,
    method: str = "ida",
    router: str = "nearest",
    delta: Optional[float] = None,
    backend: Union[BackendLike, Sequence[BackendLike]] = DEFAULT_BACKEND,
    index_backend: Optional[IndexBackendLike] = None,
    reconcile: bool = True,
    max_moves: int = 32,
    patience: int = 4,
    use_pua: bool = True,
    ann_group_size: Optional[int] = None,
    use_fast_path: bool = True,
    theta: Optional[float] = None,
    mp_context=None,
    plan: Optional[ShardPlan] = None,
    validate: bool = True,
    fault_plan: Optional[FaultPlan] = None,
    retry_policy: Optional[RetryPolicy] = None,
) -> Matching:
    """Solve a CCA instance with the sharded parallel engine.

    Parameters
    ----------
    shards:
        Requested shard count (the plan may produce fewer when the
        instance has fewer δ-groups).  ``shards=1`` is the serial solver,
        bit-identical to ``solve(problem, method)``.
    workers:
        Worker *processes* for the per-shard solves; ``None``/``1`` solves
        inline (deterministic either way — results are merged in shard
        order).
    router:
        ``"nearest"`` or ``"concise"`` (see module docstring).
    delta:
        Group diagonal for planning (and concise routing); defaults to
        the paper's SA sweet spot from ``PAPER_DEFAULTS``.
    backend:
        Flow-kernel selection: one name/instance for every shard, or a
        sequence with one entry per shard.
    index_backend:
        Spatial-index kernel for every per-shard tree, the concise
        router, and the residual pass (see :mod:`repro.rtree.backend`);
        ``None`` follows the problem's default.
    reconcile / max_moves / patience:
        Enable the warm-session boundary improvement pass, cap its move
        attempts, and stop early after ``patience`` consecutive rejected
        moves (0 disables the early exit).
    plan:
        A prebuilt :class:`ShardPlan` (e.g. operator districts) to use
        instead of :func:`plan_shards`.
    validate:
        Assert validity/maximality of the merged matching (cheap; on by
        default because reconciliation spans solver boundaries).
    fault_plan:
        A :class:`~repro.core.faults.FaultPlan` to inject at the worker
        and shm-attach seams (chaos testing); ``None`` and
        :meth:`FaultPlan.none` run fault-free.  The supervisor guarantees
        the returned matching is bit-identical to the fault-free run
        regardless.  Not consulted by
        the ``shards=1`` serial fall-through, which never leaves this
        process.
    retry_policy:
        Supervision knobs (:class:`~repro.core.supervisor.RetryPolicy`):
        retries, per-task deadline, backoff, requeue-cold.  The surviving
        :class:`~repro.core.faults.FaultLedger` lands on
        ``stats.faults`` (and ``stats.extra["faults"]`` when non-empty).
    """
    if shards < 1:
        raise ValueError("shards must be positive")
    if router not in ROUTERS:
        raise ValueError(f"unknown router {router!r}; expected one of {ROUTERS}")
    if method not in SHARD_METHODS:
        raise ValueError(
            f"sharded solve supports per-shard methods {SHARD_METHODS}, "
            f"got {method!r}"
        )
    if ann_group_size is None:
        ann_group_size = PAPER_DEFAULTS["ann_group_size"]
    # Workers only see the schedule that rides on their task; an empty
    # plan (FaultPlan.none()) means fault-free, like None.
    fault_plan = fault_plan or None
    index_backend_name = resolve_index_backend(problem, index_backend).name
    started = time.perf_counter()
    if shards == 1 and plan is None:
        # Serial fall-through: one shard IS the whole problem, and going
        # through the task machinery would only re-index it.
        names = _backend_names(backend, 1)
        task = ShardTask(
            index=0,
            method=method,
            backend=names[0],
            index_backend=index_backend_name,
            use_pua=use_pua,
            ann_group_size=ann_group_size,
            use_fast_path=use_fast_path,
            theta=theta,
            page_size=problem.page_size,
            buffer_fraction=problem.buffer_fraction,
            need_net=False,
        )
        solver = _build_solver(problem, task)
        matching = solver.solve()
        matching.stats.extra.update({"shards": 1, "workers": 1, "router": "serial"})
        return matching

    if plan is None:
        plan = plan_shards(problem, shards, delta=delta)
    else:
        _check_plan(plan, problem)
    backend_names = _backend_names(backend, plan.num_shards)

    plan_done = time.perf_counter()
    if router == "nearest":
        routed = route_nearest(problem, plan)
    else:
        routed = route_concise(
            problem,
            plan,
            backend=backend_names[0],
            index_backend=index_backend_name,
        )
    route_done = time.perf_counter()

    tasks, store = _make_tasks(
        problem,
        plan,
        routed,
        method,
        backend_names,
        index_backend_name,
        use_pua,
        ann_group_size,
        use_fast_path,
        theta,
        need_net=reconcile,
    )
    if fault_plan is not None:
        tasks = [replace(task, faults=fault_plan) for task in tasks]
    ledger = FaultLedger()
    # The segment must outlive reconciliation (sessions slice it) but is
    # gone before we return — even when a worker raises mid-solve.
    try:
        results = _run_tasks(
            tasks,
            workers,
            mp_context=mp_context,
            policy=retry_policy,
            ledger=ledger,
        )
        solve_done = time.perf_counter()

        moves = attempted = sessions_built = 0
        if reconcile:
            pairs, moves, attempted, sessions_built = _reconcile_boundaries(
                problem, plan, tasks, results, max_moves, patience
            )
        else:
            pairs = [pair for result in results for pair in result.pairs]
    finally:
        store.close_and_unlink()
    reconcile_done = time.perf_counter()

    residual, residual_info = _residual_pairs(
        problem, pairs, backend_names[0], index_backend_name
    )
    pairs = pairs + residual

    stats = SolverStats(method=f"shard-{method}", gamma=problem.gamma)
    stats.faults = ledger
    if len(ledger):
        stats.extra["faults"] = ledger.summary()
    stats.esub_edges = sum(r.esub_edges for r in results)
    stats.dijkstra_runs = sum(r.dijkstra_runs for r in results)
    stats.nn_requests = sum(r.nn_requests for r in results)
    for result in results:
        for stage, seconds in result.stage_s.items():
            stats.add_stage(stage, seconds)
    stats.cpu_s = time.perf_counter() - started
    stats.extra.update(
        {
            "shards": plan.num_shards,
            "workers": workers or 1,
            "router": router,
            "delta": plan.delta,
            "backends": backend_names,
            "index_backend": index_backend_name,
            "plan_s": plan_done - started,
            "route_s": route_done - plan_done,
            "solve_s": solve_done - route_done,
            "reconcile_s": reconcile_done - solve_done,
            "reconcile_moves": moves,
            "reconcile_attempted": attempted,
            "reconcile_sessions": sessions_built,
            "residual": residual_info,
            "per_shard": [
                {
                    "shard": r.index,
                    "providers": len(plan.shards[r.index].provider_ids),
                    "customers": len(routed[r.index]),
                    "gamma": r.gamma,
                    "cpu_s": r.cpu_s,
                    "esub": r.esub_edges,
                    "io_faults": r.io_faults,
                }
                for r in results
            ],
        }
    )
    matching = Matching(pairs, stats=stats)
    if validate:
        matching.validate(problem)
    return matching


# Public names for the reconciliation machinery: the serving layer
# (repro.serve.engine) runs the same candidate search and accept-or-revert
# mover against its long-lived shard sessions between delta groups.
move_candidates = _move_candidates
SessionMover = _SessionMover


def _check_plan(plan: ShardPlan, problem: CCAProblem) -> None:
    seen: Dict[int, int] = {}
    for spec in plan.shards:
        for pid in spec.provider_ids:
            if pid in seen:
                raise ValueError(
                    f"provider {pid} appears in shards {seen[pid]} and "
                    f"{spec.index}; shards must be provider-disjoint"
                )
            if not 0 <= pid < len(problem.providers):
                raise ValueError(f"provider id {pid} out of range")
            seen[pid] = spec.index
    if len(seen) != len(problem.providers):
        missing = set(range(len(problem.providers))) - set(seen)
        raise ValueError(
            f"shard plan does not cover providers {sorted(missing)[:5]}..."
        )
