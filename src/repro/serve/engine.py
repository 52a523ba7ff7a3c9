"""The online assignment engine: warm shard sessions fed by an event stream.

:class:`OnlineAssignmentService` is the driver behind both the asyncio
front end (:mod:`repro.serve.async_front`) and the ``repro-cca serve``
CLI/benchmark replay.  It owns:

* the **live global instance** — one :class:`~repro.core.problem.CCAProblem`
  mutated in place as events arrive (arrivals append customers, departures
  tombstone them to weight 0, capacity events replace providers), so the
  final state can always be re-solved cold for verification;
* a **shard plan** — provider-disjoint districts from
  :func:`~repro.core.shard.plan_shards` (or a single identity shard for
  ``shards=1``, the reference serving mode);
* one **warm session per shard** — a
  :class:`~repro.core.session.Matcher` whose residual network, R-tree and
  potentials persist across delta groups.  Events become session deltas;
  one :meth:`~repro.core.session.Matcher.assign` per *touched* shard per
  group re-solves warm (or falls back to a certified cold solve — both
  fallbacks are counted, never silent).

Correctness contract
--------------------
Each shard session is exact for the sub-instance it owns, so with
``shards=1`` the service is *bit-identical* to a cold
:func:`~repro.core.solve.solve` of the final problem state after any
replay — :meth:`OnlineAssignmentService.verify_against_cold` checks
exactly that, and the bench gate enforces it in CI.  With ``shards > 1``
per-shard optimality still holds but customers are pinned to the shard
they were routed to; the periodic :meth:`reconcile` pass re-homes
boundary customers (same accept-or-revert
:class:`~repro.core.shard.SessionMover` the batch engine uses, monotone
non-increasing in cost) and re-matches stranded customers into shards
with spare capacity, keeping the live matching valid and near-optimal.

Fallback accounting
-------------------
A pinned arrival (a new customer closer to a full provider than that
provider's farthest matched customer) breaks the matching's optimality.
When the shard has no spare capacity the session repairs it in place
with one certified search (:func:`~repro.core.session.repair_arrival`),
counted as ``arrival_repairs``; the next assign of that shard is then
warm and usually has nothing to augment.  Otherwise a warm re-solve
degrades to cold two ways, and the service certifies (counts and
exposes) both:

* **hazard colds** — a delta proved the residual state unusable: a
  pinned arrival while the shard has spare capacity (or of weight > 1),
  an unsafe departure or widening, a capacity cut below usage (all
  detected before the solve), or repairs whose state failed its
  certificate at the assign;
* **repair fallbacks** — the warm solve itself surfaced a negative
  reduced cost mid-flight
  (:class:`~repro.flow.graph.NegativeReducedCostError`) and the session
  restarted cold.

``stats.cold_reasons`` breaks both down by the session's reason
(:data:`~repro.core.session.COLD_REASONS`), and
``stats.warm_assigns / stats.assigns`` is an honest warm-hit rate, not a
best case.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.faults import FaultPlan
from repro.core.matching import Matching
from repro.core.problem import CCAProblem, Customer, Provider
from repro.core.session import NEGATIVE_REDUCED_COST, Matcher
from repro.core.shard import (
    SessionMover,
    ShardPlan,
    move_candidates,
    plan_shards,
    route_nearest,
)
from repro.core.solve import solve
from repro.datagen.events import Event, group_events
from repro.experiments.config import PAPER_DEFAULTS
from repro.flow.backend import DEFAULT_BACKEND, BackendLike, get_backend
from repro.geometry.point import Point
from repro.rtree.backend import IndexBackendLike, resolve_index_backend


@dataclass
class EventOutcome:
    """What the service did with one event (returned per request)."""

    seq: int
    kind: str
    ok: bool
    detail: str = ""
    customer_id: Optional[int] = None
    shard: Optional[int] = None
    provider_id: Optional[int] = None
    distance: Optional[float] = None


@dataclass
class GroupResult:
    """One delta group's application: outcomes plus latency bookkeeping."""

    events: int
    outcomes: List[EventOutcome]
    touched_shards: List[int]
    latency_s: float
    reconciled: bool = False


@dataclass
class ServeStats:
    """Service-lifetime counters (see module docstring for the fallback
    taxonomy)."""

    shards: int
    startup_s: float = 0.0
    events: int = 0
    groups: int = 0
    arrivals: int = 0
    departures: int = 0
    capacity_changes: int = 0
    rejected: int = 0
    assigns: int = 0
    warm_assigns: int = 0
    cold_assigns: int = 0
    hazard_colds: int = 0
    repair_fallbacks: int = 0
    arrival_repairs: int = 0
    # Cold assigns by Matcher.last_cold_reason (hazards and fallbacks).
    cold_reasons: Dict[str, int] = field(default_factory=dict)
    reconcile_passes: int = 0
    reconcile_moves: int = 0
    reconcile_rebalanced: int = 0
    reconcile_s: float = 0.0
    # Degraded-operation counters (graceful degradation, not failure):
    # quarantines = dead shard sessions rebuilt cold without touching the
    # other shards' warm state; shed = requests rejected by the async
    # frontend's bounded queue; timeouts = per-request deadlines blown.
    quarantines: int = 0
    quarantine_s: float = 0.0
    shed: int = 0
    timeouts: int = 0
    group_latencies_s: List[float] = field(default_factory=list)

    def latency_percentiles(
        self, qs: Sequence[float] = (50.0, 99.0)
    ) -> Dict[float, float]:
        """Per-group latency percentiles in seconds (0.0 before any group)."""
        if not self.group_latencies_s:
            return {float(q): 0.0 for q in qs}
        values = np.percentile(
            np.asarray(self.group_latencies_s, dtype=float), list(qs)
        )
        return {float(q): float(v) for q, v in zip(qs, values, strict=False)}

    @property
    def events_per_sec(self) -> float:
        """Sustained throughput over time spent applying groups (which
        includes any reconciliation they triggered)."""
        busy = sum(self.group_latencies_s)
        return self.events / busy if busy > 0 else 0.0

    def summary(self) -> Dict[str, object]:
        percentiles = self.latency_percentiles((50.0, 99.0))
        return {
            "shards": self.shards,
            "startup_s": self.startup_s,
            "events": self.events,
            "groups": self.groups,
            "arrivals": self.arrivals,
            "departures": self.departures,
            "capacity_changes": self.capacity_changes,
            "rejected": self.rejected,
            "assigns": self.assigns,
            "warm_assigns": self.warm_assigns,
            "cold_assigns": self.cold_assigns,
            "hazard_colds": self.hazard_colds,
            "repair_fallbacks": self.repair_fallbacks,
            "arrival_repairs": self.arrival_repairs,
            "cold_reasons": dict(sorted(self.cold_reasons.items())),
            "warm_rate": (self.warm_assigns / self.assigns if self.assigns else 0.0),
            "reconcile_passes": self.reconcile_passes,
            "reconcile_moves": self.reconcile_moves,
            "reconcile_rebalanced": self.reconcile_rebalanced,
            "reconcile_s": self.reconcile_s,
            "quarantines": self.quarantines,
            "quarantine_s": self.quarantine_s,
            "shed": self.shed,
            "timeouts": self.timeouts,
            "latency_p50_ms": percentiles[50.0] * 1e3,
            "latency_p99_ms": percentiles[99.0] * 1e3,
            "events_per_sec": self.events_per_sec,
        }


class OnlineAssignmentService:
    """A long-running assignment service over warm shard sessions.

    Parameters
    ----------
    problem:
        The seeding instance.  The service takes ownership and mutates it
        in place as the live global state (exactly like
        :class:`~repro.core.session.Matcher` does for a single session).
    shards:
        Number of provider-disjoint districts.  ``1`` (default) keeps one
        global warm session and is bit-identical to a cold solve after
        any replay; larger values trade exactness at shard boundaries for
        smaller, faster per-delta re-solves.
    backend / index_backend:
        Flow-kernel and spatial-index selection for every session (see
        :mod:`repro.flow.backend` / :mod:`repro.rtree.backend`).
    delta:
        Shard-planning group diagonal (``shards > 1`` only); defaults to
        the paper's SA sweet spot.
    reconcile_every:
        Run :meth:`reconcile` after every N delta groups (``0`` disables
        periodic reconciliation; ``shards=1`` never needs it).
    max_moves / patience:
        Reconciliation bounds, as in :func:`~repro.core.shard.solve_sharded`.
    plan:
        A prebuilt :class:`~repro.core.shard.ShardPlan` (operator
        districts) overriding ``shards``/``delta``.
    fault_plan:
        A :class:`~repro.core.faults.FaultPlan` whose ``site="session"``
        specs kill warm shard sessions deterministically (the occurrence
        axis is the delta-group index) — chaos testing for the quarantine
        path.  A killed shard is rebuilt cold from the live global state
        without touching the other shards' warm sessions, so replay
        results are unchanged; ``stats.quarantines`` counts the rebuilds.
    """

    def __init__(
        self,
        problem: CCAProblem,
        *,
        shards: int = 1,
        backend: BackendLike = DEFAULT_BACKEND,
        index_backend: Optional[IndexBackendLike] = None,
        delta: Optional[float] = None,
        reconcile_every: int = 8,
        max_moves: int = 32,
        patience: int = 4,
        use_pua: bool = True,
        ann_group_size: Optional[int] = None,
        plan: Optional[ShardPlan] = None,
        fault_plan: Optional["FaultPlan"] = None,
    ):
        if shards < 1:
            raise ValueError("shards must be positive")
        if ann_group_size is None:
            ann_group_size = PAPER_DEFAULTS["ann_group_size"]
        self.problem = problem
        self.backend = get_backend(backend)
        self.index_backend = resolve_index_backend(problem, index_backend)
        self.reconcile_every = int(reconcile_every)
        self.max_moves = int(max_moves)
        self.patience = int(patience)
        self.use_pua = use_pua
        self.ann_group_size = ann_group_size
        self.fault_plan = fault_plan

        nq = len(problem.providers)
        if plan is None:
            if shards == 1:
                # Identity single-shard plan: local ids == global ids, so
                # the reference serving mode adds zero translation noise.
                plan = ShardPlan.from_provider_lists([list(range(nq))], problem)
            else:
                plan = plan_shards(problem, shards, delta=delta)
        self.plan = plan
        self._qxy = np.array(
            [q.point.coords for q in problem.providers], dtype=float
        ).reshape(nq, 2)
        self._shard_of_provider = np.array(
            [plan.shard_of_provider[i] for i in range(nq)], dtype=np.int64
        )
        # provider registries: global id <-> (shard, local id)
        self._shard_providers: Dict[int, List[int]] = {}
        self._provider_loc: Dict[int, Tuple[int, int]] = {}
        for spec in plan.shards:
            self._shard_providers[spec.index] = list(spec.provider_ids)
            for local, pid in enumerate(spec.provider_ids):
                self._provider_loc[pid] = (spec.index, local)

        # Customer registries, exactly the dict shapes SessionMover
        # mutates in place during reconciliation:
        #   _local_customers[s][local] -> global id   (grows, never shrinks)
        #   _customer_loc[global]      -> (shard, local)   (live customers)
        self._local_customers: Dict[int, List[int]] = {}
        self._customer_loc: Dict[int, Tuple[int, int]] = {}

        started = time.perf_counter()
        routed = route_nearest(problem, plan)
        self.sessions: Dict[int, Matcher] = {}
        for spec in plan.shards:
            bucket = routed[spec.index]
            customer_ids = sorted(bucket)
            sub = CCAProblem.from_arrays(
                [problem.providers[i].point.coords for i in spec.provider_ids],
                [problem.providers[i].capacity for i in spec.provider_ids],
                [problem.customers[j].point.coords for j in customer_ids],
                customer_weights=[bucket[j] for j in customer_ids],
                page_size=problem.page_size,
                buffer_fraction=problem.buffer_fraction,
            )
            session = Matcher(
                sub,
                backend=self.backend,
                index_backend=self.index_backend.name,
                use_pua=use_pua,
                ann_group_size=ann_group_size,
            )
            session.assign()  # the one cold solve per shard, at startup
            self.sessions[spec.index] = session
            self._local_customers[spec.index] = list(customer_ids)
            for local, j in enumerate(customer_ids):
                self._customer_loc[j] = (spec.index, local)
        self.stats = ServeStats(shards=plan.num_shards)
        self.stats.startup_s = time.perf_counter() - started
        self._groups_since_reconcile = 0

    # ------------------------------------------------------------------
    # event application
    # ------------------------------------------------------------------
    def apply(self, events: Sequence[Event]) -> GroupResult:
        """Apply one delta group: all deltas first, then one warm
        re-assign per touched shard, then (periodically) reconciliation.

        Reconciliation time is charged to the group that triggered it, so
        the reported p99 latency is honest about the maintenance spikes.
        """
        started = time.perf_counter()
        touched: Set[int] = set()
        spare = self._spare_by_shard()
        outcomes: List[EventOutcome] = []
        arrivals: List[Tuple[int, int]] = []  # (outcome index, global id)
        for event in events:
            outcome = self._apply_event(event, touched, spare)
            outcomes.append(outcome)
            if not outcome.ok:
                self.stats.rejected += 1
            elif outcome.kind == "arrive":
                arrivals.append((len(outcomes) - 1, outcome.customer_id))
        # Chaos seam: session-site faults kill warm sessions on a fixed
        # delta-group schedule; marking the shard touched routes it into
        # the quarantine-and-rebuild path below.
        if self.fault_plan is not None:
            group_index = self.stats.groups
            for index, session in self.sessions.items():
                spec = self.fault_plan.match("session", index, group_index)
                if spec is not None:
                    session.mark_dead(
                        f"injected session fault (shard {index}, "
                        f"group {group_index})"
                    )
                    touched.add(index)
        for index in sorted(touched):
            self._assign_shard(index)
        if arrivals:
            self._resolve_arrivals(arrivals, outcomes, touched)
        reconciled = False
        self._groups_since_reconcile += 1
        if (
            self.reconcile_every > 0
            and self.plan.num_shards > 1
            and self._groups_since_reconcile >= self.reconcile_every
        ):
            self.reconcile()
            self._groups_since_reconcile = 0
            reconciled = True
        latency = time.perf_counter() - started
        self.stats.groups += 1
        self.stats.events += len(events)
        self.stats.group_latencies_s.append(latency)
        return GroupResult(
            events=len(events),
            outcomes=outcomes,
            touched_shards=sorted(touched),
            latency_s=latency,
            reconciled=reconciled,
        )

    def run(self, events: Sequence[Event], *, window: float = 0.0) -> ServeStats:
        """Replay a whole stream, grouped under ``window`` (stream time
        units); returns the lifetime stats for convenience."""
        for group in group_events(list(events), window):
            self.apply(group)
        return self.stats

    def _apply_event(
        self, event: Event, touched: Set[int], spare: Dict[int, int]
    ) -> EventOutcome:
        if event.kind == "arrive":
            return self._apply_arrival(event, touched, spare)
        if event.kind == "depart":
            return self._apply_departure(event, touched)
        if event.kind == "capacity":
            return self._apply_capacity(event, touched)
        return EventOutcome(
            seq=event.seq,
            kind=event.kind,
            ok=False,
            detail=f"unknown event kind {event.kind!r}",
        )

    def _apply_arrival(
        self, event: Event, touched: Set[int], spare: Dict[int, int]
    ) -> EventOutcome:
        if event.xy is None:
            return EventOutcome(
                seq=event.seq,
                kind="arrive",
                ok=False,
                detail="arrival without coordinates",
            )
        gid = len(self.problem.customers)
        if event.ref is not None and event.ref != gid:
            # Generated streams carry the positional ref the arrival will
            # occupy; a mismatch means the stream is being replayed
            # against the wrong state — refuse rather than mis-id.
            raise ValueError(
                f"arrival ref {event.ref} does not match the next "
                f"customer id {gid}; stream and service state disagree"
            )
        weight = int(event.weight)
        if weight <= 0:
            return EventOutcome(
                seq=event.seq,
                kind="arrive",
                ok=False,
                detail="arrival weight must be positive",
            )
        shard = self._route_arrival(event.xy, spare)
        local = self.sessions[shard].add_customer(event.xy, weight)
        self._local_customers[shard].append(gid)
        self._customer_loc[gid] = (shard, local)
        # Mirror into the live global instance (positional id = gid).
        self.problem.customers.append(_global_customer(gid, event.xy, weight))
        touched.add(shard)
        spare[shard] = max(0, spare.get(shard, 0) - weight)
        self.stats.arrivals += 1
        return EventOutcome(
            seq=event.seq,
            kind="arrive",
            ok=True,
            customer_id=gid,
            shard=shard,
        )

    def _apply_departure(self, event: Event, touched: Set[int]) -> EventOutcome:
        ref = event.ref
        if ref is None or not 0 <= ref < len(self.problem.customers):
            return EventOutcome(
                seq=event.seq,
                kind="depart",
                ok=False,
                detail=f"unknown customer {ref}",
            )
        location = self._customer_loc.get(ref)
        if location is None or self.problem.customers[ref].weight == 0:
            return EventOutcome(
                seq=event.seq,
                kind="depart",
                ok=False,
                detail=f"customer {ref} is not live",
            )
        shard, local = location
        self.sessions[shard].remove_customer(local)
        old = self.problem.customers[ref]
        self.problem.customers[ref] = Customer(old.point, 0)
        del self._customer_loc[ref]
        touched.add(shard)
        self.stats.departures += 1
        return EventOutcome(
            seq=event.seq,
            kind="depart",
            ok=True,
            customer_id=ref,
            shard=shard,
        )

    def _apply_capacity(self, event: Event, touched: Set[int]) -> EventOutcome:
        pid = event.provider_id
        if pid is None or not 0 <= pid < len(self.problem.providers):
            return EventOutcome(
                seq=event.seq,
                kind="capacity",
                ok=False,
                detail=f"unknown provider {pid}",
            )
        if event.capacity is None or event.capacity < 0:
            return EventOutcome(
                seq=event.seq,
                kind="capacity",
                ok=False,
                detail="capacity must be non-negative",
            )
        capacity = int(event.capacity)
        shard, local = self._provider_loc[pid]
        self.sessions[shard].set_provider_capacity(local, capacity)
        old = self.problem.providers[pid]
        self.problem.providers[pid] = Provider(old.point, capacity)
        touched.add(shard)
        self.stats.capacity_changes += 1
        return EventOutcome(
            seq=event.seq,
            kind="capacity",
            ok=True,
            provider_id=pid,
            shard=shard,
        )

    def _route_arrival(self, xy: Sequence[float], spare: Dict[int, int]) -> int:
        """Shard of the nearest provider whose shard still has (estimated)
        spare capacity; falls back to the globally nearest provider's
        shard when everything is full (ties break to the lowest provider
        id, matching :func:`~repro.core.shard.route_nearest`)."""
        d = np.hypot(self._qxy[:, 0] - float(xy[0]), self._qxy[:, 1] - float(xy[1]))
        order = np.argsort(d, kind="stable")
        for idx in order:
            shard = int(self._shard_of_provider[idx])
            if spare.get(shard, 0) > 0:
                return shard
        return int(self._shard_of_provider[order[0]])

    def _assign_shard(self, index: int) -> None:
        session = self.sessions[index]
        if session.is_dead:
            self._quarantine(index, session.death_reason)
            return
        repairs = session.arrival_repairs
        try:
            session.assign()
        # repro-lint: disable=RPR008 -- deliberate quarantine seam: the
        # failure is recorded on the session and surfaced via degradation
        # stats; serving must outlive any single shard's divergence
        except Exception as exc:
            # The session normally marks itself dead on the way out (see
            # Matcher.assign); mark it here too (idempotent) so the
            # abandoned object is dead no matter where the exception
            # originated.  Degrade gracefully — rebuild this one shard
            # cold; every other shard keeps its warm state.
            session.mark_dead(f"{type(exc).__name__}: {exc}")
            self._quarantine(index, session.death_reason)
            return
        self.stats.assigns += 1
        self.stats.arrival_repairs += session.arrival_repairs - repairs
        if session.last_was_warm:
            self.stats.warm_assigns += 1
            return
        self.stats.cold_assigns += 1
        reason = session.last_cold_reason
        self.stats.cold_reasons[reason] = self.stats.cold_reasons.get(reason, 0) + 1
        if reason == NEGATIVE_REDUCED_COST:
            # The warm solve itself hit a NegativeReducedCostError and
            # the session certified a restart-from-scratch.
            self.stats.repair_fallbacks += 1
        else:
            self.stats.hazard_colds += 1

    def _quarantine(self, index: int, reason: str) -> None:
        """Rebuild one shard's session cold from the live global state.

        The replacement sub-instance preserves the shard's *positional*
        local ids exactly — every global id the shard ever held appears
        at its historic local position, with its live weight iff the
        customer registry still maps it here and weight 0 (tombstone)
        otherwise — so ``_local_customers``/``_customer_loc`` stay valid
        and a cold solve of the rebuilt instance is semantically
        identical to the dead session's state.  Quarantine assigns are
        counted separately (``quarantines``/``quarantine_s``), not as
        service assigns: the warm-rate and fallback invariants describe
        healthy operation.
        """
        started = time.perf_counter()
        provider_ids = self._shard_providers[index]
        xy: List[Tuple[float, float]] = []
        weights: List[int] = []
        for local, gid in enumerate(self._local_customers[index]):
            customer = self.problem.customers[gid]
            xy.append(customer.point.coords)
            live = self._customer_loc.get(gid) == (index, local)
            weights.append(customer.weight if live else 0)
        sub = CCAProblem.from_arrays(
            [self.problem.providers[i].point.coords for i in provider_ids],
            [self.problem.providers[i].capacity for i in provider_ids],
            xy,
            customer_weights=weights,
            page_size=self.problem.page_size,
            buffer_fraction=self.problem.buffer_fraction,
        )
        session = Matcher(
            sub,
            backend=self.backend,
            index_backend=self.index_backend.name,
            use_pua=self.use_pua,
            ann_group_size=self.ann_group_size,
        )
        session.assign()
        self.sessions[index] = session
        self.stats.quarantines += 1
        self.stats.quarantine_s += time.perf_counter() - started

    def _resolve_arrivals(self, arrivals, outcomes, touched) -> None:
        """Fill each accepted arrival's (provider, distance) from the
        freshly re-assigned sessions; unmatched arrivals keep None."""
        pair_of: Dict[int, Tuple[int, float]] = {}
        for index in sorted(touched):
            provider_ids = self._shard_providers[index]
            mapping = self._local_customers[index]
            for i_local, j_local, dist in self.sessions[index].current_pairs():
                pair_of[mapping[j_local]] = (provider_ids[i_local], dist)
        for outcome_index, gid in arrivals:
            hit = pair_of.get(gid)
            if hit is not None:
                outcomes[outcome_index].provider_id = hit[0]
                outcomes[outcome_index].distance = hit[1]

    def _spare_by_shard(self) -> Dict[int, int]:
        return {
            index: max(0, int(session.net.spare_capacity()))
            for index, session in self.sessions.items()
        }

    # ------------------------------------------------------------------
    # reconciliation
    # ------------------------------------------------------------------
    def reconcile(self) -> Dict[str, int]:
        """One maintenance pass over shard boundaries.

        First stranded unmatched customers are re-homed into the nearest
        shard with spare capacity (restores maximality that per-shard
        routing can lose); then the batch engine's candidate search +
        accept-or-revert mover (:class:`~repro.core.shard.SessionMover`)
        re-homes boundary customers whose nearest cross-shard provider is
        closer — monotone non-increasing in cost, size-preserving.
        """
        started = time.perf_counter()
        rebalanced = moves = attempted = 0
        if self.plan.num_shards > 1:
            rebalanced = self._rebalance_unmatched()
            if self.max_moves > 0:
                assigned, unmatched, worst = self._assignment_view()
                candidates = move_candidates(
                    self.problem,
                    self.plan,
                    assigned,
                    unmatched,
                    worst,
                    self.max_moves,
                )
                if candidates:
                    mover = SessionMover(
                        self.problem,
                        self.sessions,
                        self._local_customers,
                        self._customer_loc,
                        assigned,
                    )
                    moves, attempted = mover.run(candidates, self.patience)
        self.stats.reconcile_passes += 1
        self.stats.reconcile_moves += moves
        self.stats.reconcile_rebalanced += rebalanced
        self.stats.reconcile_s += time.perf_counter() - started
        return {
            "rebalanced": rebalanced,
            "moves": moves,
            "attempted": attempted,
        }

    def _assignment_view(self):
        """(assigned, unmatched, worst_matched) in the exact shapes
        :func:`~repro.core.shard.move_candidates` consumes — global ids,
        unit-weight customers only."""
        assigned: Dict[int, Tuple[int, float]] = {}
        matched_units: Dict[int, int] = {}
        worst: Dict[int, float] = {}
        for index, session in self.sessions.items():
            provider_ids = self._shard_providers[index]
            mapping = self._local_customers[index]
            for i_local, j_local, dist in session.current_pairs():
                gid = mapping[j_local]
                matched_units[gid] = matched_units.get(gid, 0) + 1
                if self.problem.customers[gid].weight == 1:
                    assigned[gid] = (provider_ids[i_local], dist)
                worst[index] = max(worst.get(index, 0.0), dist)
        unmatched: Dict[int, int] = {}
        for gid, (shard, _local) in self._customer_loc.items():
            if (
                self.problem.customers[gid].weight == 1
                and matched_units.get(gid, 0) == 0
            ):
                unmatched[gid] = shard
        return assigned, unmatched, worst

    def _rebalance_unmatched(self) -> int:
        """Move fully-unmatched unit customers into the nearest shard with
        spare capacity.  The mover deliberately never does this (growing
        |M| cannot pass its cost-only accept test), but a *service* must:
        an arrival stranded in a full shard while a neighbor has spare
        capacity is lost demand."""
        _, unmatched, _ = self._assignment_view()
        if not unmatched:
            return 0
        spare = self._spare_by_shard()
        touched: Set[int] = set()
        moved = 0
        for gid in sorted(unmatched):
            if not any(v > 0 for v in spare.values()):
                break
            source = unmatched[gid]
            xy = self.problem.customers[gid].point.coords
            d = np.hypot(self._qxy[:, 0] - xy[0], self._qxy[:, 1] - xy[1])
            target = None
            for idx in np.argsort(d, kind="stable"):
                shard = int(self._shard_of_provider[idx])
                if shard != source and spare.get(shard, 0) > 0:
                    target = shard
                    break
            if target is None:
                continue
            shard, local = self._customer_loc[gid]
            # Removing an unmatched customer releases no flow, so the
            # source session needs no re-assign.
            self.sessions[shard].remove_customer(local)
            new_local = self.sessions[target].add_customer(xy)
            self._local_customers[target].append(gid)
            self._customer_loc[gid] = (target, new_local)
            spare[target] -= 1
            touched.add(target)
            moved += 1
        for index in sorted(touched):
            self._assign_shard(index)
        return moved

    # ------------------------------------------------------------------
    # inspection & verification
    # ------------------------------------------------------------------
    def live_pairs(self) -> List[Tuple[int, int, float]]:
        """The current global matching as (provider, customer, distance)
        triples in global ids."""
        pairs: List[Tuple[int, int, float]] = []
        for index in sorted(self.sessions):
            provider_ids = self._shard_providers[index]
            mapping = self._local_customers[index]
            pairs.extend(
                (provider_ids[i_local], mapping[j_local], dist)
                for i_local, j_local, dist in self.sessions[
                    index
                ].current_pairs()
            )
        return pairs

    def live_matching(self) -> Matching:
        return Matching(sorted(self.live_pairs()))

    def live_cost(self) -> float:
        return sum(session.net.matching_cost() for session in self.sessions.values())

    def final_problem(self) -> CCAProblem:
        """A fresh instance of the live global state (tombstones kept as
        weight-0 customers so positional ids line up with the service)."""
        return CCAProblem.from_arrays(
            [q.point.coords for q in self.problem.providers],
            [q.capacity for q in self.problem.providers],
            [p.point.coords for p in self.problem.customers],
            customer_weights=[p.weight for p in self.problem.customers],
            page_size=self.problem.page_size,
            buffer_fraction=self.problem.buffer_fraction,
            index_backend=self.index_backend.name,
        )

    def verify_against_cold(self) -> Dict[str, object]:
        """Cold-solve the final problem state and compare bit-for-bit.

        The cold reference runs the same solver configuration a session's
        own cold fallback uses (the default IDA ``solve``), on the same
        flow and index backends.  ``identical`` requires the exact same sorted
        (provider, customer, distance) triples — float equality included.
        With ``shards > 1`` boundary pinning makes strict identity
        unattainable in general; the report still carries both costs so
        callers can assert a bound instead.
        """
        cold = solve(
            self.final_problem(),
            "ida",
            use_pua=self.use_pua,
            ann_group_size=self.ann_group_size,
            backend=self.backend,
            index_backend=self.index_backend.name,
        )
        live = sorted(self.live_pairs())
        reference = sorted(cold.pairs)
        identical = live == reference
        return {
            "identical": identical,
            "live_size": len(live),
            "cold_size": len(reference),
            "live_cost": sum(d for _, _, d in live),
            "cold_cost": cold.cost,
        }

    def __repr__(self) -> str:
        return (
            f"OnlineAssignmentService(shards={self.plan.num_shards}, "
            f"|Q|={len(self.problem.providers)}, "
            f"|P|={len(self.problem.customers)}, "
            f"events={self.stats.events})"
        )


def _global_customer(gid: int, xy: Sequence[float], weight: int) -> Customer:
    return Customer(Point(gid, (float(xy[0]), float(xy[1]))), int(weight))
