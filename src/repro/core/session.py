"""Warm-start assignment sessions — the online scenario the paper never
needed but a service does.

A :class:`Matcher` keeps the residual flow network, the customer R-tree,
and the node potentials alive across calls.  The first :meth:`assign` is a
cold IDA solve; afterwards the caller applies *deltas* — customers arrive
and leave, provider capacities change — and the next :meth:`assign`
re-solves **warm**: it resumes the successive-shortest-path computation
from the existing feasible flow and potentials, augmenting only the few
units the deltas actually added, instead of recomputing the whole matching
from scratch.

Why this is sound
-----------------
SSP stays exact as long as (a) the current flow is minimum-cost for its
value on the *current* instance and (b) the node potentials are feasible
(every residual edge — including the reverse sink edges ``(t, p)`` — has
non-negative reduced cost).  Each delta either re-establishes both
invariants in O(|Q| + |Esub|) or honestly reports that it cannot:

* **Customer arrival** — the new node enters at τ = 0, so feasibility of
  its future edges requires ``τ_qi ≤ d(q_i, p_new)`` for every provider.
  Providers above that are *lowered to exactly* ``d(q_i, p_new)``, which
  is legal while no flow-carrying edge pins τ_qi from below
  (``τ_q ≥ d + τ_p`` per matched customer).  A pinned provider means the
  residual graph has a negative cycle t → p_far → q → p_new → t through
  the new customer — the provider serves someone farther away than the
  arrival — so the old matching is no longer optimal at its own value.
  When every provider of the session is full, no cycle can pass through
  the source, and the session *repairs* the arrival in place
  (:func:`repair_arrival`): one Dijkstra search rooted at the sink finds
  the most negative such cycle, one unit is pushed around it (the
  arrival becomes matched, one customer becomes unmatched), and the
  potentials move by the search labels.  The next :meth:`assign` keeps
  the repaired state only if it passes the solver-independent
  certificate of :mod:`repro.core.certify` (one check covers every
  repair since the previous assign) and otherwise re-solves cold; with
  spare capacity somewhere, an arrival of weight > 1, or any error
  during the repair, the session schedules a cold re-solve instead of
  returning a stale matching.  Customer potentials that the repair does
  not set keep ``τ_p ≥ 0`` on matched customers (= feasibility of the
  ``(t, p)`` reversals) and ``τ_p = 0`` on unmatched ones.
* **Customer departure** — the customer's matched units are cancelled and
  its edges dropped.  Cancelling *reopens* the residual ``(s, q)`` edge
  of each saturated provider that served the customer; that is safe only
  while ``τ_q ≥ τ_s`` still holds.  A provider that saturated early has
  a stale potential (τ_q stops advancing once its source edge closes),
  the reopened edge would enter with negative reduced cost, and the
  remaining flow may be suboptimal for its value — the session detects
  this (:meth:`~repro.flow.graph.CCAFlowNetwork.can_remove_customer_warm`)
  and falls back to a cold solve.
* **Capacity increase** (or a decrease that stays above current usage) —
  widens ``(s, q_i)`` and the per-edge caps.  The same reopening hazard
  applies (to the source edge of a saturated provider, and — for
  weighted customers — to saturated flow-carrying bipartite edges whose
  ``min(k, w)`` cap lifts); the session checks
  :meth:`~repro.flow.graph.CCAFlowNetwork.can_widen_provider_warm` and
  falls back to cold when the widening is not certifiably safe.

A decrease *below* current usage would require cancelling flow along
minimum-cost reverse paths; the session detects it and falls back to a
cold solve on the next :meth:`assign` (correct, just not incremental).

Cold solves use IDA's Theorem-2 fast path.  Warm re-solves run IDA
without it (its lazy potential offsets assume a pristine network) but
with the full NN-incremental edge supply, PUA resumption, and IDA's
real-unit certification — so a delta of one customer costs roughly one
augmentation rather than γ of them.  A warm assign with nothing to
augment (``matched == γ``, e.g. after a repaired arrival in a full
session) returns the live matching without building a solver at all.

Every cold assign records why it went cold (:data:`COLD_REASONS`):
``startup`` for a session's first solve, one hazard name per delta
check above, and ``negative_reduced_cost`` when a warm solve's fresh
edge supply proved the seeded state stale mid-flight.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.certify import certify
from repro.core.ida import IDASolver
from repro.core.matching import Matching, SolverStats
from repro.core.nia import DEFAULT_ANN_GROUP_SIZE
from repro.core.problem import CCAProblem, Customer, Provider
from repro.flow.backend import DEFAULT_BACKEND, BackendLike, get_backend
from repro.flow.graph import T_NODE, NegativeReducedCostError, _nonneg
from repro.geometry.point import Point
from repro.rtree.backend import IndexBackendLike, resolve_index_backend

# Why an assign went cold (Matcher.last_cold_reason).
STARTUP = "startup"
ARRIVAL_SPARE = "arrival_spare"  # pinned arrival, the session has spare capacity
ARRIVAL_WEIGHTED = "arrival_weighted"  # pinned arrival of weight > 1
REPAIR_UNCERTIFIED = "repair_uncertified"  # repaired state failed certify()
DEPARTURE_REOPEN = "departure_reopen"  # release reopens a stale source edge
WIDEN = "widen"  # capacity raise reopens an edge with negative reduced cost
SHRINK = "shrink"  # capacity cut below current usage
NEGATIVE_REDUCED_COST = "negative_reduced_cost"  # warm solve found a stale edge
COLD_REASONS = (
    STARTUP,
    ARRIVAL_SPARE,
    ARRIVAL_WEIGHTED,
    REPAIR_UNCERTIFIED,
    DEPARTURE_REOPEN,
    WIDEN,
    SHRINK,
    NEGATIVE_REDUCED_COST,
)


class SessionDeadError(RuntimeError):
    """The session is marked dead: its residual state can no longer be
    trusted and every further :meth:`Matcher.assign` refuses until the
    owner rebuilds the session cold (the serving layer's quarantine)."""


class Matcher:
    """A long-lived CCA assignment session with warm-started re-solves.

    Parameters
    ----------
    problem:
        The initial instance.  The Matcher takes ownership and mutates it
        in place as deltas arrive.
    backend:
        Flow-kernel selector (see :mod:`repro.flow.backend`); the session
        network is built once on this backend and kept alive.
    index_backend:
        Spatial-index selector (see :mod:`repro.rtree.backend`); ``None``
        follows the problem's default.  The packed backend applies
        customer deltas by staging them and lazily rebuilding its arrays
        on the next query — fine for delta-then-assign sessions, where
        queries dominate deltas.
    use_pua / ann_group_size:
        Passed through to the underlying IDA solver.
    """

    def __init__(
        self,
        problem: CCAProblem,
        *,
        backend: BackendLike = DEFAULT_BACKEND,
        index_backend: Optional[IndexBackendLike] = None,
        use_pua: bool = True,
        ann_group_size: int = DEFAULT_ANN_GROUP_SIZE,
    ):
        self.problem = problem
        self.backend = get_backend(backend)
        self.index_backend = resolve_index_backend(problem, index_backend)
        self.use_pua = use_pua
        self.ann_group_size = ann_group_size
        # Built once; mutated by deltas.
        self.tree = problem.rtree(index_backend=self.index_backend.name)
        self.net = None  # session-owned residual network (after 1st solve)
        self._needs_cold = True
        self._cold_reason = STARTUP
        self.assign_count = 0
        self.last_stats: Optional[SolverStats] = None
        self.last_was_warm = False
        # Cold assigns record why (one of COLD_REASONS); None when warm.
        self.last_cold_reason: Optional[str] = None
        # Pinned arrivals repaired in place and kept, over the session's
        # lifetime, and why the latest rejected repair failed.
        self.arrival_repairs = 0
        self.last_repair_failure: Optional[str] = None
        # Repair searches since the last assign: certified by it, and
        # charged to its stats.
        self._repair_runs = 0
        self._repair_pops = 0
        self._last_matching: Optional[Matching] = None
        self._dead = False
        self.death_reason = ""

    @classmethod
    def from_solved(
        cls,
        problem: CCAProblem,
        net,
        *,
        backend: BackendLike = DEFAULT_BACKEND,
        **kwargs,
    ) -> "Matcher":
        """Adopt an already-solved residual network as a warm session.

        The sharded engine's reconciliation pass uses this to turn each
        worker's finished per-shard solve into a live session (in the
        parent process) without paying for a cold re-solve: ``net`` must be
        the residual network of a completed solve of exactly ``problem``,
        on the same ``backend``.  Deltas and warm re-assigns then work as
        if the session had performed the solve itself.
        """
        if net.nq != len(problem.providers) or net.np != len(problem.customers):
            raise ValueError(
                "solved network shape does not match the problem "
                f"({net.nq}x{net.np} vs {len(problem.providers)}x"
                f"{len(problem.customers)})"
            )
        session = cls(problem, backend=backend, **kwargs)
        session.net = net
        session._needs_cold = False
        session._cold_reason = None
        return session

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def assign(self) -> Matching:
        """Solve (or warm re-solve) the current instance to optimality."""
        if self._dead:
            raise SessionDeadError(self.death_reason or "session marked dead")
        warm = self.net is not None and not self._needs_cold
        self.last_was_warm = warm
        reason = None if warm else self._cold_reason
        try:
            if warm and self.net.matched == self.net.gamma:
                # Nothing to augment: the deltas since the last assign
                # kept the flow maximal (and any repairs among them are
                # certified below), so the live matching is the answer;
                # no solver, no index start-up.
                matching, stats = self._current_matching()
            else:
                matching, stats = self._run_solver(warm)
        except NegativeReducedCostError:
            if not warm:
                raise
            # The warm re-solve's fresh NN streams surfaced a *new* edge
            # with negative reduced cost against the inherited potentials.
            # The per-delta hazard checks certify the present residual
            # network, but cannot bound edges the previous solve never
            # discovered — such an edge proves the seeded matching is no
            # longer optimal at its own value.  Same honest fallback the
            # deltas use: discard the (now partially mutated) network and
            # re-solve from scratch.
            self.last_was_warm = False
            reason = NEGATIVE_REDUCED_COST
            matching, stats = self._run_solver(False)
        except Exception as exc:
            # Anything else mid-solve may have left the residual network
            # half-mutated: the state is no longer certifiable.  Mark the
            # session dead so the owner quarantines and rebuilds instead
            # of trusting a poisoned warm state on the next call.
            self.mark_dead(f"{type(exc).__name__}: {exc}")
            raise
        if self.last_was_warm and self._repair_runs:
            # Arrival repairs are kept only if the state they led to
            # certifies; one check per assign covers all of them.
            failure = self._certify()
            if failure is None:
                self.arrival_repairs += self._repair_runs
            else:
                self.last_repair_failure = failure
                self.last_was_warm = False
                reason = REPAIR_UNCERTIFIED
                matching, stats = self._run_solver(False)
        stats.dijkstra_runs += self._repair_runs
        stats.dijkstra_pops += self._repair_pops
        self._repair_runs = self._repair_pops = 0
        self._needs_cold = False
        self._cold_reason = None
        self.last_cold_reason = reason
        self.assign_count += 1
        self.last_stats = stats
        self._last_matching = matching
        return matching

    def _run_solver(self, warm: bool) -> Tuple[Matching, SolverStats]:
        solver = IDASolver(
            self.problem,
            use_pua=self.use_pua,
            ann_group_size=self.ann_group_size,
            # The session's R-tree and buffer stay warm across calls; a
            # measured cold start is a benchmarking concept, not a
            # service one.
            cold_start=False,
            backend=self.backend,
            net=self.net if warm else None,
            index_backend=self.index_backend,
        )
        matching = solver.solve()
        self.net = solver.net
        return matching, solver.stats

    def _certify(self) -> Optional[str]:
        net = self.net
        q_tau, p_tau = net.tau_lists()
        return certify(self.problem, net.matching_flows(), q_tau, p_tau, net.tau_s)

    def _current_matching(self) -> Tuple[Matching, SolverStats]:
        stats = SolverStats(method=IDASolver.method, gamma=self.net.gamma)
        stats.esub_edges = self.net.edge_count
        stats.extra["warm_start"] = True
        return Matching(self.net.matching_pairs(), stats=stats), stats

    @property
    def matching(self) -> Optional[Matching]:
        """The most recent :meth:`assign` result (None before the first)."""
        return self._last_matching

    @property
    def is_warm(self) -> bool:
        """Whether the next :meth:`assign` may resume from the live
        residual state (False before the first solve, and after a delta
        whose hazard check scheduled a cold re-solve)."""
        return self.net is not None and not self._needs_cold

    # ------------------------------------------------------------------
    # death (quarantine support)
    # ------------------------------------------------------------------
    def mark_dead(self, reason: str = "") -> None:
        """Declare the session's residual state untrustworthy.

        Subsequent :meth:`assign` calls raise :class:`SessionDeadError`;
        the serving engine reacts by quarantining the shard and
        rebuilding it cold from the live global state.  Idempotent (the
        first reason wins).
        """
        if not self._dead:
            self._dead = True
            self.death_reason = reason

    @property
    def is_dead(self) -> bool:
        return self._dead

    @property
    def gamma(self) -> int:
        return self.problem.gamma

    # ------------------------------------------------------------------
    # deltas
    # ------------------------------------------------------------------
    def _go_cold(self, reason: str) -> None:
        """Schedule a cold re-solve for the next assign (first reason
        since the last assign wins)."""
        if not self._needs_cold:
            self._needs_cold = True
            self._cold_reason = reason

    def add_customer(self, xy: Sequence[float], weight: int = 1) -> int:
        """A customer arrives; returns its id (valid after next assign)."""
        if weight < 0:
            raise ValueError("customer weight must be non-negative")
        j = len(self.problem.customers)
        point = Point(j, (float(xy[0]), float(xy[1])))
        self.problem.customers.append(Customer(point, int(weight)))
        if weight > 0:
            # Indexes cover live customers only; broadcast to every built
            # backend tree so the per-backend caches stay coherent.
            self.problem.tree_insert(point)
        if self.net is not None and not self._needs_cold:
            # One batch-kernel call against the provider coordinate
            # columns (bit-identical to the per-provider scalar dist) —
            # the warm admit's feasibility sweep is O(|Q|) arithmetic,
            # so the Point-object loop was pure overhead.
            distances = self.problem.provider_points().dists_to(point.coords)
            if self.net.admit_customer(int(weight), distances) is None:
                # A pinned provider: the arrival breaks the matching's
                # optimality (see module docstring).
                self._admit_pinned(int(weight), distances)
        return j

    def _admit_pinned(self, weight: int, distances) -> None:
        """Repair a pinned arrival in place (certified at the next
        assign), or schedule a cold re-solve."""
        net = self.net
        if net.spare_capacity() > 0:
            self._go_cold(ARRIVAL_SPARE)
            return
        if weight != 1:
            self._go_cold(ARRIVAL_WEIGHTED)
            return
        try:
            j = net.add_customer_node(weight)
            self._repair_pops += repair_arrival(net, j, distances)
            self._repair_runs += 1
        # repro-lint: disable=RPR008 -- certify-or-fall-back seam: any
        # error leaves the network half-repaired, and the cold re-solve
        # scheduled below discards it; the error is kept for inspection
        except Exception as exc:
            self.last_repair_failure = f"{type(exc).__name__}: {exc}"
            self._go_cold(REPAIR_UNCERTIFIED)

    def remove_customer(self, customer_id: int) -> None:
        """A customer leaves; its matched units (if any) are released."""
        old = self.problem.customers[customer_id]
        if old.weight == 0:
            return  # already removed (tombstoned)
        # Tombstone, don't renumber: provider/customer ids are positional
        # throughout the solver stack.
        self.problem.customers[customer_id] = Customer(old.point, 0)
        self.problem.tree_delete(old.point)
        if self.net is not None and not self._needs_cold:
            if self.net.can_remove_customer_warm(customer_id):
                self.net.remove_customer_node(customer_id)
            else:
                # Releasing the flow would reopen a stale-potential source
                # edge (negative reduced cost): the remaining matching
                # could be suboptimal, so re-solve from scratch.
                self._go_cold(DEPARTURE_REOPEN)

    def set_provider_capacity(self, provider_id: int, capacity: int) -> None:
        """Change a provider's capacity.

        Increases (and decreases that stay above the provider's current
        usage) are applied warm; a decrease below usage schedules a cold
        re-solve on the next :meth:`assign`.
        """
        if capacity < 0:
            raise ValueError("provider capacity must be non-negative")
        old = self.problem.providers[provider_id]
        self.problem.providers[provider_id] = Provider(old.point, int(capacity))
        if self.net is None or self._needs_cold:
            return
        if capacity < int(self.net.q_used[provider_id]):
            self._go_cold(SHRINK)
        elif self.net.can_widen_provider_warm(provider_id, int(capacity)):
            self.net.set_provider_capacity(provider_id, int(capacity))
        else:
            # The widening would reopen residual edges with negative
            # reduced cost (stale potentials): re-solve from scratch.
            self._go_cold(WIDEN)

    # ------------------------------------------------------------------
    def current_pairs(self) -> List[Tuple[int, int, float]]:
        """Matched (provider, customer, distance) triples of the session
        network (empty before the first assign)."""
        if self.net is None:
            return []
        return self.net.matching_pairs()

    def __repr__(self) -> str:
        state = "cold" if (self.net is None or self._needs_cold) else "warm"
        return (
            f"Matcher(|Q|={len(self.problem.providers)}, "
            f"|P|={len(self.problem.customers)}, {state}, "
            f"assigns={self.assign_count})"
        )


def repair_arrival(net, j: int, distances: Sequence[float]) -> int:
    """Cancel the most negative residual cycle through a new customer.

    ``j`` is a unit-weight customer node just added to ``net`` with τ = 0
    and no edges; ``distances[i]`` is its distance to provider ``i``.
    Every provider must be full, so no residual cycle passes through the
    source and the flow stays maximal.  One Dijkstra search rooted at the
    sink runs over the reduced costs of the residual network — t → each
    matched customer, customer → provider reversals of flow-carrying
    edges, open provider → customer edges — until every provider with
    capacity is settled; the arrival's edge from each provider, whose
    reduced cost may be negative, closes a cycle t → … → q → p_j → t.  If
    the cheapest cycle is negative, one unit is pushed around it: the
    arrival's edge enters Esub with flow and the cycle's first customer
    becomes unmatched.  Only providers enter the heap: a matched
    customer's out-edges are its reversals, so its label is relayed to
    its providers the moment it improves (as the flow kernels do), and
    unmatched customers are skipped, since they lead only back to t.

    Potentials then move by the search labels δ, capped at δ_max, the
    label of the last provider settled: ``τ := τ − min(δ, δ_max)`` on
    providers and matched customers, ``τ_pj := −δ(p_j)`` on the arrival.
    Every residual edge the search relaxed keeps a non-negative reduced
    cost, the cycle's edges become tight, and unmatched customers keep
    τ = 0.  Pairs outside Esub are not searched, so the caller certifies
    the result (:func:`repro.core.certify.certify`) before keeping it.

    An equal label keeps the smaller predecessor id and heap entries
    order by (label, node), so both flow kernels — whose adjacency orders
    differ — pick the same cycle bit for bit.  Returns the number of
    providers settled (heap pops).
    """
    nq = net.nq
    q_tau, p_tau = net.tau_lists()
    p_used = net.p_used
    label: Dict[int, float] = {}
    pred: Dict[int, int] = {}
    settled = set()
    heap: List[Tuple[float, int]] = []

    def relay(c: int, alpha: float) -> None:
        for q, w in net.out_edges(c):
            if q in settled:
                continue
            offer = alpha + w
            old = label.get(q)
            if old is None or offer < old:
                label[q] = offer
                pred[q] = c
                heapq.heappush(heap, (offer, q))
            elif offer == old and c < pred[q]:
                pred[q] = c

    for c in range(net.np):
        if p_used[c] > 0:
            label[nq + c] = alpha = _nonneg(p_tau[c])
            pred[nq + c] = T_NODE
            relay(nq + c, alpha)
    left = sum(1 for k in net.q_cap if k > 0)
    top = 0.0
    best, best_q = float("inf"), -1
    while heap and left:
        alpha, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        if net.q_cap[u] > 0:
            left -= 1
            top = alpha
            close = alpha + (float(distances[u]) - q_tau[u])
            if close < best:
                best, best_q = close, u
        for v, w in net.out_edges(u):
            if p_used[v - nq] == 0:
                continue
            offer = alpha + w
            old = label[v]
            if offer < old:
                label[v] = offer
                pred[v] = u
                relay(v, offer)
            elif offer == old and u < pred[v]:
                pred[v] = u
    if left:
        raise RuntimeError("a provider with capacity is unreachable from t")
    # Potentials from the pre-push matched set; the cycle's first
    # customer ends at τ = τ − δ = 0, as an unmatched customer must.
    providers = {i: q_tau[i] - label[i] for i in range(nq) if net.q_cap[i] > 0}
    customers = {
        c: p_tau[c] - min(label[nq + c], top) for c in range(net.np) if p_used[c] > 0
    }
    if best < 0.0:
        cycle = [best_q]
        while cycle[-1] != T_NODE:
            cycle.append(pred[cycle[-1]])
        cycle.reverse()
        net.add_edge(best_q, j, float(distances[best_q]))
        net.push_sink_cycle(cycle + [nq + j, T_NODE])
        customers[j] = -best
    net.set_potentials(providers, customers)
    return len(settled)
