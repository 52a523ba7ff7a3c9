"""The CCA residual flow network with node potentials.

Node encoding (integers throughout, for heap speed):

* ``S_NODE = -1`` — source ``s``; edge ``(s, q_i)`` has cost 0, capacity
  ``q_i.k`` (provider capacity).
* provider ``i`` — node id ``i`` for ``0 <= i < nq``.
* customer ``j`` — node id ``nq + j``; edge ``(p_j, t)`` has cost 0 and
  capacity ``p_j.w`` (1 in the exact problem; the representative weight in
  CA's concise matching).
* ``T_NODE = -2`` — sink ``t``.

Bipartite edges ``(q_i, p_j)`` cost ``dist(q_i, p_j)``.  In the exact
problem their capacity is 1 (a pair appears at most once in ``M``); in CA's
concise matching a provider may serve several units of one representative,
so the capacity generalizes to ``min(q_i.k, p_j.w)``.  The residual
adjacency keeps an edge in ``forward[i]`` while it has spare capacity and in
``backward[j]`` while it carries flow (both, when partially used).  The
matching is the set of positive-flow bipartite edges (Section 2.2).

Potentials follow the paper's convention: the *reduced* cost of an edge is
``w(u, v) = dist(u, v) − u.τ + v.τ``, and after augmenting a shortest path
of cost ``α_min`` every node settled with ``α ≤ α_min`` gets
``τ := τ − α + α_min``.  Because only globally-certified shortest paths are
augmented (Theorem 1), the potentials remain feasible for the *complete*
bipartite edge set, so newly discovered edges always enter with non-negative
reduced cost.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

S_NODE = -1
T_NODE = -2


class NegativeReducedCostError(AssertionError):
    """A reduced cost came out genuinely negative.

    The potential invariant (Theorem 1) guarantees non-negative reduced
    costs as long as only certified shortest paths are augmented, so this
    error always indicates a solver bug — never bad user input (those
    raise :class:`ValueError` at construction time).  Subclasses
    ``AssertionError`` for backward compatibility with callers that treated
    the old bare assertion as the signal.
    """


class CCAFlowNetwork:
    """Residual network over a (sub)set of the bipartite edges.

    The network starts with *no* bipartite edges; incremental solvers add
    them via :meth:`add_edge` and SSPA adds the complete set.
    """

    def __init__(
        self,
        provider_capacities: Sequence[int],
        customer_weights: Sequence[int],
    ):
        if any(k < 0 for k in provider_capacities):
            raise ValueError("provider capacities must be non-negative")
        if any(w < 0 for w in customer_weights):
            raise ValueError("customer weights must be non-negative")
        self.nq = len(provider_capacities)
        self.np = len(customer_weights)
        self.q_cap = list(provider_capacities)
        self.p_cap = list(customer_weights)
        self.q_used = [0] * self.nq
        self.p_used = [0] * self.np
        self.q_tau = [0.0] * self.nq
        self.p_tau = [0.0] * self.np
        self.tau_s = 0.0
        # forward[i]: {j: dist} — edges with spare capacity.
        # backward[j]: {i: dist} — edges carrying flow (matched units).
        self.forward: List[Dict[int, float]] = [dict() for _ in range(self.nq)]
        self.backward: List[Dict[int, float]] = [dict() for _ in range(self.np)]
        # Canonical edge registry: (i, j) -> [distance, capacity, flow].
        self.edges: Dict[Tuple[int, int], List] = {}
        self.matched = 0
        self.augmentations = 0
        # Incrementally tracked aggregates (avoid O(nq) rescans on the
        # per-iteration certification path).  A zero-capacity provider is
        # full from the start.  ``full_providers`` holds their ids so
        # IDA's per-run key refresh walks only the full ones (order never
        # matters there: per-provider updates are independent and the
        # pending-edge heap orders by key, not push sequence).
        self.full_providers = {i for i, k in enumerate(self.q_cap) if k <= 0}
        self._tau_max = 0.0

    # ------------------------------------------------------------------
    # problem-level quantities
    # ------------------------------------------------------------------
    @property
    def gamma(self) -> int:
        """Required matching size γ = min(Σ p.w, Σ q.k)."""
        return min(sum(self.p_cap), sum(self.q_cap))

    def provider_node(self, i: int) -> int:
        return i

    def customer_node(self, j: int) -> int:
        return self.nq + j

    def is_provider(self, node: int) -> bool:
        return 0 <= node < self.nq

    def is_customer(self, node: int) -> bool:
        return node >= self.nq

    def customer_index(self, node: int) -> int:
        return node - self.nq

    # ------------------------------------------------------------------
    # state predicates (Definitions 2 and 3)
    # ------------------------------------------------------------------
    def provider_full(self, i: int) -> bool:
        """Definition 2: e(s, q_i) used q_i.k times."""
        return self.q_used[i] >= self.q_cap[i]

    def customer_full(self, j: int) -> bool:
        """Definition 3 (generalized to weights): e(p_j, t) saturated."""
        return self.p_used[j] >= self.p_cap[j]

    def any_provider_full(self) -> bool:
        """O(1): reads the full-provider set maintained by
        :meth:`apply_path` / :meth:`set_provider_capacity`."""
        return bool(self.full_providers)

    @property
    def saturated_providers(self) -> int:
        """How many providers are currently full (Definition 2)."""
        return len(self.full_providers)

    # ------------------------------------------------------------------
    # Esub maintenance
    # ------------------------------------------------------------------
    def add_edge(self, i: int, j: int, distance: float) -> bool:
        """Insert bipartite edge (q_i, p_j) into Esub.

        Capacity is ``min(q_i.k, p_j.w)``; zero-capacity edges are useless
        and rejected.  Returns False if the edge is already present.
        """
        if distance < 0:
            raise ValueError("edge length must be non-negative")
        if (i, j) in self.edges:
            return False
        capacity = min(self.q_cap[i], self.p_cap[j])
        if capacity == 0:
            return False
        self.edges[(i, j)] = [distance, capacity, 0]
        self.forward[i][j] = distance
        return True

    def add_edges(self, providers, customers, distances) -> int:
        """Bulk-insert bipartite edges; returns how many were new.

        The reference implementation is the literal per-edge loop, so its
        semantics — first occurrence wins on duplicates, zero-capacity
        edges rejected, insertion order preserved — *define* the contract
        the array backend's vectorized override must reproduce
        bit-identically (``tests/property/test_bulk_edges.py``).

        ``providers`` may be a scalar (one provider, many customers — the
        shape RIA's range supply and SSPA's row build produce) or a
        sequence aligned with ``customers``/``distances``.
        """
        inserted = 0
        if _is_scalar(providers):
            if len(customers) != len(distances):
                raise ValueError("edge column lengths differ")
            i = int(providers)
            for j, d in zip(customers, distances, strict=False):
                inserted += self.add_edge(i, int(j), float(d))
            return inserted
        if not (len(providers) == len(customers) == len(distances)):
            raise ValueError("edge column lengths differ")
        for i, j, d in zip(providers, customers, distances, strict=False):
            inserted += self.add_edge(int(i), int(j), float(d))
        return inserted

    def has_edge(self, i: int, j: int) -> bool:
        return (i, j) in self.edges

    def edge_flow(self, i: int, j: int) -> int:
        entry = self.edges.get((i, j))
        return 0 if entry is None else entry[2]

    def edge_residual(self, i: int, j: int) -> int:
        entry = self.edges.get((i, j))
        return 0 if entry is None else entry[1] - entry[2]

    @property
    def edge_count(self) -> int:
        """|Esub| — the paper's memory metric (distinct discovered edges)."""
        return len(self.edges)

    # ------------------------------------------------------------------
    # reduced costs (the Dijkstra adjacency)
    # ------------------------------------------------------------------
    def reduced_cost_sq(self, i: int) -> float:
        """w(s, q_i) = 0 − τ_s + τ_qi."""
        return _nonneg(self.q_tau[i] - self.tau_s)

    def reduced_cost_qp(self, i: int, j: int, distance: float) -> float:
        """w(q_i, p_j) = dist − τ_qi + τ_pj."""
        return _nonneg(distance - self.q_tau[i] + self.p_tau[j])

    def reduced_cost_pq(self, j: int, i: int, distance: float) -> float:
        """w(p_j, q_i) = −dist − τ_pj + τ_qi (residual reverse edge)."""
        return _nonneg(-distance - self.p_tau[j] + self.q_tau[i])

    def reduced_cost_pt(self, j: int) -> float:
        """w(p_j, t) = 0 − τ_pj; always 0 for non-full customers."""
        return _nonneg(-self.p_tau[j])

    def out_edges(self, node: int) -> Iterable[Tuple[int, float]]:
        """Residual out-edges of ``node`` as (target, reduced_cost).

        Edges out of ``s`` and into ``t`` are produced by the Dijkstra
        driver itself (they depend on residual capacities tracked here).
        """
        if self.is_provider(node):
            i = node
            q_tau = self.q_tau[i]
            p_tau = self.p_tau
            nq = self.nq
            for j, d in self.forward[i].items():
                yield nq + j, _nonneg(d - q_tau + p_tau[j])
        else:
            j = self.customer_index(node)
            p_tau = self.p_tau[j]
            for i, d in self.backward[j].items():
                yield i, _nonneg(-d - p_tau + self.q_tau[i])

    def source_edges(self) -> Iterable[Tuple[int, float]]:
        """(q_i, w(s, q_i)) for every provider with residual capacity."""
        tau_s = self.tau_s
        for i in range(self.nq):
            if self.q_used[i] < self.q_cap[i]:
                yield i, _nonneg(self.q_tau[i] - tau_s)

    def sink_edge_open(self, j: int) -> bool:
        return self.p_used[j] < self.p_cap[j]

    # ------------------------------------------------------------------
    # augmentation (Algorithm 1 lines 4-11)
    # ------------------------------------------------------------------
    def apply_path(self, path_nodes: Sequence[int]) -> None:
        """Push one unit of flow along an s→t path (reversing residuals).

        This is the flow half of an augmentation; :meth:`augment` adds the
        potential update.  IDA's Theorem-2 fast path calls this directly
        and maintains potentials itself via lazy offsets.
        """
        if path_nodes[0] != S_NODE or path_nodes[-1] != T_NODE:
            raise ValueError("augmenting path must run from s to t")
        for u, v in zip(path_nodes, path_nodes[1:], strict=False):
            if u == S_NODE:
                self.q_used[v] += 1
                if self.q_used[v] > self.q_cap[v]:
                    raise RuntimeError(f"provider {v} over capacity")
                if self.q_used[v] == self.q_cap[v]:
                    self.full_providers.add(v)
            elif v == T_NODE:
                j = self.customer_index(u)
                self.p_used[j] += 1
                if self.p_used[j] > self.p_cap[j]:
                    raise RuntimeError(f"customer {j} over capacity")
            elif self.is_provider(u):
                self._push_unit(u, self.customer_index(v))
            else:
                self._pull_unit(v, self.customer_index(u))
        self.matched += 1
        self.augmentations += 1

    def _push_unit(self, i: int, j: int) -> None:
        entry = self.edges[(i, j)]
        d, capacity, flow = entry
        if flow >= capacity:
            raise RuntimeError(f"edge ({i},{j}) over capacity")
        entry[2] = flow + 1
        self.backward[j][i] = d
        if entry[2] >= capacity:
            self.forward[i].pop(j, None)

    def _pull_unit(self, i: int, j: int) -> None:
        entry = self.edges[(i, j)]
        d, _, flow = entry
        if flow <= 0:
            raise RuntimeError(f"edge ({i},{j}) has no flow to cancel")
        entry[2] = flow - 1
        self.forward[i][j] = d
        if entry[2] == 0:
            self.backward[j].pop(i, None)

    def augment(
        self,
        path_nodes: Sequence[int],
        alpha_min: float,
        settled_alpha: Dict[int, float],
    ) -> None:
        """Reverse the path's edges and update the potentials.

        ``path_nodes`` runs from ``S_NODE`` to ``T_NODE`` inclusive.
        ``settled_alpha`` maps every node settled by the Dijkstra run (with
        ``α ≤ alpha_min``) to its ``α``; their potentials are advanced
        (Algorithm 1 lines 8-9).
        """
        self.apply_path(path_nodes)
        for node, alpha in settled_alpha.items():
            delta = alpha_min - alpha
            if delta < 0:
                continue  # settled at exactly alpha_min under fp noise
            if node == S_NODE:
                self.tau_s += delta
            elif node == T_NODE:
                continue  # α == α_min by construction
            elif self.is_provider(node):
                tau = self.q_tau[node] + delta
                self.q_tau[node] = tau
                if tau > self._tau_max:
                    self._tau_max = tau
            else:
                self.p_tau[self.customer_index(node)] += delta

    def augment_with_state(self, path_nodes, alpha_min, state) -> None:
        """Augment using a Dijkstra state's settled set directly.

        Functionally identical to ``augment(path, α_min,
        state.settled_alpha_for_update())``; the array backend overrides
        this with a vectorized potential update, which is why the engine
        calls this seam instead of building the settled dict itself.
        """
        self.augment(path_nodes, alpha_min, state.settled_alpha_for_update())

    @property
    def tau_max(self) -> float:
        """max{q_i.τ} — Theorem 1's certification slack.

        Only provider potentials matter: unseen edges all originate at
        providers, and customer potentials are non-negative (they only
        *help* the bound).  Tracked incrementally (potentials only move
        through :meth:`augment`, :meth:`advance_source_and_providers`, and
        :meth:`admit_customer`, all of which maintain the cache) instead
        of rescanning ``q_tau`` on every certification check.
        """
        return self._tau_max

    def advance_source_and_providers(self, offset: float) -> None:
        """Uniformly advance τ_s and every provider potential by
        ``offset`` ≥ 0 (IDA's fast-phase materialization)."""
        if offset == 0.0:
            return
        self.tau_s += offset
        q_tau = self.q_tau
        for i in range(self.nq):
            q_tau[i] += offset
        self._tau_max += offset

    def advance_customer_potentials(self, offsets) -> None:
        """Advance selected customer potentials by per-customer deltas
        (``{j: delta}``) — the second half of IDA's fast-phase
        materialization.  Going through this method (instead of writing
        ``p_tau`` directly) lets the array backend keep its scalar-path
        potential mirrors coherent."""
        for j, delta in offsets.items():
            self.p_tau[j] += delta

    def tau_lists(self):
        """(q_tau, p_tau) as cheap positionally-indexable sequences.

        The reference backend already stores potentials in Python lists;
        the array backend overrides this to return its list mirrors so
        scalar consumers (IDA's key refresh, narrow relaxations) avoid
        per-element NumPy scalar reads.
        """
        return self.q_tau, self.p_tau

    # ------------------------------------------------------------------
    # session deltas (warm-start support; see repro.core.session)
    # ------------------------------------------------------------------
    def provider_potential_floors(self) -> List[float]:
        """Per-provider lower bound on τ_q imposed by flow-carrying edges.

        A residual backward edge (p → q) for flow on (q, p) has reduced
        cost ``−d − τ_p + τ_q``, so feasibility pins ``τ_q ≥ d + τ_p``
        over q's matched customers.  Providers with no flow are unpinned
        (floor 0; τ values below 0 are never needed since distances are
        non-negative).
        """
        floors = [0.0] * self.nq
        for (i, j), entry in self.edges.items():
            if entry[2] > 0:
                pin = entry[0] + self.p_tau[j]
                if pin > floors[i]:
                    floors[i] = pin
        return floors

    def admit_customer(self, weight, provider_distances):
        """Warm-admit a new customer; returns its node id, or None when
        the current matching can no longer be proven optimal.

        The new node enters at τ = 0, so every future edge (q_i, p_new)
        must satisfy ``d_i − τ_qi ≥ 0``.  Providers with ``τ_q > d_i``
        get lowered to exactly ``d_i`` — legal only while no flow-carrying
        edge pins τ_q above it (:meth:`provider_potential_floors`).  A
        pinned provider means the residual graph would contain a negative
        cycle through the new customer (the provider should be serving it
        instead of a farther matched customer): the existing flow is no
        longer minimum-cost for its value and the caller must re-solve
        from scratch.
        """
        if weight < 0:
            raise ValueError("customer weight must be non-negative")
        need = [i for i in range(self.nq) if self.q_tau[i] > provider_distances[i]]
        if need:
            floors = self.provider_potential_floors()
            for i in need:
                if floors[i] > provider_distances[i] + 1e-9:
                    return None  # negative cycle: warm start unsound
            for i in need:
                # float() keeps the potential list homogeneous when the
                # caller hands a NumPy distance column (same value).
                self.q_tau[i] = float(provider_distances[i])
            self._tau_max = max(self.q_tau) if self.q_tau else 0.0
            if self.q_tau:
                self.tau_s = min(self.tau_s, min(self.q_tau))
        return self.add_customer_node(weight)

    def push_sink_cycle(self, cycle_nodes: Sequence[int]) -> None:
        """Push one unit around a residual cycle through the sink.

        ``cycle_nodes`` runs ``T_NODE, customer, provider, ..., customer,
        T_NODE``: the first customer gives up a unit of its sink flow, the
        last one gains it, and the bipartite edges in between alternate
        (provider, customer) pushes and (customer, provider) cancels.
        Provider usage and the matched count do not change.  Potentials
        are the caller's job (see :meth:`set_potentials`).
        """
        if cycle_nodes[0] != T_NODE or cycle_nodes[-1] != T_NODE:
            raise ValueError("sink cycle must start and end at t")
        for u, v in zip(cycle_nodes, cycle_nodes[1:], strict=False):
            if u == T_NODE:
                j = self.customer_index(v)
                if self.p_used[j] <= 0:
                    raise RuntimeError(f"customer {j} has no sink flow to cancel")
                self.p_used[j] -= 1
            elif v == T_NODE:
                j = self.customer_index(u)
                if self.p_used[j] >= self.p_cap[j]:
                    raise RuntimeError(f"customer {j} over capacity")
                self.p_used[j] += 1
            elif self.is_provider(u):
                self._push_unit(u, self.customer_index(v))
            else:
                self._pull_unit(v, self.customer_index(u))

    def set_potentials(
        self, providers: Dict[int, float], customers: Dict[int, float]
    ) -> None:
        """Overwrite selected potentials (``{id: τ}`` per side) and
        refresh the cached ``τmax``."""
        for i, tau in providers.items():
            self.q_tau[i] = tau
        for j, tau in customers.items():
            self.p_tau[j] = tau
        self._tau_max = max(self.q_tau) if self.nq else 0.0

    def add_customer_node(self, weight: int) -> int:
        """Append a customer node with τ = 0 and no edges; returns its id.

        Callers must ensure the zero potential is feasible against every
        provider first (see :meth:`admit_customer`).
        """
        if weight < 0:
            raise ValueError("customer weight must be non-negative")
        j = self.np
        self.np += 1
        self.p_cap.append(weight)
        self.p_used.append(0)
        self.p_tau.append(0.0)
        self.backward.append(dict())
        return j

    def can_remove_customer_warm(self, j: int) -> bool:
        """Is removing customer ``j`` warm-start safe?

        Releasing flow reopens the residual (s, q_i) edge of every
        saturated provider that served ``j``.  A provider that saturated
        early has a *stale* potential (τ_q stops advancing with τ_s once
        the source edge closes), so the reopened edge would carry reduced
        cost ``τ_q − τ_s < 0`` — a negative-cycle certificate violation:
        the remaining flow may no longer be minimum-cost for its value
        and the caller must re-solve from scratch.
        """
        for (i, _j), entry in self.edges.items():
            if _j != j or entry[2] <= 0:
                continue
            if (self.q_used[i] >= self.q_cap[i] and self.q_tau[i] < self.tau_s - 1e-9):
                return False
        return True

    def remove_customer_node(self, j: int) -> int:
        """Cancel customer ``j``'s flow, drop its edges, zero its weight.

        The node id stays allocated (a tombstone) so provider/customer ids
        remain positional.  Callers wanting warm-start semantics must
        check :meth:`can_remove_customer_warm` first — releasing flow can
        reopen source edges with negative reduced cost (see there).
        Returns the number of matched units released.
        """
        released = 0
        incident = [key for key in self.edges if key[1] == j]
        for key in incident:
            i, _ = key
            flow = self.edges[key][2]
            if flow > 0:
                if self.q_used[i] == self.q_cap[i]:
                    self.full_providers.discard(i)
                self.q_used[i] -= flow
                self.matched -= flow
                released += flow
            del self.edges[key]
            self.forward[i].pop(j, None)
        self.backward[j].clear()
        self.p_used[j] = 0
        self.p_cap[j] = 0
        return released

    def can_widen_provider_warm(self, i: int, capacity: int) -> bool:
        """Is raising provider ``i``'s capacity warm-start safe?

        Widening *reopens* residual edges, and a reopened edge is only
        safe while its reduced cost is still non-negative:

        * the (s, q_i) edge, if ``i`` is currently saturated — unsafe
          when τ_qi went stale (``τ_qi < τ_s``; potentials stop tracking
          the source once the edge closes);
        * any saturated flow-carrying bipartite edge whose ``min(k, w)``
          cap lifts (weighted customers only) — unsafe when
          ``d − τ_q + τ_p < 0``, which is common for matched edges.

        When this returns False the existing matching may no longer be
        optimal for its value and the caller must re-solve from scratch.
        """
        if capacity <= self.q_cap[i]:
            return True  # shrinking closes edges; never breaks feasibility
        if (self.q_used[i] >= self.q_cap[i] and self.q_tau[i] < self.tau_s - 1e-9):
            return False
        for (qi, j), entry in self.edges.items():
            if qi != i:
                continue
            d, cap, flow = entry
            if (
                flow > 0
                and flow >= cap
                and min(capacity, self.p_cap[j]) > cap
                and d - self.q_tau[i] + self.p_tau[j] < -1e-9
            ):
                return False
        return True

    def set_provider_capacity(self, i: int, capacity: int) -> None:
        """Change provider ``i``'s capacity to ``capacity`` ≥ ``q_used[i]``.

        Increases widen the residual (s, q_i) edge and lift the per-edge
        capacities ``min(k, w)`` of ``i``'s bipartite edges; callers
        wanting warm-start semantics must check
        :meth:`can_widen_provider_warm` first (reopened edges can carry
        negative reduced cost).  Decreases below current usage would
        require cancelling flow along min-cost paths; callers must
        re-solve from scratch instead (the Matcher falls back to a cold
        solve).
        """
        if capacity < self.q_used[i]:
            raise ValueError(
                f"capacity {capacity} below current usage {self.q_used[i]}; "
                "cold re-solve required"
            )
        self.q_cap[i] = capacity
        now_saturated = self.q_used[i] >= capacity
        if now_saturated:
            self.full_providers.add(i)
        else:
            self.full_providers.discard(i)
        # Re-derive per-edge capacities; a lifted cap can resurrect a
        # saturated edge into the forward residual adjacency.
        for (qi, j), entry in self.edges.items():
            if qi != i:
                continue
            new_cap = max(entry[2], min(capacity, self.p_cap[j]))
            entry[1] = new_cap
            if entry[2] < new_cap:
                self.forward[i].setdefault(j, entry[0])
            else:
                self.forward[i].pop(j, None)

    # ------------------------------------------------------------------
    # result extraction
    # ------------------------------------------------------------------
    def edge_triples(self) -> List[Tuple[int, int, float]]:
        """Every Esub edge as (provider, customer, distance), in insertion
        order — the input a kernel replay needs to rebuild the subgraph."""
        return [(i, j, entry[0]) for (i, j), entry in self.edges.items()]

    def matching_flows(self) -> List[Tuple[int, int, float, int]]:
        """Positive-flow edges as (provider, customer, distance, units)."""
        return [
            (i, j, entry[0], entry[2])
            for (i, j), entry in self.edges.items()
            if entry[2] > 0
        ]

    def matching_pairs(self) -> List[Tuple[int, int, float]]:
        """Matched (provider, customer, distance) triples, one per unit."""
        out = []
        for i, j, d, units in self.matching_flows():
            out.extend([(i, j, d)] * units)
        return out

    def matching_cost(self) -> float:
        """Ψ(M): summed distances of matched units (Equation 1)."""
        return sum(entry[0] * entry[2] for entry in self.edges.values())

    def spare_capacity(self) -> int:
        """Total unused provider capacity Σ (q.k − used) — the headroom the
        sharded engine's reconciliation pass checks before moving a
        customer into this network's shard."""
        return sum(self.q_cap) - sum(self.q_used)


def _nonneg(x: float) -> float:
    """Clamp float noise; a genuinely negative reduced cost is a bug."""
    if x < 0.0:
        if x < -1e-6:
            raise NegativeReducedCostError(f"negative reduced cost {x}")
        return 0.0
    return x


def _is_scalar(value) -> bool:
    """One provider id (broadcast over the customer column) or a column?"""
    return not hasattr(value, "__len__")
