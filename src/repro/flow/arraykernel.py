"""Array-backed flow kernel: columnar residual network + vectorized
Dijkstra relaxation.

The reference backend (:mod:`repro.flow.graph` + :mod:`repro.flow.dijkstra`)
stores the residual bipartite graph as dict-of-dicts adjacency and relaxes
edges one Python bytecode loop iteration at a time.  That is the right
substrate for tracing the paper's algorithms, but the wrong one for the
solver's innermost loop: at Figure-10 scales a single Dijkstra run touches
thousands of edges, and per-edge interpreter overhead dominates.

This module keeps the exact same *semantics* behind the backend seam
(:mod:`repro.flow.backend`) while putting the hot data in flat typed
arrays:

* node potentials ``q_tau``/``p_tau`` are ``float64`` vectors, so a whole
  adjacency's reduced costs evaluate as a handful of vector operations;
* edges arrive in bulk: :meth:`ArrayFlowNetwork.add_edges` filters,
  dedups, and appends a whole ``(provider, customers, distances)`` column
  batch — the shape the fused supply pipeline (columnar range searches,
  ANN id/distance streaming, SSPA row oracles) produces — with array
  operations instead of one ``add_edge`` call per edge;
* each provider's forward-residual adjacency lives in *compact* parallel
  arrays (Dijkstra target index + distance) holding exactly the open
  (``flow < cap``) edges — saturation swap-removes an edge, cancellation
  re-appends it, mirroring the reference backend's dict membership — so
  a wide relaxation is one masked compare-and-update over contiguous
  memory;
* :class:`ArrayDijkstraState` relaxes a wide forward block with NumPy
  slice arithmetic and batched heap pushes, against a lazily-maintained
  NumPy label shadow (see its docstring).

Two deliberate hybrid choices keep the kernel fast where arrays lose:
scalar indexing into NumPy arrays costs ~4x a CPython list access, so
(1) narrow adjacencies (fewer than :data:`SCALAR_FAN_LIMIT` edges — e.g.
customers' backward fans, or provider fans early in an incremental
solve) are relaxed by a plain Python loop over a tuple mirror of the
same compact adjacency, and (2) cold columnar data (edge ``src``/
``dst``/``dist``/``cap``/``flow``, node capacities and usage counters)
stays in Python lists.

Floating-point note: every reduced cost is evaluated with the same
operation order as the reference backend (``(d − τ_q) + τ_p``, clamp,
then ``+ base``), so labels — and therefore matchings, costs, and |Esub| —
are bit-identical between backends.  The equivalence suite asserts this.

Potentials are additionally mirrored into Python lists (``tau_lists``):
a NumPy scalar read costs ~4x a list read, and the narrow relaxations,
``out_edges``, and IDA's per-provider key refresh are exactly such scalar
consumers.  Every potential mutation goes through a network method that
keeps the mirrors coherent (the mirrors hold the very same float64
values, read back from the arrays, so nothing can drift); writing the
``q_tau`` / ``p_tau`` arrays directly from outside bypasses that and is
unsupported on this backend.
"""

from __future__ import annotations

import heapq
from typing import List, Sequence, Tuple

import numpy as np

from repro.flow.dijkstra import _OFF, INF, DijkstraState, _tie_wins
from repro.flow.graph import (
    S_NODE,
    CCAFlowNetwork,
    NegativeReducedCostError,
    _is_scalar,
    _nonneg,
)

_INITIAL_FAN = 8

# Below this fan-out the Python-loop relaxation beats NumPy's fixed
# per-call overhead.  The list-first label/potential mirrors made the
# scalar loop ~2x cheaper per edge, which pushed the measured crossover
# from ~50 up to ~200-300 edges on CPython 3.11 (re-tuned on the Fig. 10
# |Q| ∈ {250, 500, 1000} end-to-end sweep).
SCALAR_FAN_LIMIT = 256


def _grown(arr: np.ndarray, needed: int) -> np.ndarray:
    """Return ``arr`` or a doubled-capacity copy that fits ``needed``."""
    if needed <= arr.size:
        return arr
    new_size = max(needed, arr.size * 2, _INITIAL_FAN)
    out = np.empty(new_size, dtype=arr.dtype)
    out[: arr.size] = arr
    return out


class ArrayFlowNetwork(CCAFlowNetwork):
    """Columnar drop-in for :class:`CCAFlowNetwork`.

    Shares all pure graph logic (node addressing, augmentation paths,
    result extraction) with the reference network and overrides only the
    storage-touching primitives.
    """

    def __init__(
        self,
        provider_capacities: Sequence[int],
        customer_weights: Sequence[int],
    ):
        q_cap = [int(k) for k in provider_capacities]
        p_cap = [int(w) for w in customer_weights]
        if any(k < 0 for k in q_cap):
            raise ValueError("provider capacities must be non-negative")
        if any(w < 0 for w in p_cap):
            raise ValueError("customer weights must be non-negative")
        self.nq = len(q_cap)
        self.np = len(p_cap)
        self.q_cap = q_cap
        self.p_cap = p_cap
        self.q_used = [0] * self.nq
        self.p_used = [0] * self.np
        # Hot node data: potentials as vectors (bulk-read by relaxation),
        # plus the providers-with-residual-capacity mask for the source
        # relaxation (maintained incrementally).
        self.q_tau = np.zeros(self.nq, dtype=np.float64)
        self.p_tau = np.zeros(self.np, dtype=np.float64)
        # Python-list mirrors of the potentials for the scalar hot spots
        # (see the module docstring); every mutator below resyncs them.
        self._q_tau_py: List[float] = [0.0] * self.nq
        self._p_tau_py: List[float] = [0.0] * self.np
        self.q_open = np.array([k > 0 for k in q_cap], dtype=bool)
        self.tau_s = 0.0
        # Edge columns: append-only Python lists (touched one edge at a
        # time; ids are stable, removed edges become tombstones).
        self.e_src: List[int] = []
        self.e_dst: List[int] = []
        self.e_dist: List[float] = []
        self.e_cap: List[int] = []
        self.e_flow: List[int] = []
        self.e_dead: List[bool] = []
        # Compact per-provider forward-residual adjacency: parallel
        # (target, distance) arrays + a Python tuple mirror
        # (target, customer, distance, eid) for the scalar path.
        # Membership ⇔ the edge is open (flow < cap), exactly like the
        # reference backend's forward dicts; _e_pos[eid] is the edge's
        # position in its provider's adjacency (-1 when saturated/dead).
        self._fwd_tgt: List[np.ndarray] = [
            np.empty(0, dtype=np.int64) for _ in range(self.nq)
        ]
        self._fwd_dist: List[np.ndarray] = [
            np.empty(0, dtype=np.float64) for _ in range(self.nq)
        ]
        self._fwd_py: List[List[Tuple[int, int, float, int]]] = [
            [] for _ in range(self.nq)
        ]
        self._fwd_n: List[int] = [0] * self.nq
        self._e_pos: List[int] = []
        # Per-customer backward adjacency mirrored as Python-native
        # [eid, provider, distance] entries (flow-carrying edges only,
        # like the reference backend's dicts): backward fans are tiny.
        self._bwd: List[List[List]] = [[] for _ in range(self.np)]
        # (i << 32) | j -> edge id.  A packed int key hashes ~2x faster
        # than a tuple and lets the bulk path dedup without building one
        # tuple per candidate edge.
        self._eid = {}
        self._live = 0
        self.matched = 0
        self.augmentations = 0
        self.full_providers = {i for i, k in enumerate(q_cap) if k <= 0}
        self._tau_max = 0.0

    # ------------------------------------------------------------------
    # compact forward adjacency maintenance
    # ------------------------------------------------------------------
    def _fwd_append(self, i: int, eid: int, j: int, distance: float) -> None:
        n = self._fwd_n[i]
        if n >= self._fwd_tgt[i].size:
            self._fwd_tgt[i] = _grown(self._fwd_tgt[i], n + 1)
            self._fwd_dist[i] = _grown(self._fwd_dist[i], n + 1)
        tgt = self.nq + j + _OFF
        self._fwd_tgt[i][n] = tgt
        self._fwd_dist[i][n] = distance
        self._fwd_py[i].append((tgt, j, distance, eid))
        self._e_pos[eid] = n
        self._fwd_n[i] = n + 1

    def _fwd_remove(self, i: int, eid: int) -> None:
        pos = self._e_pos[eid]
        if pos < 0:
            return
        n = self._fwd_n[i] - 1
        py = self._fwd_py[i]
        if pos != n:
            moved = py[n]
            py[pos] = moved
            self._e_pos[moved[3]] = pos
            self._fwd_tgt[i][pos] = self._fwd_tgt[i][n]
            self._fwd_dist[i][pos] = self._fwd_dist[i][n]
        py.pop()
        self._fwd_n[i] = n
        self._e_pos[eid] = -1

    # ------------------------------------------------------------------
    # Esub maintenance
    # ------------------------------------------------------------------
    def add_edge(self, i: int, j: int, distance: float) -> bool:
        if distance < 0:
            raise ValueError("edge length must be non-negative")
        i = int(i)
        j = int(j)
        if (i << 32) | j in self._eid:
            return False
        capacity = min(self.q_cap[i], self.p_cap[j])
        if capacity == 0:
            return False
        distance = float(distance)
        eid = len(self.e_src)
        self.e_src.append(i)
        self.e_dst.append(j)
        self.e_dist.append(distance)
        self.e_cap.append(capacity)
        self.e_flow.append(0)
        self.e_dead.append(False)
        self._e_pos.append(-1)
        self._eid[(i << 32) | j] = eid
        self._live += 1
        self._fwd_append(i, eid, j, distance)
        return True

    def add_edges(self, providers, customers, distances) -> int:
        """Vectorized bulk insert — semantics identical to the per-edge
        loop (:meth:`CCAFlowNetwork.add_edges` is the specification).

        The hot shape is one provider against a customer/distance column
        (RIA range supply, SSPA row build): candidate filtering — batch
        first-occurrence dedup, duplicate masking against Esub, the
        ``min(k, w) > 0`` capacity gate — and the CSR-block append into
        the provider's forward adjacency all run as array operations.
        Multi-provider columns take the generic per-edge path.
        """
        if not _is_scalar(providers):
            return super().add_edges(providers, customers, distances)
        i = int(providers)
        j_arr = np.asarray(customers, dtype=np.int64)
        d_arr = np.asarray(distances, dtype=np.float64)
        if j_arr.shape != d_arr.shape:
            raise ValueError("edge column lengths differ")
        if j_arr.size == 0:
            return 0
        if d_arr.min() < 0:
            raise ValueError("edge length must be non-negative")
        cap_i = self.q_cap[i]
        if cap_i == 0:
            return 0
        if j_arr.size == 1:
            return int(self.add_edge(i, int(j_arr[0]), float(d_arr[0])))
        # First occurrence wins within the batch (np.unique returns the
        # index of each value's first appearance; re-sorting those
        # indices restores the original insertion order).
        _, first = np.unique(j_arr, return_index=True)
        if first.size != j_arr.size:
            first.sort()
            j_arr = j_arr[first]
            d_arr = d_arr[first]
        # Zero-capacity customers can never carry flow: same gate as the
        # scalar path's min(k, w) == 0 rejection.
        p_cap = np.asarray(self.p_cap, dtype=np.int64)
        caps = np.minimum(cap_i, p_cap[j_arr])
        keep = caps > 0
        if not keep.all():
            j_arr = j_arr[keep]
            d_arr = d_arr[keep]
            caps = caps[keep]
        if not j_arr.size:
            return 0
        # Duplicate masking against the edges already in Esub.
        keys = ((i << 32) | j_arr).tolist()
        eid_map = self._eid
        if self._fwd_n[i] or self.q_used[i]:
            fresh = [key not in eid_map for key in keys]
            if not all(fresh):
                mask = np.asarray(fresh, dtype=bool)
                j_arr = j_arr[mask]
                d_arr = d_arr[mask]
                caps = caps[mask]
                keys = [k for k, f in zip(keys, fresh, strict=False) if f]
        n = j_arr.size
        if not n:
            return 0
        # Columnar append: edge registry...
        base = len(self.e_src)
        j_list = j_arr.tolist()
        d_list = d_arr.tolist()
        eids = range(base, base + n)
        self.e_src.extend([i] * n)
        self.e_dst.extend(j_list)
        self.e_dist.extend(d_list)
        self.e_cap.extend(caps.tolist())
        self.e_flow.extend([0] * n)
        self.e_dead.extend([False] * n)
        for key, eid in zip(keys, eids, strict=False):
            eid_map[key] = eid
        self._live += n
        # ...and the CSR-style block append into provider i's compact
        # forward adjacency (one slice assignment per column).
        n0 = self._fwd_n[i]
        if n0 + n > self._fwd_tgt[i].size:
            self._fwd_tgt[i] = _grown(self._fwd_tgt[i], n0 + n)
            self._fwd_dist[i] = _grown(self._fwd_dist[i], n0 + n)
        tgt_arr = j_arr + (self.nq + _OFF)
        self._fwd_tgt[i][n0 : n0 + n] = tgt_arr
        self._fwd_dist[i][n0 : n0 + n] = d_arr
        self._fwd_py[
            i
        ].extend(zip(tgt_arr.tolist(), j_list, d_list, eids, strict=False))
        self._e_pos.extend(range(n0, n0 + n))
        self._fwd_n[i] = n0 + n
        return n

    @property
    def n_edges(self) -> int:
        """Total edge slots ever allocated (including dead tombstones)."""
        return len(self.e_src)

    def has_edge(self, i: int, j: int) -> bool:
        return (int(i) << 32) | int(j) in self._eid

    def edge_flow(self, i: int, j: int) -> int:
        eid = self._eid.get((int(i) << 32) | int(j))
        return 0 if eid is None else self.e_flow[eid]

    def edge_residual(self, i: int, j: int) -> int:
        eid = self._eid.get((int(i) << 32) | int(j))
        if eid is None:
            return 0
        return self.e_cap[eid] - self.e_flow[eid]

    @property
    def edge_count(self) -> int:
        return self._live

    def out_edges(self, node: int):
        """Residual out-edges as (target, reduced_cost) — API parity with
        the reference network (the array Dijkstra inlines this)."""
        if self.is_provider(node):
            i = int(node)
            q_tau = self._q_tau_py[i]
            p_tau = self._p_tau_py
            for tgt, j, d, _eid in self._fwd_py[i]:
                yield tgt - _OFF, _nonneg(d - q_tau + p_tau[j])
        else:
            j = self.customer_index(node)
            p_tau = self._p_tau_py[j]
            q_tau = self._q_tau_py
            for _, i, d in self._bwd[j]:
                yield i, _nonneg(-d - p_tau + q_tau[i])

    # ------------------------------------------------------------------
    # flow pushes (called from the inherited apply_path)
    # ------------------------------------------------------------------
    def apply_path(self, path_nodes: Sequence[int]) -> None:
        # Same as the reference implementation, plus q_open maintenance
        # for the vectorized source relaxation.
        super().apply_path(path_nodes)
        first = int(path_nodes[1])
        if self.q_used[first] >= self.q_cap[first]:
            self.q_open[first] = False

    def _push_unit(self, i: int, j: int) -> None:
        i = int(i)
        j = int(j)
        eid = self._eid[(i << 32) | j]
        flow = self.e_flow[eid] + 1
        if flow > self.e_cap[eid]:
            raise RuntimeError(f"edge ({i},{j}) over capacity")
        self.e_flow[eid] = flow
        if flow >= self.e_cap[eid]:
            self._fwd_remove(i, eid)
        if flow == 1:
            self._bwd[j].append([eid, i, self.e_dist[eid]])

    def _pull_unit(self, i: int, j: int) -> None:
        i = int(i)
        j = int(j)
        eid = self._eid[(i << 32) | j]
        flow = self.e_flow[eid] - 1
        if flow < 0:
            raise RuntimeError(f"edge ({i},{j}) has no flow to cancel")
        self.e_flow[eid] = flow
        if self._e_pos[eid] < 0:
            self._fwd_append(i, eid, j, self.e_dist[eid])
        if flow == 0:
            entries = self._bwd[j]
            for k, entry in enumerate(entries):
                if entry[0] == eid:
                    del entries[k]
                    break

    # ------------------------------------------------------------------
    # potentials (vectorized overrides)
    # ------------------------------------------------------------------
    # ------------------------------------------------------------------
    # reduced costs over the list mirrors (PUA repairs call these once
    # per insert; a NumPy scalar read per call is pure overhead)
    # ------------------------------------------------------------------
    def reduced_cost_sq(self, i: int) -> float:
        return _nonneg(self._q_tau_py[i] - self.tau_s)

    def reduced_cost_qp(self, i: int, j: int, distance: float) -> float:
        return _nonneg(distance - self._q_tau_py[i] + self._p_tau_py[j])

    def reduced_cost_pq(self, j: int, i: int, distance: float) -> float:
        return _nonneg(-distance - self._p_tau_py[j] + self._q_tau_py[i])

    def reduced_cost_pt(self, j: int) -> float:
        return _nonneg(-self._p_tau_py[j])

    def augment(self, path_nodes, alpha_min, settled_alpha) -> None:
        # The base implementation writes the potential arrays elementwise
        # (cross-backend states, unit tests); resync the mirrors after.
        super().augment(path_nodes, alpha_min, settled_alpha)
        self._q_tau_py = self.q_tau.tolist()
        self._p_tau_py = self.p_tau.tolist()

    def augment_with_state(self, path_nodes, alpha_min, state) -> None:
        """Algorithm-1 potential update straight off the Dijkstra state.

        Walks the settled order and the relayed customers once (the same
        nodes the reference backend's ``settled_items`` yields), advances
        the *list mirrors* with plain float arithmetic, and commits the
        touched rows to the NumPy potential vectors as two fancy-index
        scatters — no per-node NumPy scalar traffic in either direction.
        """
        if not isinstance(state, ArrayDijkstraState):
            self.augment(path_nodes, alpha_min, state.settled_alpha_for_update())
            return
        self.apply_path(path_nodes)
        alpha = state._alpha
        settled = state._settled
        s_idx = S_NODE + _OFF
        if settled[s_idx] and alpha_min > 0.0:
            # s settles at α = 0, so its delta is α_min itself.
            self.tau_s += alpha_min
        base_c = _OFF + self.nq
        q_py = self._q_tau_py
        p_py = self._p_tau_py
        prov_t: List[int] = []
        prov_v: List[float] = []
        cust_t: List[int] = []
        cust_v: List[float] = []
        top = self._tau_max
        seen = set()
        for idx in state._settled_order:
            if not settled[idx] or idx in seen or idx == s_idx:
                continue
            seen.add(idx)
            delta = alpha_min - alpha[idx]
            if delta <= 0:
                continue  # settled at exactly alpha_min under fp noise
            if idx >= base_c:
                j = idx - base_c
                v = p_py[j] + delta
                p_py[j] = v
                cust_t.append(j)
                cust_v.append(v)
            else:
                i = idx - _OFF
                v = q_py[i] + delta
                q_py[i] = v
                prov_t.append(i)
                prov_v.append(v)
                if v > top:
                    top = v
        # Relayed customers appear once each; those beyond the sink are
        # not settled (delta < 0) and most of the list is usually those.
        for idx in state._relayed:
            delta = alpha_min - alpha[idx]
            if delta > 0:
                j = idx - base_c
                v = p_py[j] + delta
                p_py[j] = v
                cust_t.append(j)
                cust_v.append(v)
        if prov_t:
            self.q_tau[prov_t] = prov_v
            self._tau_max = top
        if cust_t:
            self.p_tau[cust_t] = cust_v

    def advance_source_and_providers(self, offset: float) -> None:
        if offset == 0.0:
            return
        self.tau_s += offset
        self.q_tau += offset
        self._q_tau_py = self.q_tau.tolist()
        self._tau_max += offset

    def advance_customer_potentials(self, offsets) -> None:
        p_tau = self.p_tau
        p_py = self._p_tau_py
        for j, delta in offsets.items():
            p_tau[j] += delta
            p_py[j] = p_tau[j].item()

    def tau_lists(self):
        return self._q_tau_py, self._p_tau_py

    # ------------------------------------------------------------------
    # session deltas
    # ------------------------------------------------------------------
    def provider_potential_floors(self) -> List[float]:
        floors = [0.0] * self.nq
        p_tau = self.p_tau
        for eid, flow in enumerate(self.e_flow):
            if flow > 0:
                pin = self.e_dist[eid] + float(p_tau[self.e_dst[eid]])
                i = self.e_src[eid]
                if pin > floors[i]:
                    floors[i] = pin
        return floors

    def admit_customer(self, weight, provider_distances):
        if weight < 0:
            raise ValueError("customer weight must be non-negative")
        d = np.asarray(provider_distances, dtype=np.float64)
        need = self.q_tau > d
        if need.any():
            floors = np.asarray(self.provider_potential_floors())
            if (floors[need] > d[need] + 1e-9).any():
                return None  # negative cycle: warm start unsound
            self.q_tau[need] = d[need]
            self._q_tau_py = self.q_tau.tolist()
            self._tau_max = float(self.q_tau.max()) if self.nq else 0.0
            if self.nq:
                self.tau_s = min(self.tau_s, float(self.q_tau.min()))
        return self.add_customer_node(weight)

    def add_customer_node(self, weight: int) -> int:
        if weight < 0:
            raise ValueError("customer weight must be non-negative")
        j = self.np
        self.np += 1
        self.p_cap.append(int(weight))
        self.p_used.append(0)
        self.p_tau = np.append(self.p_tau, 0.0)
        self._p_tau_py.append(0.0)
        self._bwd.append([])
        return j

    def can_remove_customer_warm(self, j: int) -> bool:
        j = int(j)
        tau_s = self.tau_s - 1e-9
        for eid, _i, _d in self._bwd[j]:
            i = self.e_src[eid]
            if self.q_used[i] >= self.q_cap[i] and self.q_tau[i] < tau_s:
                return False
        return True

    def remove_customer_node(self, j: int) -> int:
        j = int(j)
        released = 0
        for eid, dst in enumerate(self.e_dst):
            if dst != j or self.e_dead[eid]:
                continue
            i = self.e_src[eid]
            flow = self.e_flow[eid]
            if flow > 0:
                if self.q_used[i] == self.q_cap[i]:
                    self.full_providers.discard(i)
                    self.q_open[i] = True
                self.q_used[i] -= flow
                self.matched -= flow
                released += flow
            self._fwd_remove(i, eid)
            self.e_flow[eid] = 0
            self.e_cap[eid] = 0
            self.e_dead[eid] = True
            del self._eid[(i << 32) | j]
            self._live -= 1
        self._bwd[j] = []
        self.p_used[j] = 0
        self.p_cap[j] = 0
        return released

    def can_widen_provider_warm(self, i: int, capacity: int) -> bool:
        i = int(i)
        capacity = int(capacity)
        if capacity <= self.q_cap[i]:
            return True  # shrinking closes edges; never breaks feasibility
        if self.q_used[i] >= self.q_cap[i] and float(self.q_tau[i]) < self.tau_s - 1e-9:
            return False
        q_tau_i = float(self.q_tau[i])
        for eid, src in enumerate(self.e_src):
            if src != i or self.e_dead[eid]:
                continue
            flow = self.e_flow[eid]
            cap = self.e_cap[eid]
            j = self.e_dst[eid]
            if (
                flow > 0
                and flow >= cap
                and min(capacity, self.p_cap[j]) > cap
                and self.e_dist[eid] - q_tau_i + float(self.p_tau[j])
                < -1e-9
            ):
                return False
        return True

    def set_provider_capacity(self, i: int, capacity: int) -> None:
        i = int(i)
        capacity = int(capacity)
        if capacity < self.q_used[i]:
            raise ValueError(
                f"capacity {capacity} below current usage "
                f"{self.q_used[i]}; cold re-solve required"
            )
        self.q_cap[i] = capacity
        now_saturated = self.q_used[i] >= capacity
        if now_saturated:
            self.full_providers.add(i)
        else:
            self.full_providers.discard(i)
        self.q_open[i] = not now_saturated
        for eid, src in enumerate(self.e_src):
            if src != i or self.e_dead[eid]:
                continue
            flow = self.e_flow[eid]
            new_cap = max(flow, min(capacity, self.p_cap[self.e_dst[eid]]))
            self.e_cap[eid] = new_cap
            if flow < new_cap:
                if self._e_pos[eid] < 0:
                    self._fwd_append(i, eid, self.e_dst[eid], self.e_dist[eid])
            elif self._e_pos[eid] >= 0:
                self._fwd_remove(i, eid)

    # ------------------------------------------------------------------
    # result extraction
    # ------------------------------------------------------------------
    def edge_triples(self) -> List[Tuple[int, int, float]]:
        return [
            (self.e_src[eid], self.e_dst[eid], self.e_dist[eid])
            for eid in range(len(self.e_src))
            if not self.e_dead[eid]
        ]

    def matching_flows(self) -> List[Tuple[int, int, float, int]]:
        return [
            (self.e_src[eid], self.e_dst[eid], self.e_dist[eid], flow)
            for eid, flow in enumerate(self.e_flow)
            if flow > 0
        ]

    def matching_cost(self) -> float:
        # Sequential sum in edge-insertion order so the float result is
        # bit-identical to the reference backend's.
        total = 0.0
        for eid, flow in enumerate(self.e_flow):
            total += self.e_dist[eid] * flow
        return total

    # spare_capacity() is inherited from CCAFlowNetwork: q_cap/q_used are
    # plain lists in both kernels, so the base accounting applies as-is.


class ArrayDijkstraState(DijkstraState):
    """Dijkstra over :class:`ArrayFlowNetwork` columns, wide fans
    vectorized.

    Labels live in the same Python lists as the reference
    :class:`DijkstraState` (the pop loop, narrow relaxations, and path
    extraction are scalar code, where list reads beat NumPy scalar reads
    ~4x), so all of the parent's machinery is inherited unchanged.  What
    the subclass adds is a NumPy *shadow* of the label vector for the
    wide relaxations: a node's whole forward block is relaxed as slice
    arithmetic (reduced costs, improvement mask against the shadow,
    batched writes) instead of a per-edge loop.

    The shadow is deliberately *stale*: scalar-path improvements never
    write it (that bookkeeping would cost two list appends per
    improvement to serve a handful of wide relaxations), so it is merely
    an upper bound on the true labels — labels only decrease, and only
    wide relaxations write the shadow down.  The vectorized improvement
    mask filtered against an upper bound admits false positives but
    never drops a real improvement, and the per-candidate commit loop
    re-checks against the true label list, so results are bit-identical
    to the reference.  Spurious candidates cost one scalar compare each
    and stay rare (exactly the fan targets scalar paths improved since
    the provider's last wide relaxation).
    """

    __slots__ = ("_np_alpha",)

    def __init__(self, net: ArrayFlowNetwork):
        self.net = net
        size = net.nq + net.np + _OFF
        self._alpha = [INF] * size
        self._prev = [-3] * size
        self._settled = [False] * size
        self._settled_order = []
        self._relayed = []
        self._heap = []
        self.pops = 0
        self._alpha[S_NODE + _OFF] = 0.0
        # Allocated on first wide relaxation (all-INF is a valid upper
        # bound); searches that never go wide skip the allocation.
        self._np_alpha = None
        heapq.heappush(self._heap, (0.0, S_NODE + _OFF))

    def improve(self, node: int, alpha: float, prev: int) -> bool:
        idx = node + _OFF
        if alpha >= self._alpha[idx]:
            return False
        # float() keeps heap entries and labels homogeneous when the
        # offered value came from NumPy scalar arithmetic (PUA repairs).
        alpha = float(alpha)
        self._alpha[idx] = alpha
        self._prev[idx] = prev + _OFF
        if self._passes_through(idx):
            self._relay(idx, alpha)
        else:
            self._settled[idx] = False
            heapq.heappush(self._heap, (alpha, idx))
        return True

    def _relax_backward(self, idx: int, base: float) -> None:
        # The reference loop over the Python-native backward mirror.
        net = self.net
        alpha = self._alpha
        prev = self._prev
        settled = self._settled
        j = idx - _OFF - net.nq
        p_tau_j = net._p_tau_py[j]
        q_tau = net._q_tau_py
        for _, i, d in net._bwd[j]:
            w = q_tau[i] - d - p_tau_j
            a = base + (w if w > 0.0 else 0.0)
            t = i + _OFF
            if a < alpha[t]:
                alpha[t] = a
                prev[t] = idx
                settled[t] = False
                heapq.heappush(self._heap, (a, t))
            elif (
                a == alpha[t]
                and not settled[t]
                and _tie_wins(alpha, prev, t, base, idx)
            ):
                prev[t] = idx

    def run(self) -> bool:
        """The reference pop loop with the customer relaxation inlined.

        Only customers with an open sink edge are ever popped (see
        :mod:`repro.flow.dijkstra`); their relaxation is one tiny backward
        fan plus the sink edge, cheap enough that method dispatch would
        dominate it, so it runs inline and only source/provider pops pay
        the dispatch.  Identical pop order, labels, and predecessors to
        :class:`DijkstraState`.
        """
        heap = self._heap
        alpha = self._alpha
        settled = self._settled
        order = self._settled_order
        prev = self._prev
        net = self.net
        nq = net.nq
        bwd = net._bwd
        # Potentials are frozen while an iteration's search is live (they
        # only move in augment), so binding the mirrors once per run is
        # safe — including across PUA resumes.
        p_tau = net._p_tau_py
        q_tau = net._q_tau_py
        push = heapq.heappush
        pop = heapq.heappop
        pops = 0
        while heap:
            a, idx = pop(heap)
            if a > alpha[idx] or settled[idx]:
                continue  # stale entry or already settled
            if idx == 0:  # T_NODE + _OFF
                # Leave t un-settled so a later resume can improve it.
                push(heap, (a, idx))
                self.pops += pops
                return True
            settled[idx] = True
            order.append(idx)
            pops += 1
            node = idx - _OFF
            if node >= nq:  # open customer: inline relaxation
                j = node - nq
                p_tau_j = p_tau[j]
                for _, i, d in bwd[j]:
                    w = q_tau[i] - d - p_tau_j
                    av = a + (w if w > 0.0 else 0.0)
                    t = i + _OFF
                    if av < alpha[t]:
                        alpha[t] = av
                        prev[t] = idx
                        settled[t] = False
                        push(heap, (av, t))
                    elif (
                        av == alpha[t]
                        and not settled[t]
                        and _tie_wins(alpha, prev, t, a, idx)
                    ):
                        prev[t] = idx
                w = -p_tau_j
                av = a + (w if w > 0.0 else 0.0)
                if av < alpha[0]:
                    alpha[0] = av
                    prev[0] = idx
                    push(heap, (av, 0))
            else:
                self._relax_out(idx, a)
        self.pops += pops
        return alpha[0] < INF

    def _shadow(self) -> np.ndarray:
        """The stale label upper bound, allocated on first use."""
        np_alpha = self._np_alpha
        if np_alpha is None:
            np_alpha = np.full(len(self._alpha), INF, dtype=np.float64)
            np_alpha[S_NODE + _OFF] = 0.0
            self._np_alpha = np_alpha
        return np_alpha

    def _relax_out(self, idx: int, base: float) -> None:
        """Relax the out-edges of the source or of a provider."""
        net = self.net
        alpha = self._alpha
        prev = self._prev
        settled = self._settled
        heap = self._heap
        push = heapq.heappush
        nq = net.nq
        if idx == S_NODE + _OFF:
            if not nq:
                return
            if nq < SCALAR_FAN_LIMIT:
                # Narrow provider set: the reference backend's scalar
                # source loop, over the potential list mirrors.
                tau_s = net.tau_s
                q_tau = net._q_tau_py
                q_used = net.q_used
                q_cap = net.q_cap
                for i in range(nq):
                    if q_used[i] < q_cap[i]:
                        w = q_tau[i] - tau_s
                        if w < -1e-6:
                            # Corrupted residual state (see the reference
                            # kernel).
                            raise NegativeReducedCostError(
                                f"negative reduced cost {w} on (s, q_{i})"
                            )
                        a = base + (w if w > 0.0 else 0.0)
                        t = i + _OFF
                        if a < alpha[t]:
                            alpha[t] = a
                            prev[t] = idx
                            settled[t] = False
                            push(heap, (a, t))
                return
            # Same op order as the reference: w, clamp, then + base.
            w = net.q_tau - net.tau_s
            if (w < -1e-6).any() and (net.q_open & (w < -1e-6)).any():
                i = int(np.nonzero(net.q_open & (w < -1e-6))[0][0])
                # Corrupted residual state (see the reference kernel).
                raise NegativeReducedCostError(
                    f"negative reduced cost {float(w[i])} on (s, q_{i})"
                )
            np.maximum(w, 0.0, out=w)
            w += base
            np_alpha = self._shadow()
            ok = net.q_open & (w < np_alpha[_OFF : _OFF + nq])
            upd = np.nonzero(ok)[0]
            if upd.size:
                targets = upd + _OFF
                values = w[upd]
                np_alpha[targets] = values
                for av, tv in zip(values.tolist(), targets.tolist(), strict=False):
                    # Re-check against the true labels: the shadow is an
                    # upper bound, so the mask can admit false positives.
                    if av < alpha[tv]:
                        alpha[tv] = av
                        settled[tv] = False
                        prev[tv] = idx
                        push(heap, (av, tv))
            return
        # A provider (customers never get here: run() relaxes open ones
        # inline, and pass-through ones are relayed, never popped).
        node = idx - _OFF
        n = net._fwd_n[node]
        if not n:
            return
        if n < SCALAR_FAN_LIMIT:
            q_tau = net._q_tau_py
            q_tau_i = q_tau[node]
            p_tau = net._p_tau_py
            p_used = net.p_used
            p_cap = net.p_cap
            bwd = net._bwd
            relayed = self._relayed
            for tgt, j, d, _eid in net._fwd_py[node]:
                # Reference op order: (d − τ_q) + τ_p, clamp, + base.
                w = d - q_tau_i + p_tau[j]
                a = base + (w if w > 0.0 else 0.0)
                if a < alpha[tgt]:
                    alpha[tgt] = a
                    prev[tgt] = idx
                    if p_used[j] < p_cap[j]:
                        settled[tgt] = False
                        push(heap, (a, tgt))
                        continue
                    # Pass-through customer: the reference _relay,
                    # inlined (this is the hottest loop of a search).
                    if not settled[tgt]:
                        settled[tgt] = True
                        relayed.append(tgt)
                    p_tau_j = p_tau[j]
                    for _, i, d2 in bwd[j]:
                        w = q_tau[i] - d2 - p_tau_j
                        a2 = a + (w if w > 0.0 else 0.0)
                        t = i + _OFF
                        if a2 < alpha[t]:
                            alpha[t] = a2
                            prev[t] = tgt
                            settled[t] = False
                            push(heap, (a2, t))
                        elif (
                            a2 == alpha[t]
                            and not settled[t]
                            and _tie_wins(alpha, prev, t, a, tgt)
                        ):
                            prev[t] = tgt
            return
        # Wide block: one masked compare-and-update over the
        # provider's contiguous (target, distance) columns.
        w = net._fwd_dist[node][:n] - net._q_tau_py[node]
        targets = net._fwd_tgt[node][:n]
        w += net.p_tau[targets - (nq + _OFF)]
        np.maximum(w, 0.0, out=w)
        w += base
        np_alpha = self._shadow()
        ok = w < np_alpha[targets]
        upd_t = targets[ok]
        if upd_t.size:
            upd_a = w[ok]
            np_alpha[upd_t] = upd_a
            p_used = net.p_used
            p_cap = net.p_cap
            base_c = nq + _OFF
            for av, tv in zip(upd_a.tolist(), upd_t.tolist(), strict=False):
                # Re-check against the true labels: the shadow is an
                # upper bound, so the mask can admit false positives.
                if av < alpha[tv]:
                    alpha[tv] = av
                    prev[tv] = idx
                    j = tv - base_c
                    if p_used[j] < p_cap[j]:
                        settled[tv] = False
                        push(heap, (av, tv))
                    else:
                        self._relay(tv, av)
