"""Potential-aware, resumable Dijkstra over the residual network.

One :class:`DijkstraState` instance lives for one CCA *iteration* (one
attempted augmentation).  It supports:

* :meth:`run` — pop until the sink settles (early termination);
* external α decreases via :meth:`improve` — the hook the Path Update
  Algorithm (Section 3.4.1) uses after an edge insertion, followed by
  another :meth:`run` that resumes from the live heap instead of
  restarting.

Settled nodes whose α later improves are simply un-settled and re-queued,
which keeps resumption correct without any special-casing.

**Pass-through customers are never queued.**  A customer whose sink edge
is closed (``p_used[j] == p_cap[j]`` — every matched weight-1 customer)
has only backward residual edges, so popping it would do nothing but
hand its label on to its providers.  Instead, whenever its label
improves the search relaxes those backward edges on the spot (the
*relay*), with the same float expression and clamp order a pop would
use.  Since every edge has a non-negative reduced cost, a relayed label
is never below the label that produced it, so the providers receive
exactly the labels a pop would have given them, only earlier.  What a
search pops — and what :attr:`pops` counts — is the source, providers
and customers with an open sink edge; in a late IDA iteration that is a
small fraction of the nodes it labels.

A relayed customer enters :attr:`_relayed` once, on its first relay, and
counts as settled only while its label is ≤ ``sp_cost`` — exactly the
customers a textbook search would have popped before the sink (up to
nodes at α = ``sp_cost``, whose potential delta is 0 anyway).  Potential
updates therefore see the same nodes as a search that queues everything.

Storage is flat arrays indexed by ``node + 2`` (sink ``-2`` → 0, source
``-1`` → 1, providers/customers shifted up) — the innermost loop of every
solver runs here, and array indexing beats dict lookups by a large factor
in CPython.  Reduced-cost formulas from :class:`CCAFlowNetwork` are inlined
for the same reason; tiny negative reduced costs are floating-point noise
and clamp to 0 (genuinely negative ones are impossible while only
Theorem-1-certified paths are augmented, and the flow-network unit tests
assert against them).

This class is also the *tie-breaking specification* for the columnar
kernel (:mod:`repro.flow.arraykernel`), which must match it bit for bit
(``tests/property/test_bulk_edges.py`` pins the equality down to settled
orders and pop counts):

* heap entries are ``(α, node_index)`` tuples, so the pop sequence is the
  unique lexicographic order of the surviving labels — independent of
  push order;
* a provider offered a label equal to its current one by a customer
  (popped or relayed) takes that customer as predecessor when
  ``(α_customer, index)`` is lexicographically smaller than its current
  predecessor's — the customer a textbook search would have popped first.
  The winner is the minimum over all offers, so it does not depend on the
  order in which one provider's forward fan relays its customers (dict
  order here, swap-removed compact arrays in the columnar kernel).
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterator, List, Optional, Tuple

from repro.flow.graph import S_NODE, T_NODE, CCAFlowNetwork, NegativeReducedCostError

INF = float("inf")
_OFF = 2  # node id -> array index offset


def _tie_wins(
    alpha: List[float], prev: List[int], t: int, base: float, idx: int
) -> bool:
    """Does customer ``idx`` at label ``base`` beat provider ``t``'s current
    predecessor for an equal offer?  (The rule in the module docstring.)"""
    p = prev[t]
    return base < alpha[p] or (base == alpha[p] and idx < p)


class DijkstraState:
    """Shortest-path computation state for a single CCA iteration."""

    __slots__ = (
        "net",
        "_alpha",
        "_prev",
        "_settled",
        "_settled_order",
        "_relayed",
        "_heap",
        "pops",
    )

    def __init__(self, net: CCAFlowNetwork):
        self.net = net
        size = net.nq + net.np + _OFF
        self._alpha = [INF] * size
        self._prev = [-3] * size  # -3 = unreached
        self._settled = [False] * size
        self._settled_order: List[int] = []  # popped, may hold stale dups
        self._relayed: List[int] = []  # pass-through customers, each once
        self._heap: List[Tuple[float, int]] = []
        self.pops = 0  # heap pops that settle a node (work metric)
        self._alpha[S_NODE + _OFF] = 0.0
        heapq.heappush(self._heap, (0.0, S_NODE + _OFF))

    # ------------------------------------------------------------------
    # public views (node-id addressed)
    # ------------------------------------------------------------------
    def alpha_of(self, node: int) -> float:
        """Current label of ``node`` (INF when unreached)."""
        return self._alpha[node + _OFF]

    def _passes_through(self, idx: int) -> bool:
        """Is the node at ``idx`` a customer whose sink edge is closed?
        (Fixed for the life of a search: only augmenting moves p_used.)"""
        j = idx - _OFF - self.net.nq
        return j >= 0 and self.net.p_used[j] >= self.net.p_cap[j]

    def is_settled(self, node: int) -> bool:
        idx = node + _OFF
        if not self._settled[idx]:
            return False
        if self._passes_through(idx):
            return self._alpha[idx] <= self._alpha[T_NODE + _OFF]
        return True

    def settled_alpha(self, node: int) -> Optional[float]:
        """α of ``node`` if it is currently settled, else None."""
        return self._alpha[node + _OFF] if self.is_settled(node) else None

    def settled_items(self) -> Iterator[Tuple[int, float]]:
        """(node, α) for every currently settled node: popped nodes in
        pop order, then relayed customers."""
        seen = set()
        for idx in self._settled_order:
            if self._settled[idx] and idx not in seen:
                seen.add(idx)
                yield idx - _OFF, self._alpha[idx]
        sp_cost = self._alpha[T_NODE + _OFF]
        for idx in self._relayed:
            if self._alpha[idx] <= sp_cost:
                yield idx - _OFF, self._alpha[idx]

    # ------------------------------------------------------------------
    # relaxation primitives
    # ------------------------------------------------------------------
    def improve(self, node: int, alpha: float, prev: int) -> bool:
        """Offer a shorter path to ``node``; when the offer wins, relays
        it on (pass-through customer) or re-queues and un-settles it.
        Returns True if α improved."""
        idx = node + _OFF
        if alpha >= self._alpha[idx]:
            return False
        self._alpha[idx] = alpha
        self._prev[idx] = prev + _OFF
        if self._passes_through(idx):
            self._relay(idx, alpha)
        else:
            self._settled[idx] = False
            heapq.heappush(self._heap, (alpha, idx))
        return True

    def _relay(self, idx: int, base: float) -> None:
        """Pass-through customer ``idx`` just took label ``base``: relax
        its backward edges now instead of queueing it."""
        if not self._settled[idx]:
            self._settled[idx] = True
            self._relayed.append(idx)
        self._relax_backward(idx, base)

    def _relax_backward(self, idx: int, base: float) -> None:
        """Relax the residual reverse edges of the customer at ``idx``."""
        net = self.net
        alpha = self._alpha
        prev = self._prev
        settled = self._settled
        j = idx - _OFF - net.nq
        p_tau_j = net.p_tau[j]
        q_tau = net.q_tau
        for i, d in net.backward[j].items():
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

    def _relax_out(self, idx: int, base: float) -> None:
        """Relax every residual out-edge of the node at array index
        ``idx`` (the solver's innermost loop — everything inlined)."""
        net = self.net
        alpha = self._alpha
        prev = self._prev
        settled = self._settled
        heap = self._heap
        push = heapq.heappush
        nq = net.nq
        if idx == S_NODE + _OFF:
            tau_s = net.tau_s
            q_tau = net.q_tau
            q_used = net.q_used
            q_cap = net.q_cap
            for i in range(nq):
                if q_used[i] < q_cap[i]:
                    w = q_tau[i] - tau_s
                    if w < -1e-6:
                        # A genuinely negative source edge means the
                        # residual state was corrupted (e.g. an unsound
                        # warm-start delta reopened a stale edge): fail
                        # loudly instead of silently mis-routing flow.
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
        node = idx - _OFF
        if node < nq:  # provider: forward bipartite edges
            q_tau_i = net.q_tau[node]
            p_tau = net.p_tau
            p_used = net.p_used
            p_cap = net.p_cap
            base_off = nq + _OFF
            for j, d in net.forward[node].items():
                w = d - q_tau_i + p_tau[j]
                a = base + (w if w > 0.0 else 0.0)
                t = base_off + j
                if a < alpha[t]:
                    alpha[t] = a
                    prev[t] = idx
                    if p_used[j] >= p_cap[j]:
                        self._relay(t, a)
                    else:
                        settled[t] = False
                        push(heap, (a, t))
            return
        # customer with an open sink edge: residual reverse edges, then t
        self._relax_backward(idx, base)
        w = -net.p_tau[node - nq]
        a = base + (w if w > 0.0 else 0.0)
        t = T_NODE + _OFF
        if a < alpha[t]:
            alpha[t] = a
            prev[t] = idx
            push(heap, (a, t))

    # ------------------------------------------------------------------
    # the main loop
    # ------------------------------------------------------------------
    def run(self) -> bool:
        """Pop until the sink settles.  Returns False if t is unreachable
        in the current Esub (the caller then expands the subgraph)."""
        heap = self._heap
        alpha = self._alpha
        settled = self._settled
        t_idx = T_NODE + _OFF
        while heap:
            a, idx = heapq.heappop(heap)
            if a > alpha[idx] or settled[idx]:
                continue  # stale entry or already settled
            if idx == t_idx:
                # Leave t un-settled so a later resume can improve it.
                heapq.heappush(heap, (a, idx))
                return True
            settled[idx] = True
            self._settled_order.append(idx)
            self.pops += 1
            self._relax_out(idx, a)
        return alpha[t_idx] < INF

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    @property
    def sp_cost(self) -> float:
        """α of the sink — the shortest path's (reduced) cost, which
        equals ``vmin.α`` in the paper since w(vmin, t) = 0."""
        return self._alpha[T_NODE + _OFF]

    def path_nodes(self) -> List[int]:
        """The s→t path found by the last successful :meth:`run`."""
        if self._alpha[T_NODE + _OFF] == INF:
            raise RuntimeError("no path to the sink has been found")
        path = [T_NODE + _OFF]
        idx = T_NODE + _OFF
        s_idx = S_NODE + _OFF
        while idx != s_idx:
            idx = self._prev[idx]
            if idx < 0:
                raise RuntimeError("broken predecessor chain")
            path.append(idx)
        path.reverse()
        return [idx - _OFF for idx in path]

    def settled_alpha_for_update(self) -> Dict[int, float]:
        """Settled nodes (plus t) and their α, for the potential update.

        Only nodes with ``α ≤ α_min`` settle before t pops, so the whole
        settled set qualifies for Algorithm 1's lines 8-9.
        """
        out = dict(self.settled_items())
        out[T_NODE] = self.sp_cost
        return out

    def provider_alpha(self, i: int) -> Optional[float]:
        """Settled α of provider ``i`` in this iteration (IDA's key
        input), or None if the provider was not settled."""
        return self.settled_alpha(i)
