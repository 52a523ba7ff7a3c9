"""A solver-independent optimality certificate for CCA flows (LP duality).

A matching ``M`` with node potentials ``(τ_q, τ_p, τ_s)`` is a minimum-cost
maximum flow of the network s→Q→P→t exactly when three things hold:

* **feasibility** — every pair joins a real provider and a live customer,
  no provider serves more than ``k`` units and no customer receives more
  than ``w``;
* **maximality** — ``|M| = γ = min(Σk, Σw)``;
* **optimality** — every residual edge of the *complete* network has a
  non-negative reduced cost ``w(u, v) = c(u, v) − τ_u + τ_v`` (the sink's
  potential is 0).  A negative residual cycle would need a negative
  edge, so none exists, and a flow of value γ without a negative cycle
  is of minimum cost.

The complete network includes bipartite pairs that an incremental solver
never inserted into its subgraph, so the check recomputes every distance
from the problem's coordinates instead of trusting a solver's edge list.
It imports no solver code: it reads coordinates, capacities and weights
from the problem and the flow and potentials from the caller, and costs
O(|Q|·|P|) vectorized work, done one block of providers at a time.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

TOLERANCE = 1e-9
# Distances a flow reports may come from a different (bit-level) formula
# than the one recomputed here; the same bound Matching.validate uses.
DISTANCE_TOLERANCE = 1e-6
# Providers per block of the complete-graph sweep (bounds peak memory at
# BLOCK × |P| floats).
BLOCK = 64


def certify(
    problem,
    flows: Iterable[Tuple[int, int, float, int]],
    q_tau: Sequence[float],
    p_tau: Sequence[float],
    tau_s: float,
) -> Optional[str]:
    """Check that ``flows`` is an optimal CCA flow of ``problem``.

    ``flows`` holds ``(provider, customer, distance, units)`` tuples, the
    shape :meth:`~repro.flow.graph.CCAFlowNetwork.matching_flows` returns;
    ``q_tau``/``p_tau``/``tau_s`` are the provider, customer and source
    potentials.  Returns None when the certificate holds, and otherwise a
    sentence naming the first violated condition.
    """
    qxy = np.asarray(problem.provider_points().coords, dtype=np.float64)
    pxy = np.asarray(problem.customer_points().coords, dtype=np.float64)
    cap = np.asarray(problem.capacities, dtype=np.int64)
    weight = np.asarray(problem.weights, dtype=np.int64)
    nq, np_ = len(cap), len(weight)
    q_tau = np.asarray(q_tau, dtype=np.float64)
    p_tau = np.asarray(p_tau, dtype=np.float64)
    if q_tau.shape != (nq,) or p_tau.shape != (np_,):
        return (
            f"potentials cover {q_tau.size} providers and {p_tau.size} "
            f"customers, the problem has {nq} and {np_}"
        )

    # -- feasibility ---------------------------------------------------
    table = np.array(list(flows), dtype=np.float64).reshape(-1, 4)
    flow_i = table[:, 0].astype(np.int64)
    flow_j = table[:, 1].astype(np.int64)
    flow_d = table[:, 2]
    units = table[:, 3].astype(np.int64)
    if table.size:
        if flow_i.min() < 0 or flow_i.max() >= nq:
            return "a pair names a provider outside the problem"
        if flow_j.min() < 0 or flow_j.max() >= np_:
            return "a pair names a customer outside the problem"
        if units.min() <= 0:
            return "a pair carries a non-positive number of units"
        if np.unique(flow_i * np_ + flow_j).size != flow_i.size:
            return "a (provider, customer) pair is listed twice"
        actual = _distances(qxy[flow_i], pxy[flow_j])
        off = np.abs(actual - flow_d)
        k = int(np.argmax(off))
        if off[k] > DISTANCE_TOLERANCE:
            return (
                f"pair (q{flow_i[k]}, p{flow_j[k]}) stores distance "
                f"{flow_d[k]!r}, the coordinates give {actual[k]!r}"
            )
    q_used = np.bincount(flow_i, weights=units, minlength=nq).astype(np.int64)
    p_used = np.bincount(flow_j, weights=units, minlength=np_).astype(np.int64)
    over = np.flatnonzero(q_used > cap)
    if over.size:
        i = int(over[0])
        return f"provider q{i} serves {q_used[i]} units, capacity {cap[i]}"
    over = np.flatnonzero(p_used > weight)
    if over.size:
        j = int(over[0])
        return f"customer p{j} receives {p_used[j]} units, weight {weight[j]}"

    # -- maximality ----------------------------------------------------
    gamma = min(int(cap.sum()), int(weight.sum()))
    matched = int(units.sum())
    if matched != gamma:
        return f"matching has {matched} units, gamma is {gamma}"

    # -- optimality: source and sink edges -----------------------------
    bad = np.flatnonzero((q_used < cap) & (q_tau - tau_s < -TOLERANCE))
    if bad.size:
        return _edge("s", f"q{bad[0]}", q_tau[bad[0]] - tau_s)
    bad = np.flatnonzero((q_used > 0) & (tau_s - q_tau < -TOLERANCE))
    if bad.size:
        return _edge(f"q{bad[0]}", "s", tau_s - q_tau[bad[0]])
    bad = np.flatnonzero((p_used < weight) & (-p_tau < -TOLERANCE))
    if bad.size:
        return _edge(f"p{bad[0]}", "t", -p_tau[bad[0]])
    bad = np.flatnonzero((p_used > 0) & (p_tau < -TOLERANCE))
    if bad.size:
        return _edge("t", f"p{bad[0]}", p_tau[bad[0]])

    # -- optimality: every bipartite pair ------------------------------
    order = np.argsort(flow_i, kind="stable")
    flow_i, flow_j, units = flow_i[order], flow_j[order], units[order]
    for lo in range(0, nq, BLOCK):
        hi = min(nq, lo + BLOCK)
        dist = _distances(qxy[lo:hi, None, :], pxy[None, :, :])
        reduced = dist - q_tau[lo:hi, None] + p_tau[None, :]
        flow = np.zeros((hi - lo, np_), dtype=np.int64)
        a, b = np.searchsorted(flow_i, [lo, hi])
        flow[flow_i[a:b] - lo, flow_j[a:b]] = units[a:b]
        edge_cap = np.minimum(cap[lo:hi, None], weight[None, :])
        # Forward residual (q, p): spare capacity on the pair, including
        # pairs no solver ever inserted.
        bad = np.argwhere((flow < edge_cap) & (reduced < -TOLERANCE))
        if bad.size:
            r, j = (int(x) for x in bad[0])
            return _edge(f"q{lo + r}", f"p{j}", reduced[r, j])
        # Backward residual (p, q): the reversal of a flow-carrying pair.
        bad = np.argwhere((flow > 0) & (-reduced < -TOLERANCE))
        if bad.size:
            r, j = (int(x) for x in bad[0])
            return _edge(f"p{j}", f"q{lo + r}", -reduced[r, j])
    return None


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance between broadcast coordinate arrays (last axis)."""
    diff = a - b
    return np.sqrt((diff * diff).sum(axis=-1))


def _edge(u: str, v: str, reduced: float) -> str:
    return f"residual edge ({u}, {v}) has reduced cost {float(reduced):.3e} < 0"
