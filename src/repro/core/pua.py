"""Path Update Algorithm (PUA) — Section 3.4.1, Algorithm 5.

After an invalid shortest path, NIA/IDA insert one more edge into ``Esub``
and need a new shortest path.  Restarting Dijkstra wastes all previous work;
PUA instead *repairs* the existing search state:

1. if the new edge's provider endpoint ``q`` already has a label ``q.α``,
   offer ``q.α + w(q, p)`` to the customer endpoint;
2. cascade the improvement: any node whose ``α`` drops is re-queued (and, if
   it was settled, un-settled), so the resumed Dijkstra re-relaxes exactly
   the affected region and nothing else.  Nodes the insertion cannot reach
   are never touched — the saving PUA exists for.

The paper maintains a second heap ``Hf`` over previously-visited nodes and
patches keys inside the main heap ``Hd``.  Our :class:`DijkstraState` uses a
single lazy-deletion heap, so both roles collapse into
:meth:`DijkstraState.improve` + resume.  An improved customer with an open
sink edge is re-queued: if its new label beats the sink's, the resumed run
pops it before the sink and re-relaxes its out-edges (the Hf cascade);
otherwise the old path stands and the resume returns immediately.  A
pass-through customer (sink edge closed) is never queued: ``improve``
relays the new label to its providers on the spot, re-queuing those that
improve, and the resumed run carries the cascade on from them.

PUA state is valid only *within* one CCA iteration: augmenting a path
reverses edges and moves potentials, so the engine discards the state after
every augmentation (the paper makes the same observation).
"""

from __future__ import annotations

from repro.flow.dijkstra import DijkstraState
from repro.flow.graph import CCAFlowNetwork


def path_update(
    state: DijkstraState,
    net: CCAFlowNetwork,
    provider: int,
    customer: int,
    distance: float,
) -> bool:
    """Repair ``state`` after inserting bipartite edge (provider, customer).

    Returns True if the customer's label improved (i.e. Algorithm 5's
    cascade had work to do).
    """
    base = state.alpha_of(provider)
    if base == float("inf"):
        # q is unreached so far; the resumed run relaxes the new edge
        # naturally if it ever labels q (the adjacency is read live).
        return False
    reduced = net.reduced_cost_qp(provider, customer, distance)
    return state.improve(net.customer_node(customer), base + reduced, provider)
