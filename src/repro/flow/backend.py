"""The flow-backend seam: pluggable residual-network + Dijkstra kernels.

Every solver in the repository (SSPA, RIA, NIA, IDA, and the SA/CA concise
matchings that run IDA internally) bottoms out in two objects: a residual
CCA flow network and a potential-aware Dijkstra state over it.  This module
names that seam so the substrate can be swapped without touching solver
logic:

* ``dict`` — the reference backend: :class:`~repro.flow.graph.CCAFlowNetwork`
  (dict-of-dicts adjacency) + :class:`~repro.flow.dijkstra.DijkstraState`.
  Easiest to read next to the paper; the correctness anchor.
* ``array`` — the performance backend:
  :class:`~repro.flow.arraykernel.ArrayFlowNetwork` (flat columnar edge
  storage) + :class:`~repro.flow.arraykernel.ArrayDijkstraState`
  (vectorized relaxation).  Bit-identical results, multi-x faster inner
  loop at Figure-10 scales.

Both produce identical matchings, costs, and |Esub| on every instance —
``tests/property/test_backend_equivalence.py`` and the integration
equivalence suite enforce it.  Solvers accept ``backend=`` as either a
name from :data:`BACKENDS` or a :class:`FlowBackend` instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Union

from repro.flow.dijkstra import DijkstraState
from repro.flow.graph import CCAFlowNetwork

DEFAULT_BACKEND = "dict"

@dataclass(frozen=True)
class FlowBackend:
    """A (network factory, Dijkstra factory) pair behind a stable name."""

    name: str
    network_cls: Callable[..., CCAFlowNetwork]
    dijkstra_cls: Callable[..., DijkstraState]

    def network(
        self,
        provider_capacities: Sequence[int],
        customer_weights: Sequence[int],
    ) -> CCAFlowNetwork:
        """Build an empty residual network for the given node capacities."""
        return self.network_cls(provider_capacities, customer_weights)

    def dijkstra(self, net: CCAFlowNetwork) -> DijkstraState:
        """Build a one-iteration Dijkstra state bound to ``net``."""
        return self.dijkstra_cls(net)

    def __repr__(self) -> str:  # keep solver reprs short
        return f"FlowBackend({self.name!r})"


def _build_registry() -> Dict[str, FlowBackend]:
    from repro.flow.arraykernel import ArrayDijkstraState, ArrayFlowNetwork

    return {
        "dict": FlowBackend("dict", CCAFlowNetwork, DijkstraState),
        "array": FlowBackend("array", ArrayFlowNetwork, ArrayDijkstraState),
    }


BACKENDS: Dict[str, FlowBackend] = _build_registry()


BackendLike = Union[str, FlowBackend]


def get_backend(backend: BackendLike = DEFAULT_BACKEND) -> FlowBackend:
    """Resolve a backend selector (name or instance) to a FlowBackend."""
    if isinstance(backend, FlowBackend):
        return backend
    try:
        return BACKENDS[backend]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown flow backend {backend!r}; expected one of "
            f"{tuple(sorted(BACKENDS))} or a FlowBackend instance"
        ) from None
