"""Property tests for the bulk edge-streaming seam.

``add_edges`` is the fused pipeline's entry into the flow network: the
reference implementation is literally the per-edge ``add_edge`` loop, and
the array backend's vectorized override must reproduce it bit for bit —
same accepted edges (first occurrence wins on duplicates, zero-capacity
edges rejected), same insertion order, same forward adjacency, and
therefore the same Dijkstra heap sequences and matchings downstream.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.problem import CCAProblem
from repro.core.solve import solve
from repro.flow.backend import BACKENDS

ALL_BACKENDS = dict(BACKENDS)

dist_f = st.floats(
    min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False
)

# (provider, customer, distance) triples over small node ranges, with
# plenty of collisions so duplicate masking is actually exercised.
edge_batches = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 9), dist_f),
    min_size=0,
    max_size=60,
)

caps_weights = st.tuples(
    st.lists(st.integers(0, 3), min_size=4, max_size=4),   # capacities
    st.lists(st.integers(0, 2), min_size=10, max_size=10),  # weights
)


def _net_signature(net):
    """Everything observable about Esub, including adjacency order."""
    return (
        net.edge_count,
        net.edge_triples(),
        [list(net.out_edges(i)) for i in range(net.nq)],
        [
            [net.edge_flow(i, j), net.edge_residual(i, j)]
            for i in range(net.nq)
            for j in range(net.np)
        ],
    )


def _build_loop(backend, caps, weights, triples):
    net = ALL_BACKENDS[backend].network(caps, weights)
    inserted = sum(net.add_edge(i, j, d) for i, j, d in triples)
    return net, inserted


def _build_bulk_rows(backend, caps, weights, triples):
    """One add_edges call per provider row (the RIA/SSPA shape)."""
    net = ALL_BACKENDS[backend].network(caps, weights)
    inserted = 0
    for i in range(net.nq):
        row = [(j, d) for (qi, j, d) in triples if qi == i]
        inserted += net.add_edges(
            i,
            np.asarray([j for j, _ in row], dtype=np.int64),
            np.asarray([d for _, d in row], dtype=np.float64),
        )
    return net, inserted


def _build_bulk_columns(backend, caps, weights, triples):
    """One add_edges call with full (i, j, d) columns."""
    net = ALL_BACKENDS[backend].network(caps, weights)
    inserted = net.add_edges(
        np.asarray([t[0] for t in triples], dtype=np.int64),
        np.asarray([t[1] for t in triples], dtype=np.int64),
        np.asarray([t[2] for t in triples], dtype=np.float64),
    )
    return net, inserted


@settings(max_examples=60, deadline=None)
@given(
    data=caps_weights,
    triples=edge_batches,
    backend=st.sampled_from(sorted(ALL_BACKENDS)),
)
def test_bulk_add_edges_bit_identical_networks(data, triples, backend):
    caps, weights = data
    loop_net, loop_n = _build_loop(backend, caps, weights, triples)
    cols_net, cols_n = _build_bulk_columns(backend, caps, weights, triples)
    assert cols_n == loop_n
    assert _net_signature(cols_net) == _net_signature(loop_net)


@settings(max_examples=40, deadline=None)
@given(
    data=caps_weights,
    triples=edge_batches,
    backend=st.sampled_from(sorted(ALL_BACKENDS)),
)
def test_bulk_row_shape_matches_per_provider_loops(data, triples, backend):
    """The scalar-provider broadcast form (RIA/SSPA rows) == the loop
    restricted to that provider, per provider."""
    caps, weights = data
    rows_net, rows_n = _build_bulk_rows(backend, caps, weights, triples)
    # The loop equivalent of per-provider grouping: same triples,
    # reordered provider-by-provider (order within a provider is kept).
    grouped = [(i, j, d) for i in range(len(caps)) for (qi, j, d) in triples if qi == i]
    loop_net, loop_n = _build_loop(backend, caps, weights, grouped)
    assert rows_n == loop_n
    assert _net_signature(rows_net) == _net_signature(loop_net)


def _ssp_trace(net, backend):
    """Full SSP over a prepared network: heap/settle sequences + result."""
    trace = []
    gamma = net.gamma
    guard = 0
    while net.matched < gamma:
        state = ALL_BACKENDS[backend].dijkstra(net)
        if not state.run():
            break  # Esub may not support a full matching; fine
        trace.append(
            (list(state._settled_order), state.pops, state.sp_cost, state.path_nodes(),)
        )
        net.augment_with_state(state.path_nodes(), state.sp_cost, state)
        guard += 1
        assert guard <= gamma
    return trace, sorted(net.matching_flows()), net.matching_cost()


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=caps_weights, triples=edge_batches)
def test_bulk_vs_loop_heap_sequences_and_matchings(data, triples):
    """Networks built bulk vs loop drive *bit-identical* searches: same
    settled orders, pop counts, path nodes, and final matchings — across
    both backends (the dict loop is the specification)."""
    caps, weights = data
    traces = {}
    for backend in sorted(ALL_BACKENDS):
        loop_net, _ = _build_loop(backend, caps, weights, triples)
        bulk_net, _ = _build_bulk_columns(backend, caps, weights, triples)
        traces[(backend, "loop")] = _ssp_trace(loop_net, backend)
        traces[(backend, "bulk")] = _ssp_trace(bulk_net, backend)
    reference = traces[("dict", "loop")]
    for key, trace in traces.items():
        assert trace == reference, f"{key} diverged from dict/loop"


def test_ragged_columns_raise_on_both_backends():
    """Mismatched column lengths fail loudly (and identically) instead of
    silently zip-truncating on one backend only."""
    import pytest

    for backend in sorted(ALL_BACKENDS):
        net = ALL_BACKENDS[backend].network([2, 2], [1, 1, 1])
        with pytest.raises(ValueError):
            net.add_edges(0, [0, 1, 2], [1.0, 2.0])
        with pytest.raises(ValueError):
            net.add_edges([0, 1], [0, 1, 2], [1.0, 2.0, 3.0])
        assert net.edge_count == 0


coord = st.floats(
    min_value=0.0, max_value=1000.0, allow_nan=False, allow_infinity=False
)
xy = st.tuples(coord, coord)
instance = st.tuples(
    st.lists(xy, min_size=1, max_size=4),
    st.lists(st.integers(0, 3), min_size=1, max_size=4),
    st.lists(xy, min_size=1, max_size=14),
)


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=instance, method=st.sampled_from(["ria", "nia", "ida", "sspa", "sm"]))
def test_fused_supply_identical_across_backend_axes(data, method):
    """End to end through the fused supply (column range searches, ANN id
    streaming, SSPA row oracle): every flow x index backend combination
    returns the same matching."""
    q_xy, caps, p_xy = data
    caps = (caps * len(q_xy))[: len(q_xy)]
    if sum(caps) == 0:
        caps[0] = 1
    reference = None
    for flow in ("dict", "array"):
        for index in ("pointer", "packed"):
            problem = CCAProblem.from_arrays(q_xy, caps, p_xy)
            m = solve(problem, method, backend=flow, index_backend=index)
            signature = (m.cost, sorted(m.pairs))
            if reference is None:
                reference = signature
            else:
                assert signature == reference, (flow, index)
