"""Differential test: the relaying Dijkstra against a textbook one.

The flow kernels never queue a *pass-through* customer (sink edge closed,
so only backward residual edges leave it): they relax its backward edges
the moment its label improves.  This file checks that shortcut against a
test-local textbook Dijkstra that queues every node, on random networks
that already carry flow, so pass-through customers exist:

* float distances (no exact distance ties): identical ``sp_cost``, path,
  settled labels and post-augment potentials; below ``sp_cost`` the
  kernel pops exactly the textbook's pops minus the pass-through
  customers.  Labels can still tie at ``sp_cost`` itself (zero reduced
  costs make ``sp_cost = 0`` common late in SSP): there a provider reached
  through a relay may pop before the sink's label is known, while the
  textbook pops the sink first and never reaches that provider;
* integer distances (exact ties everywhere): identical ``sp_cost`` and
  labels below it, and an SSP run to completion reaches the same matching
  cost.  Both kernels stay bit-identical to each other throughout.
"""

import copy
import heapq

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.flow.arraykernel import ArrayDijkstraState, ArrayFlowNetwork
from repro.flow.dijkstra import _OFF, INF, DijkstraState
from repro.flow.graph import S_NODE, T_NODE, CCAFlowNetwork


def textbook(net):
    """Dijkstra over ``net`` that queues every node, relaxing with the
    kernels' float expressions.  Returns (alpha, prev, popped indices)."""
    nq = net.nq
    size = nq + net.np + _OFF
    alpha = [INF] * size
    prev = [-3] * size
    done = [False] * size
    popped = []
    alpha[S_NODE + _OFF] = 0.0
    heap = [(0.0, S_NODE + _OFF)]
    while heap:
        a, idx = heapq.heappop(heap)
        if a > alpha[idx] or done[idx]:
            continue
        if idx == T_NODE + _OFF:
            break
        done[idx] = True
        popped.append(idx)
        node = idx - _OFF
        if node == S_NODE:
            out = [
                (i + _OFF, net.q_tau[i] - net.tau_s)
                for i in range(nq)
                if net.q_used[i] < net.q_cap[i]
            ]
        elif node < nq:
            out = [
                (nq + _OFF + j, d - net.q_tau[node] + net.p_tau[j])
                for j, d in net.forward[node].items()
            ]
        else:
            j = node - nq
            out = [
                (i + _OFF, net.q_tau[i] - d - net.p_tau[j])
                for i, d in net.backward[j].items()
            ]
            if net.p_used[j] < net.p_cap[j]:
                out.append((T_NODE + _OFF, -net.p_tau[j]))
        for t, w in out:
            av = a + (w if w > 0.0 else 0.0)
            if av < alpha[t]:
                alpha[t] = av
                prev[t] = idx
                heapq.heappush(heap, (av, t))
    return alpha, prev, popped


def textbook_path(prev):
    path = [T_NODE + _OFF]
    while path[-1] != S_NODE + _OFF:
        path.append(prev[path[-1]])
    return [idx - _OFF for idx in reversed(path)]


def passes_through(net, idx):
    j = idx - _OFF - net.nq
    return j >= 0 and net.p_used[j] >= net.p_cap[j]


def build(nq, np_, caps, weights, dists, keep):
    """A dict network and an array network with the same edges."""
    nets = (CCAFlowNetwork(caps, weights), ArrayFlowNetwork(caps, weights))
    for net in nets:
        for i in range(nq):
            for j in range(np_):
                if keep[i, j]:
                    net.add_edge(i, j, float(dists[i, j]))
    return nets


def kernel_step(net, arr):
    """Run both kernels on twin networks; assert they agree bit for bit."""
    state = DijkstraState(net)
    found = state.run()
    twin = ArrayDijkstraState(arr)
    assert twin.run() == found
    if found:
        assert twin.sp_cost == state.sp_cost
        assert twin.path_nodes() == state.path_nodes()
        assert twin.pops == state.pops
        assert twin._settled_order == state._settled_order
        assert dict(twin.settled_items()) == dict(state.settled_items())
    return state, twin, found


def augment_both(net, arr, state, twin):
    net.augment(state.path_nodes(), state.sp_cost, state.settled_alpha_for_update())
    arr.augment_with_state(twin.path_nodes(), twin.sp_cost, twin)
    assert arr.q_tau.tolist() == net.q_tau
    assert arr.p_tau.tolist() == net.p_tau
    assert arr.tau_s == net.tau_s


shape = st.tuples(
    st.integers(1, 4),  # providers
    st.integers(2, 12),  # customers
    st.integers(0, 2**32 - 1),  # rng seed
)


def instance(nq, np_, seed, integer):
    rng = np.random.default_rng(seed)
    caps = rng.integers(1, 4, size=nq).tolist()
    weights = rng.integers(1, 3, size=np_).tolist()
    if integer:
        dists = rng.integers(0, 6, size=(nq, np_)).astype(float)
    else:
        dists = rng.uniform(0.5, 100.0, size=(nq, np_))
    keep = rng.random((nq, np_)) < 0.7
    return build(nq, np_, caps, weights, dists, keep)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(shape=shape)
def test_float_distances_match_textbook(shape):
    net, arr = instance(*shape, integer=False)
    while net.matched < net.gamma:
        alpha, prev, popped = textbook(net)
        state, twin, found = kernel_step(net, arr)
        assert found == (alpha[T_NODE + _OFF] < INF)
        if not found:
            break
        sp = state.sp_cost
        assert sp == alpha[T_NODE + _OFF]
        assert state.path_nodes() == textbook_path(prev)
        settled = dict(state.settled_items())
        reference = {idx - _OFF: alpha[idx] for idx in popped}
        assert {n: a for n, a in settled.items() if a < sp} == {
            n: a for n, a in reference.items() if a < sp
        }
        # Below sp_cost the kernel pops what the textbook pops, minus the
        # pass-through customers: strictly fewer whenever the textbook
        # popped one.  (Among equal labels the pop order can differ: a
        # provider reached through a relay enters the heap earlier.)
        tb_below = [idx for idx in popped if alpha[idx] < sp]
        relayed = [idx for idx in tb_below if passes_through(net, idx)]
        kernel_below = [idx for idx in state._settled_order if state._alpha[idx] < sp]
        assert sorted(kernel_below) == sorted(set(tb_below) - set(relayed))
        if relayed:
            assert len(kernel_below) < len(tb_below)
        expected = copy.deepcopy(net)
        expected.augment(textbook_path(prev), sp, {**reference, T_NODE: sp})
        augment_both(net, arr, state, twin)
        assert net.q_tau == expected.q_tau
        assert net.p_tau == expected.p_tau
        assert net.tau_s == expected.tau_s


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(shape=shape)
def test_integer_distances_match_textbook_under_ties(shape):
    net, arr = instance(*shape, integer=True)
    ssp = copy.deepcopy(net)  # runs the textbook search to completion
    while net.matched < net.gamma:
        alpha, _, _ = textbook(net)
        state, twin, found = kernel_step(net, arr)
        if not found:
            break
        sp = state.sp_cost
        assert sp == alpha[T_NODE + _OFF]
        below = {idx for idx, a in enumerate(alpha) if a < sp}
        assert below == {idx for idx, a in enumerate(state._alpha) if a < sp}
        assert all(state._alpha[idx] == alpha[idx] for idx in below)
        augment_both(net, arr, state, twin)
    while ssp.matched < ssp.gamma:
        alpha, prev, popped = textbook(ssp)
        sp = alpha[T_NODE + _OFF]
        if sp == INF:
            break
        settled = {idx - _OFF: alpha[idx] for idx in popped}
        ssp.augment(textbook_path(prev), sp, {**settled, T_NODE: sp})
    assert net.matched == ssp.matched
    assert net.matching_cost() == ssp.matching_cost()
    assert arr.matching_cost() == net.matching_cost()


def test_matched_customers_relay_instead_of_popping():
    """After one provider fills, its matched customers are relayed: a
    re-assignment search pops strictly fewer nodes than the textbook."""
    net = CCAFlowNetwork([2, 2], [1, 1, 1, 1])
    for i, j, d in [(0, 0, 1.0), (0, 1, 2.0), (1, 0, 1.5), (1, 1, 2.5), (1, 2, 9.0)]:
        net.add_edge(i, j, d)
    net.add_edge(0, 3, 30.0)
    for _ in range(2):
        state = DijkstraState(net)
        state.run()
        net.augment(state.path_nodes(), state.sp_cost, state.settled_alpha_for_update())
    # p0 and p1 are matched (pass-through); q1 must route around them.
    _, prev, popped = textbook(net)
    state = DijkstraState(net)
    assert state.run()
    assert state.path_nodes() == textbook_path(prev)
    relayed = [idx for idx in popped if passes_through(net, idx)]
    assert relayed
    assert state.pops == len(popped) - len(relayed)
    assert {idx - _OFF for idx in relayed} <= {n for n, _ in state.settled_items()}
