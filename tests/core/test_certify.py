"""The LP-duality certificate accepts optimal flows and rejects broken ones.

Every rejection case starts from a certified optimal solve and breaks
exactly one thing: the flow, a capacity, or a potential.  The q→s case
is built by hand, because no solver produces it.
"""

import numpy as np
import pytest

from repro.core.certify import certify
from repro.core.ida import IDASolver
from repro.core.problem import CCAProblem

BACKENDS = ("dict", "array")


def solved(backend="dict", seed=3, nq=4, np_=40, cap=5):
    """A capacity-bound instance, its solved network and its flows."""
    rng = np.random.default_rng(seed)
    problem = CCAProblem.from_arrays(
        rng.random((nq, 2)) * 100, [cap] * nq, rng.random((np_, 2)) * 100
    )
    solver = IDASolver(problem, backend=backend)
    solver.solve()
    net = solver.net
    q_tau, p_tau = net.tau_lists()
    return problem, net, list(net.matching_flows()), list(q_tau), list(p_tau)


def check(problem, flows, q_tau, p_tau, net):
    return certify(problem, flows, q_tau, p_tau, net.tau_s)


@pytest.mark.parametrize("backend", BACKENDS)
def test_optimal_solve_certifies(backend):
    problem, net, flows, q_tau, p_tau = solved(backend)
    assert check(problem, flows, q_tau, p_tau, net) is None


def test_swapped_pair_is_rejected():
    problem, net, flows, q_tau, p_tau = solved()
    a = flows[0]
    b = next(f for f in flows if f[0] != a[0])
    swapped = [
        (a[0], b[1], problem.distance(a[0], b[1]), 1),
        (b[0], a[1], problem.distance(b[0], a[1]), 1),
    ]
    flows = [f for f in flows if f not in (a, b)] + swapped
    failure = check(problem, flows, q_tau, p_tau, net)
    assert failure is not None and "reduced cost" in failure


def test_dropped_pair_is_rejected():
    problem, net, flows, q_tau, p_tau = solved()
    failure = check(problem, flows[1:], q_tau, p_tau, net)
    assert failure is not None and "gamma" in failure


def test_provider_over_capacity_is_rejected():
    problem, net, flows, q_tau, p_tau = solved()
    i, j, _, units = next(f for f in flows if f[0] != 0)
    moved = (0, j, problem.distance(0, j), units)
    flows = [f for f in flows if f[:2] != (i, j)] + [moved]
    failure = check(problem, flows, q_tau, p_tau, net)
    assert failure is not None and "provider q0" in failure


def test_perturbed_potential_outside_esub_is_rejected():
    """Lowering the potential of a customer that owns no Esub edge breaks
    only pairs the solver never inserted; the complete-network sweep
    must still see it."""
    problem, net, flows, q_tau, p_tau = solved()
    matched = {j for _, j, _, _ in flows}
    j = next(
        j
        for j in range(len(p_tau))
        if j not in matched and not any(net.has_edge(i, j) for i in range(net.nq))
    )
    slack = min(problem.distance(i, j) - q_tau[i] + p_tau[j] for i in range(net.nq))
    assert check(problem, flows, q_tau, p_tau, net) is None
    p_tau[j] -= slack + 1.0
    failure = check(problem, flows, q_tau, p_tau, net)
    assert failure is not None and f"p{j})" in failure


def test_customer_on_farther_provider_than_a_non_full_one_is_rejected():
    """Provider 0 has spare capacity and sits 1 from the customer, which
    provider 1 serves from 9 away: the cycle s → q0 → p0 → q1 → s has
    cost -8.  Potentials that make every bipartite and sink edge
    feasible still leave the source edges contradictory."""
    problem = CCAProblem.from_arrays([[0.0, 0.0], [10.0, 0.0]], [2, 1], [[1.0, 0.0]])
    flows = [(1, 0, 9.0, 1)]
    q_tau, p_tau, tau_s = [1.0, 9.0], [0.0], 1.0
    failure = certify(problem, flows, q_tau, p_tau, tau_s)
    assert failure is not None and "(q1, s)" in failure
    # The optimal flow, with potentials that fit it, certifies.
    assert certify(problem, [(0, 0, 1.0, 1)], [1.0, 1.0], [0.0], 1.0) is None
