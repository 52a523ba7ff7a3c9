"""Property: a repaired arrival ≡ a cold solve, on both flow kernels.

Small capacity-bound instances (every provider fills) receive arrivals
placed next to a provider, so the arrival is usually closer than that
provider's farthest matched customer and the session repairs it in place
(:func:`repro.core.session.repair_arrival`).  After every arrival:

* the session's next assign equals a cold ``solve()`` of the same state,
  pairs and cost, with float coordinates throughout;
* the dict and array kernels hold bit-identical pairs and potentials;
* every repair the session kept passes :func:`repro.core.certify.certify`.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.certify import certify
from repro.core.problem import CCAProblem
from repro.core.session import Matcher
from repro.core.solve import solve

BACKENDS = ("dict", "array")

instance = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**16),
        "nq": st.integers(2, 5),
        "np": st.integers(8, 30),
        "arrivals": st.integers(1, 6),
        "spread": st.sampled_from((0.5, 2.0, 8.0)),
    }
)


def build(shape):
    """Providers, capacities (Σk < |P|, so γ is capacity-bound),
    customers and arrivals, as float coordinates in [0, 100]²."""
    rng = np.random.default_rng(shape["seed"])
    nq, np_ = shape["nq"], shape["np"]
    qxy = rng.random((nq, 2)) * 100
    caps = rng.integers(1, max(2, np_ // nq), nq).tolist()
    pxy = rng.random((np_, 2)) * 100
    near = rng.integers(0, nq, shape["arrivals"])
    offsets = rng.uniform(-1, 1, (shape["arrivals"], 2)) * shape["spread"]
    return qxy, caps, pxy, qxy[near] + offsets


def state(matcher):
    net = matcher.net
    q_tau, p_tau = net.tau_lists()
    return net.matching_pairs(), list(q_tau), list(p_tau), net.tau_s


def replay(shape):
    """Apply each arrival to one session per kernel; yields the
    {backend: matcher} map after each arrival, before the sessions'
    next assign."""
    qxy, caps, pxy, arrivals = build(shape)
    matchers = {
        b: Matcher(CCAProblem.from_arrays(qxy, caps, pxy), backend=b) for b in BACKENDS
    }
    for m in matchers.values():
        m.assign()
    for xy in arrivals:
        for m in matchers.values():
            m.add_customer(xy)
        yield matchers


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(shape=instance)
def test_repaired_arrivals_match_cold_solves(shape):
    for matchers in replay(shape):
        assert state(matchers["dict"]) == state(matchers["array"])
        for backend, m in matchers.items():
            repairs = m.arrival_repairs
            live = m.assign()
            if m.arrival_repairs > repairs:
                q_tau, p_tau = m.net.tau_lists()
                kept = certify(
                    m.problem, m.net.matching_flows(), q_tau, p_tau, m.net.tau_s
                )
                assert kept is None, kept
            problem = m.problem
            fresh = CCAProblem.from_arrays(
                [q.point.coords for q in problem.providers],
                problem.capacities,
                [p.point.coords for p in problem.customers],
                customer_weights=problem.weights,
            )
            cold = solve(fresh, "ida", backend=backend)
            assert sorted(live.pairs) == sorted(cold.pairs)
            assert live.cost == pytest.approx(cold.cost, abs=1e-9)
        repairs = {b: m.arrival_repairs for b, m in matchers.items()}
        assert repairs["dict"] == repairs["array"]
        assert state(matchers["dict"]) == state(matchers["array"])


def test_the_strategy_exercises_the_repair():
    """The shapes above do reach the repair path (and the repaired
    session stays warm), so the property is not vacuous."""
    repaired = warm = 0
    for seed in range(12):
        shape = {"seed": seed, "nq": 3, "np": 20, "arrivals": 3, "spread": 2.0}
        for matchers in replay(shape):
            m = matchers["array"]
            m.assign()
            warm += m.last_was_warm
        repaired += matchers["array"].arrival_repairs
    assert repaired >= 6
    assert warm >= repaired
