"""Matcher warm-start sessions: delta re-solves must equal cold solves.

The service scenario: clustered demand around each provider with spare
capacity, then customers arrive/leave and capacities change.  Every warm
re-solve must return the optimal matching of the *mutated* instance (same
cost as solving it from scratch) — warm starting buys fewer Dijkstra
pops, never a different answer.
"""

import numpy as np
import pytest

from repro.core.problem import CCAProblem
from repro.core.session import Matcher
from repro.core.solve import solve
from repro.flow.reference import oracle_cost, oracle_lsa

BACKENDS = ("dict", "array")


def service_instance(caps=(12, 12, 12, 12), per_cluster=8, seed=7):
    """Clustered customers near 4 providers (potentials stay moderate, so
    distant arrivals are warm-admissible)."""
    rng = np.random.default_rng(seed)
    qxy = np.array([[20.0, 20.0], [80.0, 20.0], [20.0, 80.0], [80.0, 80.0]])
    pxy = np.vstack([q + rng.normal(0, 4, (per_cluster, 2)) for q in qxy])
    return qxy, list(caps), pxy


def fresh_problem(qxy, caps, pxy):
    return CCAProblem.from_arrays(qxy, caps, pxy)


def cold_reference(qxy, caps, pxy, backend="dict"):
    """Cost and pop count of a cold IDA solve of the instance.

    The pop baseline runs without the Theorem-2 fast path, the code path
    warm re-solves take, so warm and cold pop counts are comparable."""
    matching = solve(
        fresh_problem(qxy, caps, pxy), "ida", use_fast_path=False, backend=backend
    )
    return matching.cost, matching.stats.dijkstra_pops


class TestColdAssign:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_first_assign_is_cold_and_optimal(self, backend):
        qxy, caps, pxy = service_instance()
        prob = fresh_problem(qxy, caps, pxy)
        matcher = Matcher(prob, backend=backend)
        matching = matcher.assign()
        assert not matcher.last_was_warm
        matching.validate(prob)
        expected = oracle_cost(oracle_lsa(prob.capacities, prob.weights, prob.distance))
        assert matching.cost == pytest.approx(expected, abs=1e-6)

    def test_assign_without_deltas_reuses_network(self):
        qxy, caps, pxy = service_instance()
        matcher = Matcher(fresh_problem(qxy, caps, pxy))
        first = matcher.assign()
        again = matcher.assign()
        assert matcher.last_was_warm
        assert matcher.last_stats.dijkstra_pops == 0
        assert again.cost == first.cost


class TestCustomerArrival:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_warm_arrival_equals_cold_with_fewer_pops(self, backend):
        qxy, caps, pxy = service_instance()
        matcher = Matcher(fresh_problem(qxy, caps, pxy), backend=backend)
        matcher.assign()
        arrival = (50.0, 50.0)  # mid-field: farther than every τ_q
        matcher.add_customer(arrival)
        warm = matcher.assign()
        assert matcher.last_was_warm
        warm_pops = matcher.last_stats.dijkstra_pops
        warm.validate(matcher.problem)

        cold_cost, cold_pops = cold_reference(
            qxy, caps, np.vstack([pxy, [arrival]]), backend=backend
        )
        assert warm.cost == pytest.approx(cold_cost, abs=1e-9)
        assert warm_pops > 0  # γ grew: the arrival had to be matched
        assert warm_pops < cold_pops  # strictly fewer — the warm-start win

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_conflicting_arrival_is_repaired_warm_and_stays_exact(self, backend):
        """An arrival closer than a provider's matched customers makes the
        old matching suboptimal (negative cycle through the new node).
        Every provider is full, so the session repairs it in place with
        one certified search, and the next assign is warm and exact."""
        rng = np.random.default_rng(5)
        qxy = rng.random((4, 2)) * 100
        pxy = rng.random((40, 2)) * 100
        caps = [3, 3, 3, 3]
        matcher = Matcher(CCAProblem.from_arrays(qxy, caps, pxy), backend=backend)
        matcher.assign()
        arrival = (qxy[0][0] + 1.0, qxy[0][1] + 1.0)  # on top of provider 0
        j = matcher.add_customer(arrival)
        assert matcher.is_warm
        res = matcher.assign()
        assert matcher.last_was_warm
        assert matcher.last_cold_reason is None
        assert matcher.arrival_repairs == 1
        assert matcher.last_stats.dijkstra_runs == 1  # the repair search
        assert res.assignment_of(j) == 0
        cold = solve(
            CCAProblem.from_arrays(qxy, caps, np.vstack([pxy, [arrival]])),
            "ida",
            backend=backend,
        )
        assert sorted(res.pairs) == sorted(cold.pairs)
        assert res.cost == pytest.approx(cold.cost, abs=1e-9)

    def test_conflicting_arrival_falls_back_to_cold_and_stays_exact(self):
        """A pinned arrival while some provider has spare capacity: a
        residual cycle may pass through the source, which the repair
        search does not cover, so the session re-solves from scratch."""
        qxy = np.array([[0.0, 0.0], [10.0, 0.0]])
        pxy = np.array([[0.0, 3.0]])  # served by provider 0, which is full
        matcher = Matcher(fresh_problem(qxy, [1, 5], pxy))
        matcher.assign()
        matcher.add_customer((0.0, 1.0))  # closer to provider 0 than p0
        assert not matcher.is_warm
        res = matcher.assign()
        assert not matcher.last_was_warm  # honesty: fell back cold
        assert matcher.last_cold_reason == "arrival_spare"
        assert matcher.arrival_repairs == 0
        cold_cost, _ = cold_reference(qxy, [1, 5], np.vstack([pxy, [(0.0, 1.0)]]))
        assert res.cost == pytest.approx(cold_cost, abs=1e-9)

    def test_arrival_when_capacity_bound_keeps_matching_optimal(self):
        """Σk-bound instance: a far arrival cannot enter the matching, and
        the session proves the old matching still optimal (0 pops)."""
        rng = np.random.default_rng(5)
        qxy = rng.random((4, 2)) * 100
        pxy = rng.random((40, 2)) * 100
        caps = [3, 3, 3, 3]
        matcher = Matcher(CCAProblem.from_arrays(qxy, caps, pxy))
        matcher.assign()
        matcher.add_customer((150.0, 150.0))
        res = matcher.assign()
        assert matcher.last_was_warm
        assert matcher.last_stats.dijkstra_pops == 0
        cold_cost, _ = cold_reference(qxy, caps, np.vstack([pxy, [[150.0, 150.0]]]))
        assert res.cost == pytest.approx(cold_cost, abs=1e-9)


class TestOtherDeltas:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_remove_matched_customer(self, backend):
        qxy, caps, pxy = service_instance()
        matcher = Matcher(fresh_problem(qxy, caps, pxy), backend=backend)
        first = matcher.assign()
        victim = first.pairs[0][1]
        matcher.remove_customer(victim)
        res = matcher.assign()
        assert matcher.last_was_warm
        cold_cost, _ = cold_reference(
            qxy, caps, np.delete(pxy, victim, axis=0), backend=backend
        )
        assert res.cost == pytest.approx(cold_cost, abs=1e-9)
        assert all(p != victim for _, p, _ in res.pairs)

    def test_remove_customer_is_idempotent(self):
        qxy, caps, pxy = service_instance()
        matcher = Matcher(fresh_problem(qxy, caps, pxy))
        matcher.assign()
        matcher.remove_customer(0)
        matcher.remove_customer(0)  # tombstoned: second call is a no-op
        res = matcher.assign()
        cold_cost, _ = cold_reference(qxy, caps, np.delete(pxy, 0, axis=0))
        assert res.cost == pytest.approx(cold_cost, abs=1e-9)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_capacity_increase_is_warm_when_potential_fresh(self, backend):
        """A provider that saturated in the *final* augmentation keeps
        τ_q = τ_s, so reopening its source edge is certifiably safe and
        the widening stays warm."""
        qxy = np.array([[10.0, 10.0]])
        pxy = np.array([[11.0, 10.0], [10.0, 13.0], [14.0, 10.0]])
        matcher = Matcher(fresh_problem(qxy, [1], pxy), backend=backend)
        matcher.assign()
        matcher.set_provider_capacity(0, 3)
        res = matcher.assign()
        assert matcher.last_was_warm
        warm_pops = matcher.last_stats.dijkstra_pops
        cold_cost, cold_pops = cold_reference(qxy, [3], pxy, backend=backend)
        assert res.cost == pytest.approx(cold_cost, abs=1e-9)
        assert 0 < warm_pops < cold_pops

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_capacity_increase_on_stale_provider_falls_back_cold(self, backend):
        """Regression (code review): widening an early-saturated provider
        reopens its (s, q) edge with τ_q < τ_s; the old matching is no
        longer provably optimal and the session must re-solve cold
        rather than return the stale assignment."""
        qxy = np.array([[0.0, 0.0], [10.0, 0.0]])  # A near, B far
        pxy = np.array([[0.0, 1.0], [0.0, 2.0]])   # both next to A
        matcher = Matcher(fresh_problem(qxy, [1, 1], pxy), backend=backend)
        first = matcher.assign()  # {A-p0, B-p1}: A saturates first
        matcher.set_provider_capacity(0, 2)
        res = matcher.assign()
        assert not matcher.last_was_warm
        cold_cost, _ = cold_reference(qxy, [2, 1], pxy, backend=backend)
        assert res.cost == pytest.approx(cold_cost, abs=1e-9)
        assert res.cost < first.cost  # A now serves both: cheaper

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_remove_customer_of_stale_provider_falls_back_cold(self, backend):
        """Regression (code review): releasing an early-saturated
        provider's flow reopens its (s, q) edge with τ_q < τ_s; a warm
        continuation would keep the now-suboptimal remainder, so the
        session must go cold."""
        qxy = np.array([[0.0, 0.0], [10.0, 0.0]])
        pxy = np.array([[0.0, 1.0], [0.0, 2.0]])
        matcher = Matcher(fresh_problem(qxy, [1, 1], pxy), backend=backend)
        matcher.assign()  # {A-p0, B-p1}
        matcher.remove_customer(0)  # frees A, whose potential is stale
        res = matcher.assign()
        assert not matcher.last_was_warm
        cold_cost, _ = cold_reference(qxy, [1, 1], pxy[1:], backend=backend)
        assert res.cost == pytest.approx(cold_cost, abs=1e-9)  # {A-p1}

    def test_capacity_decrease_below_usage_falls_back_cold(self):
        qxy, caps, pxy = service_instance()
        matcher = Matcher(fresh_problem(qxy, caps, pxy))
        matcher.assign()
        used = len(matcher.matching.customers_of(0))
        assert used > 0
        matcher.set_provider_capacity(0, used - 1)
        res = matcher.assign()
        assert not matcher.last_was_warm
        cold_cost, _ = cold_reference(qxy, [used - 1, 12, 12, 12], pxy)
        assert res.cost == pytest.approx(cold_cost, abs=1e-9)

    def test_capacity_decrease_above_usage_stays_warm(self):
        qxy, _, pxy = service_instance()
        caps = [20, 20, 20, 20]  # slack: no provider near its cap
        matcher = Matcher(fresh_problem(qxy, caps, pxy))
        matcher.assign()
        used = len(matcher.matching.customers_of(0))
        matcher.set_provider_capacity(0, max(used, 1))
        res = matcher.assign()
        assert matcher.last_was_warm
        cold_cost, _ = cold_reference(qxy, [max(used, 1), 20, 20, 20], pxy)
        assert res.cost == pytest.approx(cold_cost, abs=1e-9)


class TestDeltaSequences:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mixed_sequence_matches_fresh_solve(self, backend):
        qxy, caps, pxy = service_instance()
        matcher = Matcher(fresh_problem(qxy, caps, pxy), backend=backend)
        matcher.assign()
        a1 = matcher.add_customer((50.0, 50.0))
        matcher.assign()
        matcher.add_customer((52.0, 48.0))
        matcher.remove_customer(3)
        matcher.set_provider_capacity(1, 20)
        res = matcher.assign()
        res.validate(matcher.problem)

        mutated_pxy = np.vstack(
            [np.delete(pxy, 3, axis=0), [(50.0, 50.0)], [(52.0, 48.0)]]
        )
        cold_cost, _ = cold_reference(
            qxy, [12, 20, 12, 12], mutated_pxy, backend=backend
        )
        assert res.cost == pytest.approx(cold_cost, abs=1e-9)
        assert a1 == pxy.shape[0]  # arrivals get fresh positional ids

    def test_backends_agree_across_a_session(self):
        results = {}
        for backend in BACKENDS:
            qxy, caps, pxy = service_instance()
            matcher = Matcher(fresh_problem(qxy, caps, pxy), backend=backend)
            costs = [matcher.assign().cost]
            matcher.add_customer((55.0, 45.0))
            costs.append(matcher.assign().cost)
            matcher.remove_customer(1)
            costs.append(matcher.assign().cost)
            results[backend] = costs
        assert results["dict"] == results["array"]  # bit-identical


class TestValidation:
    def test_negative_weight_rejected(self):
        qxy, caps, pxy = service_instance()
        matcher = Matcher(fresh_problem(qxy, caps, pxy))
        with pytest.raises(ValueError):
            matcher.add_customer((1.0, 1.0), weight=-1)

    def test_negative_capacity_rejected(self):
        qxy, caps, pxy = service_instance()
        matcher = Matcher(fresh_problem(qxy, caps, pxy))
        with pytest.raises(ValueError):
            matcher.set_provider_capacity(0, -2)

    def test_matching_agrees_with_plain_solver(self):
        """The session is a façade over IDA: cold results must match the
        one-shot `solve` entry point exactly."""
        qxy, caps, pxy = service_instance()
        session_cost = Matcher(fresh_problem(qxy, caps, pxy)).assign().cost
        solver_cost = solve(fresh_problem(qxy, caps, pxy), "ida").cost
        assert session_cost == pytest.approx(solver_cost, abs=1e-9)


class TestWarmFallbackOnStalePotentials:
    def test_sharded_reconciliation_seed_4198_regression(self):
        """Hypothesis-found latent bug (pre-dating the index seam): a warm
        reconciliation re-solve discovered a *new* edge whose reduced cost
        was negative against the inherited potentials and crashed with
        NegativeReducedCostError.  The session now detects that the seeded
        state is stale and falls back to a cold solve; this pins the exact
        failing instance (seed=4198, shards=3, nearest router)."""
        import numpy as np

        from repro.core.shard import solve_sharded

        def build_instance(seed, max_nq=6, max_np=24):
            rng = np.random.default_rng(seed)
            nq = int(rng.integers(2, max_nq + 1))
            np_ = int(rng.integers(4, max_np + 1))
            caps = rng.integers(0, 4, nq).tolist()
            if sum(caps) == 0:
                caps[0] = 1
            qxy = rng.random((nq, 2)) * 200.0
            pxy = rng.random((np_, 2)) * 200.0
            return CCAProblem.from_arrays(qxy, caps, pxy)

        problem = build_instance(4198)
        matching = solve_sharded(
            build_instance(4198), 3, router="nearest", backend="array"
        )
        optimal = solve(build_instance(4198), "ida", backend="array")
        assert matching.size == problem.gamma
        assert matching.cost >= optimal.cost - 1e-9
