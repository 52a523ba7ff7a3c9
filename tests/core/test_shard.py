"""Tests for the sharded parallel assignment engine."""

import pytest

from repro.core.problem import CCAProblem
from repro.core.shard import (
    ShardPlan,
    plan_shards,
    route_concise,
    route_nearest,
    solve_sharded,
)
from repro.core.solve import solve
from repro.datagen.workloads import make_problem, make_separated_problem


def fresh_problem(**kwargs):
    params = dict(nq=10, np_=300, k=12, seed=5)
    params.update(kwargs)
    return make_problem(**params)


class TestPlanShards:
    def test_provider_disjoint_cover(self):
        problem = fresh_problem()
        plan = plan_shards(problem, 3)
        seen = [pid for spec in plan.shards for pid in spec.provider_ids]
        assert sorted(seen) == list(range(len(problem.providers)))

    def test_capacity_recorded(self):
        problem = fresh_problem()
        plan = plan_shards(problem, 3)
        total = sum(spec.capacity for spec in plan.shards)
        assert total == sum(q.capacity for q in problem.providers)

    def test_at_most_requested_shards(self):
        problem = fresh_problem()
        assert plan_shards(problem, 4).num_shards <= 4
        # More shards than providers collapses to one per provider.
        assert plan_shards(problem, 99).num_shards <= len(problem.providers)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            plan_shards(fresh_problem(), 0)


class TestRouting:
    def test_nearest_respects_shard_of_provider(self):
        problem = fresh_problem()
        plan = plan_shards(problem, 3)
        routed = route_nearest(problem, plan)
        assert len(routed) == plan.num_shards
        total = sum(sum(bucket.values()) for bucket in routed)
        assert total == sum(p.weight for p in problem.customers)

    def test_concise_demand_within_capacity(self):
        problem = fresh_problem()
        plan = plan_shards(problem, 3, delta=40.0)
        routed = route_concise(problem, plan)
        for spec, bucket in zip(plan.shards, routed, strict=False):
            assert sum(bucket.values()) <= spec.capacity
        # Routed demand equals the concise matching size γ.
        total = sum(sum(bucket.values()) for bucket in routed)
        assert total == problem.gamma


class TestSolveSharded:
    def test_single_shard_is_serial(self):
        serial = solve(fresh_problem(), "ida", backend="array")
        sharded = solve_sharded(fresh_problem(), 1, backend="array")
        assert sharded.pairs == serial.pairs

    def test_multi_shard_valid_and_maximal(self):
        problem = fresh_problem()
        matching = solve_sharded(problem, 3, backend="array")
        # solve_sharded validates internally; re-assert the essentials.
        assert matching.size == problem.gamma
        assert matching.stats.extra["shards"] == 3

    def test_pool_matches_inline(self):
        inline = solve_sharded(fresh_problem(), 3, backend="array")
        pooled = solve_sharded(fresh_problem(), 3, workers=2, backend="array")
        assert pooled.pairs == inline.pairs

    def test_per_shard_backend_selection(self):
        problem = fresh_problem()
        plan = plan_shards(problem, 2)
        backends = ["dict", "array"][: plan.num_shards]
        mixed = solve_sharded(fresh_problem(), plan.num_shards, backend=backends)
        uniform = solve_sharded(fresh_problem(), plan.num_shards, backend="dict")
        assert mixed.cost == pytest.approx(uniform.cost, abs=1e-9)

    def test_separated_clusters_exact(self):
        problem = make_separated_problem(clusters=4, nq_per=5, np_per=60, k=12, seed=1)
        serial = solve(problem, "ida", backend="array")
        sharded = solve_sharded(
            make_separated_problem(clusters=4, nq_per=5, np_per=60, k=12, seed=1),
            4,
            delta=200.0,
            backend="array",
        )
        assert sharded.cost == pytest.approx(serial.cost, rel=1e-9)

    def test_concise_router_not_worse_than_sa(self):
        delta = 40.0
        sharded = solve_sharded(fresh_problem(), 3, router="concise", delta=delta)
        sa = solve(fresh_problem(), "san", delta=delta)
        assert sharded.cost <= sa.cost * (1 + 1e-9) + 1e-9

    def test_facade_dispatch(self):
        problem = fresh_problem()
        matching = solve(problem, "ida", shards=2, backend="array")
        assert matching.size == problem.gamma
        assert matching.stats.method == "shard-ida"

    def test_rejects_bad_arguments(self):
        problem = fresh_problem()
        with pytest.raises(ValueError):
            solve_sharded(problem, 0)
        with pytest.raises(ValueError):
            solve_sharded(problem, 2, router="teleport")
        with pytest.raises(ValueError):
            solve_sharded(problem, 2, method="sspa")
        with pytest.raises(ValueError):
            solve(problem, "san", shards=2)
        with pytest.raises(ValueError):
            solve_sharded(problem, 2, backend=["dict"] * 7)

    def test_rejects_overlapping_plan(self):
        problem = CCAProblem.from_arrays([(0.0, 0.0), (5.0, 0.0)], [1, 1], [(1.0, 0.0)])
        plan = ShardPlan.from_provider_lists([[0, 1], [1]], problem)
        with pytest.raises(ValueError):
            solve_sharded(problem, 2, plan=plan)


class TestReconciliation:
    """Hand-built geometries that force the boundary pass to act."""

    def _problem(self, provider_xy, caps, customer_xy):
        return CCAProblem.from_arrays(provider_xy, caps, customer_xy)

    def test_accepted_move_reaches_optimum(self):
        # Shard 0 owns P0(0,0) and P1(1,0); shard 1 owns P2(0.9,0) with
        # spare capacity.  c1 routes to shard 0 (nearest P0) but shard 0's
        # exact solve must park it on P1 at 0.6 — the reconciliation move
        # re-homes it to P2 at 0.5, reaching the global optimum.
        problem = self._problem(
            [(0.0, 0.0), (1.0, 0.0), (0.9, 0.0)],
            [1, 1, 1],
            [(0.0, 0.0), (0.4, 0.0)],
        )
        plan = ShardPlan.from_provider_lists([[0, 1], [2]], problem)
        matching = solve_sharded(problem, 2, plan=plan)
        assert matching.stats.extra["reconcile_moves"] == 1
        assert matching.cost == pytest.approx(0.5)
        serial = solve(
            self._problem(
                [(0.0, 0.0), (1.0, 0.0), (0.9, 0.0)],
                [1, 1, 1],
                [(0.0, 0.0), (0.4, 0.0)],
            ),
            "ida",
        )
        assert matching.cost == pytest.approx(serial.cost)

    def test_losing_move_is_reverted(self):
        # Same boundary bait, but shard 1's nearby provider is occupied
        # and its spare capacity sits far away at P3(5,0): the trial move
        # re-solves to a worse total and must be rolled back.
        problem = self._problem(
            [(0.0, 0.0), (1.0, 0.0), (0.9, 0.0), (5.0, 0.0)],
            [1, 1, 1, 1],
            [(0.0, 0.0), (0.4, 0.0), (0.9, 0.0)],
        )
        plan = ShardPlan.from_provider_lists([[0, 1], [2, 3]], problem)
        matching = solve_sharded(problem, 2, plan=plan)
        assert matching.stats.extra["reconcile_moves"] == 0
        assert matching.stats.extra["reconcile_attempted"] == 1
        assert matching.cost == pytest.approx(0.6)
        assert matching.size == problem.gamma

    def test_reconcile_never_degrades(self):
        problem = fresh_problem(seed=7)
        with_rec = solve_sharded(problem, 3, backend="array")
        without = solve_sharded(
            fresh_problem(seed=7), 3, backend="array", reconcile=False
        )
        assert with_rec.cost <= without.cost + 1e-9


class TestShardResultVerification:
    def test_result_missing_a_pair_fails_verification(self):
        """A worker that drops a pair and lowers its claimed gamma to
        match must not pass: the claim is checked against the shard's
        own min(sum of capacities, sum of routed weights)."""
        import dataclasses

        from repro.core.shard import _make_tasks, _verify_shard_result, solve_shard_task

        problem = fresh_problem()
        plan = plan_shards(problem, 2)
        routed = route_nearest(problem, plan)
        backends = ["dict"] * plan.num_shards
        args = ("pointer", True, 8, True, None, False)
        tasks, store = _make_tasks(problem, plan, routed, "ida", backends, *args)
        try:
            task = tasks[0]
            result = solve_shard_task(task)
            assert result.pairs
            assert _verify_shard_result(task, result) is None
            short = dataclasses.replace(
                result, pairs=result.pairs[1:], gamma=result.gamma - 1
            )
            failure = _verify_shard_result(task, short)
            assert failure is not None and "gamma" in failure
        finally:
            store.close_and_unlink()
