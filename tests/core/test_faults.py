"""Unit tests for the deterministic fault-injection framework."""

import pickle

import pytest

from repro.core.faults import (
    FaultInjected,
    FaultLedger,
    FaultPlan,
    FaultSpec,
    attach_fault,
    poison_result,
    trigger,
)


class TestFaultSpec:
    def test_matches_site_shard_and_occurrence(self):
        spec = FaultSpec(kind="error", site="worker", shard=2, at=(0, 3))
        assert spec.matches("worker", 2, 0)
        assert spec.matches("worker", 2, 3)
        assert not spec.matches("worker", 2, 1)
        assert not spec.matches("worker", 1, 0)
        assert not spec.matches("attach", 2, 0)

    def test_wildcards(self):
        every = FaultSpec(kind="error", shard=None, at=None)
        assert every.matches("worker", 0, 0)
        assert every.matches("worker", 7, 12)
        periodic = FaultSpec(kind="error", at=None, period=3)
        assert periodic.matches("worker", 0, 3)
        assert periodic.matches("worker", 0, 6)
        assert not periodic.matches("worker", 0, 0)
        assert not periodic.matches("worker", 0, 4)

    def test_validation(self):
        with pytest.raises(ValueError, match="site"):
            FaultSpec(site="nowhere")
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(kind="gremlin")
        with pytest.raises(ValueError, match="period"):
            FaultSpec(period=0)


class TestFaultPlan:
    def test_single_and_attach_alias(self):
        plan = FaultPlan.single("error", shard=1)
        assert plan.match("worker", 1, 0).kind == "error"
        assert plan.match("worker", 1, 1) is None  # first attempt only
        attach_plan = FaultPlan.single("attach", shard=0)
        spec = attach_plan.match("attach", 0, 0)
        assert spec is not None and spec.kind == "error"
        assert attach_plan.match("worker", 0, 0) is None

    def test_compose_first_match_wins(self):
        a = FaultPlan.single("poison", shard=0)
        b = FaultPlan.single("error", shard=0)
        assert (a | b).match("worker", 0, 0).kind == "poison"
        assert (b | a).match("worker", 0, 0).kind == "error"

    def test_bool_and_none(self):
        assert not FaultPlan.none()
        assert FaultPlan.single("error")
        assert FaultPlan.none().match("worker", 0, 0) is None

    def test_from_seed_is_deterministic_and_picklable(self):
        one = FaultPlan.from_seed(7, num_shards=4)
        two = FaultPlan.from_seed(7, num_shards=4)
        other = FaultPlan.from_seed(8, num_shards=4)
        assert one == two
        assert one.seed == 7
        assert pickle.loads(pickle.dumps(one)) == one
        assert one.describe() != FaultPlan.none().describe()
        # Different seeds should not all collapse to the same plan.
        assert any(
            FaultPlan.from_seed(s, num_shards=4) != one for s in range(8)
        ) or other != one
        # Generated faults fire on the first attempt only, so a
        # supervised retry always recovers.
        for spec in one.specs:
            assert spec.at == (0,)
            assert 0 <= spec.shard < 4

    def test_session_faults_schedule(self):
        plan = FaultPlan.session_faults([2, 5], num_shards=3)
        assert plan.match("session", 0, 2) is not None
        assert plan.match("session", 1, 5) is not None
        assert plan.match("session", 0, 5) is None
        assert plan.match("worker", 0, 2) is None


class TestTrigger:
    def test_error_raises_with_stable_message(self):
        spec = FaultSpec(kind="error")
        with pytest.raises(FaultInjected, match="injected shard worker"):
            trigger(spec, where="shard 3, attempt 0")

    def test_crash_degrades_to_raise_in_parent_process(self):
        # os._exit would kill pytest; inline execution must degrade.
        spec = FaultSpec(kind="crash")
        with pytest.raises(FaultInjected, match="crash"):
            trigger(spec, where="shard 0, attempt 0")

    def test_slow_returns(self):
        trigger(FaultSpec(kind="slow", delay_s=0.0))

    def test_attach_fault_context_arms_and_disarms(self):
        from repro.core import shm

        spec = FaultSpec(kind="error", site="attach")
        with attach_fault(spec, where="shard 0"):
            with pytest.raises(FaultInjected, match="attach failure"):
                shm.attach(
                    shm.StoreHandle(name="repro_cca_none", manifest=(), nbytes=0)
                )
        assert shm._ATTACH_FAULT is None
        with attach_fault(None):
            pass  # no-op arm


class TestPoisonAndLedger:
    def test_poison_result_perturbs(self):
        class R:
            pairs = [(0, 1, 2.0), (1, 2, 3.0)]
            gamma = 2

        r = R()
        poison_result(r)
        assert r.pairs[0][2] == pytest.approx(3.0)

        class Empty:
            pairs = []
            gamma = 0

        e = Empty()
        poison_result(e)
        assert e.gamma == 1

    def test_ledger_counts_and_summary(self):
        ledger = FaultLedger()
        ledger.record(0, 0, "crash", "retry", backoff_s=0.1)
        ledger.record(0, 1, "timeout", "retry", backoff_s=0.2)
        ledger.record(0, 2, "poison", "requeue_cold")
        ledger.record(1, 0, "error", "raise")
        assert len(ledger) == 4
        assert ledger.retries == 2
        assert ledger.requeues == 1
        assert ledger.timeouts == 1
        assert ledger.crashes == 1
        assert ledger.poisoned == 1
        summary = ledger.summary()
        assert summary["events"] == 4
        assert summary["by_shard"] == [0, 1]
        assert summary["backoff_s"] == pytest.approx(0.3)
