"""Shared-memory lifecycle for the sharded engine.

``solve_sharded`` ships columns to workers through one
``multiprocessing.shared_memory`` segment; these tests pin the three
properties that make that safe: tasks really are column-free (tiny
pickles), attachments are zero-copy, and the segment is gone after the
solve — whether it finished or a worker died mid-flight.
"""

import gc
import glob
import pickle

import numpy as np
import pytest

from repro.core.faults import FaultPlan
from repro.core.shard import ShardTask, solve_sharded
from repro.core.shm import SEGMENT_PREFIX, SharedColumnStore, attach, close_and_unlink
from repro.core.supervisor import RetryPolicy
from tests.conftest import random_problem

# Pin the raise path: no retries, no cold requeue — the legacy
# fail-fast behaviour the leak tests were written against.
FAIL_FAST = RetryPolicy(max_retries=0, requeue_cold=False)


def _segments():
    """Live repro-cca segments on this machine (Linux: files in /dev/shm)."""
    return sorted(glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*"))


needs_dev_shm = pytest.mark.skipif(
    not glob.glob("/dev/shm"), reason="needs a visible /dev/shm (Linux)"
)


class TestSharedColumnStore:
    def test_attach_is_zero_copy_and_read_only(self):
        arrays = {
            "xy": np.arange(20, dtype=np.float64).reshape(10, 2),
            "cap": np.arange(5, dtype=np.int64),
        }
        store = SharedColumnStore(arrays)
        try:
            first = attach(store.handle)
            second = attach(store.handle)
            for key, arr in arrays.items():
                np.testing.assert_array_equal(first[key], arr)
                # Same process, same cached mapping: literally one buffer.
                assert np.shares_memory(first[key], second[key])
                assert not first[key].flags.writeable
        finally:
            store.close_and_unlink()

    @needs_dev_shm
    def test_close_and_unlink_is_idempotent(self):
        store = SharedColumnStore({"a": np.ones(3)})
        name = store.handle.name
        assert f"/dev/shm/{name}" in _segments()
        store.close_and_unlink()
        assert f"/dev/shm/{name}" not in _segments()
        store.close_and_unlink()  # second call is a no-op
        close_and_unlink(store.handle)  # module-level form too

    def test_handle_pickles_small(self):
        store = SharedColumnStore({"xy": np.zeros((100_000, 2)), "w": np.ones(100_000)})
        try:
            # The whole point: the payload does not scale with the data.
            assert len(pickle.dumps(store.handle)) < 1024
        finally:
            store.close_and_unlink()


class TestShardTaskTransport:
    def test_tasks_carry_no_columns(self):
        """ShardTask fields are scalars plus the store handle — no
        coordinate, capacity, or weight payloads."""
        fields = set(ShardTask.__dataclass_fields__)
        for leaky in (
            "provider_ids",
            "provider_xy",
            "capacities",
            "customer_ids",
            "customer_xy",
            "customer_weights",
        ):
            assert leaky not in fields
        assert "store" in fields


@needs_dev_shm
class TestSolveShardedLifecycle:
    def test_no_leaked_segments_after_solve(self):
        before = _segments()
        rng = np.random.default_rng(21)
        problem = random_problem(rng, nq=8, np_=160, cap_hi=30)
        matching = solve_sharded(problem, 3, workers=2)
        matching.validate(problem)
        assert _segments() == before

    def test_no_leaked_segments_after_worker_fault(self):
        before = _segments()
        rng = np.random.default_rng(22)
        problem = random_problem(rng, nq=8, np_=160, cap_hi=30)
        plan = FaultPlan.single("error", shard=1, at=None)
        with pytest.raises(RuntimeError, match="injected shard worker"):
            solve_sharded(
                problem,
                3,
                workers=2,
                fault_plan=plan,
                retry_policy=FAIL_FAST,
            )
        assert _segments() == before

    def test_no_leaked_segments_after_serial_fault(self):
        """The inline (workers=None) path runs the same finally cleanup."""
        before = _segments()
        rng = np.random.default_rng(23)
        problem = random_problem(rng, nq=6, np_=120, cap_hi=30)
        plan = FaultPlan.single("error", shard=0, at=None)
        with pytest.raises(RuntimeError, match="injected shard worker"):
            solve_sharded(problem, 3, fault_plan=plan, retry_policy=FAIL_FAST)
        assert _segments() == before

    def test_no_leaked_segments_when_supervision_recovers(self):
        """The default policy absorbs the fault — and still leaks
        nothing, even though a worker died mid-attach."""
        before = _segments()
        rng = np.random.default_rng(24)
        problem = random_problem(rng, nq=8, np_=160, cap_hi=30)
        clean = solve_sharded(problem, 3, workers=2)
        faulted = solve_sharded(
            problem,
            3,
            workers=2,
            fault_plan=FaultPlan.single("crash", shard=0),
        )
        assert faulted.pairs == clean.pairs
        assert _segments() == before


@needs_dev_shm
class TestFinalizerGuard:
    def test_dropped_store_is_unlinked_by_finalizer(self):
        """An owner that never reaches close_and_unlink (bug, crash path)
        must not leak: the weakref.finalize guard unlinks at GC."""
        before = _segments()
        store = SharedColumnStore({"a": np.ones(16)})
        name = store.handle.name
        assert f"/dev/shm/{name}" in _segments()
        del store
        gc.collect()
        assert f"/dev/shm/{name}" not in _segments()
        assert _segments() == before
