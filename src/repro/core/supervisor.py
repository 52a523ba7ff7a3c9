"""Supervised execution of shard tasks — deadlines, retries, requeue.

:func:`~repro.core.shard.solve_sharded` used to drive its worker pool
with a bare ``pool.map``: one crashed, hung, or lying worker and the
whole solve died (or worse, returned silently wrong pairs).  This module
wraps that seam with the supervision loop ROADMAP item 5's multi-node
coordinator will inherit:

* **Per-task deadlines** — each submitted task carries a deadline from
  its *submission* time (wave scheduling keeps at most ``workers`` tasks
  in flight, so a deadline never starts ticking while the task is only
  queued).  A blown deadline kills the worker processes outright —
  ``ProcessPoolExecutor`` cannot cancel a running future — and the pool
  is rebuilt; in-flight tasks that were merely collateral are requeued
  at the *same* attempt (their failure was not their fault).
* **Bounded retry with exponential backoff + deterministic jitter** — a
  failed attempt is retried up to ``max_retries`` times; the backoff for
  (shard, attempt) is a pure function of the policy seed, so a replay of
  the same fault plan schedules identically.
* **Requeue-cold fallback** — when retries are exhausted the shard is
  re-solved *in the coordinator process* via the caller's ``fallback``
  (the same solve, stripped of fault injection).  The per-shard solver is
  deterministic, so the fallback result is bit-identical to what a
  healthy worker would have produced: certify-or-fall-back, never silent
  degradation.
* **Result verification** — an optional ``verify`` hook runs on every
  result (worker or fallback).  A worker result that fails verification
  is treated as a *poisoned* failure and retried; a fallback result that
  fails verification is a genuine bug and raises.

Every observed failure and the action taken is recorded on a
:class:`~repro.core.faults.FaultLedger`, which ``solve_sharded`` surfaces
on ``SolverStats.faults``.
"""

# repro-lint: disable-file=RPR006 -- the supervision loop IS the scheduling
# layer: deadlines, retry backoff and wakeups are wall-clock by nature.
# Result determinism is preserved independently of timing: the ledger
# drains completed futures in task-position order and every retry is
# replayed from an immutable ShardTask.

from __future__ import annotations

import hashlib
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence

from repro.core.faults import FaultInjected, FaultLedger


@dataclass(frozen=True)
class RetryPolicy:
    """How the supervisor reacts to failures.

    ``task_timeout_s=None`` disables deadlines (the production default:
    a healthy shard solve has no natural wall-clock bound, and killing
    workers on a guess would turn slow instances into fault storms).
    Chaos runs and tests set it explicitly.
    """

    max_retries: int = 2
    task_timeout_s: Optional[float] = None
    backoff_base_s: float = 0.05
    backoff_multiplier: float = 2.0
    backoff_jitter: float = 0.25
    requeue_cold: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise ValueError("task_timeout_s must be positive (or None)")

    def backoff_s(self, shard: int, attempt: int) -> float:
        """Deterministic exponential backoff with per-(shard, attempt)
        jitter — a pure function, so replays schedule identically."""
        base = self.backoff_base_s * (self.backoff_multiplier ** max(0, attempt))
        if self.backoff_jitter <= 0:
            return base
        digest = hashlib.sha256(f"{self.seed}:{shard}:{attempt}".encode()).digest()
        unit = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return base * (1.0 + self.backoff_jitter * unit)


class ShardTimeoutError(RuntimeError):
    """A task blew its per-task deadline and its worker was killed."""


def _classify(exc: BaseException) -> str:
    if isinstance(exc, BrokenProcessPool):
        return "crash"
    if isinstance(exc, ShardTimeoutError):
        return "timeout"
    if isinstance(exc, FaultInjected):
        return "error"
    return "error"


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down hard, leaving no orphan worker processes.

    The executor cannot cancel a *running* future, so deadline
    enforcement means killing the workers themselves; the private
    ``_processes`` map is the only handle CPython offers, hence the
    getattr guard (a stdlib that drops it degrades to plain shutdown).
    """
    procs_map = getattr(pool, "_processes", None)
    procs = list(procs_map.values()) if isinstance(procs_map, dict) else []
    manager = getattr(pool, "_executor_manager_thread", None)
    for proc in procs:
        try:
            proc.terminate()
        # repro-lint: disable=RPR008 -- last-resort teardown of an already
        # condemned worker; the solve outcome was decided before this point
        except Exception:
            pass
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        try:
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=2.0)
        # repro-lint: disable=RPR008 -- ditto: join/kill on a dying process
        # may race process exit; there is nothing left to signal
        except Exception:
            pass
    # The executor's manager thread joins the same processes concurrently.
    # Two threads blocked in waitpid() on one pid race: the loser gets
    # ECHILD and reports the child as running until the winner records
    # its exit code, so a caller checking active_children() right after
    # this returns could still see a dead worker.  Wait for the manager
    # thread to finish its joins, then reap until every worker has a
    # recorded exit code.
    if manager is not None:
        manager.join(timeout=5.0)
    deadline = time.monotonic() + 5.0
    while any(proc.exitcode is None for proc in procs):
        if time.monotonic() >= deadline:
            break
        time.sleep(0.01)


def run_supervised(
    tasks: Sequence,
    *,
    solve: Callable,
    fallback: Callable,
    verify: Optional[Callable] = None,
    workers: Optional[int] = None,
    mp_context=None,
    policy: Optional[RetryPolicy] = None,
    ledger: Optional[FaultLedger] = None,
) -> List:
    """Run ``solve(task)`` for every task under supervision.

    Returns results in task order.  ``tasks`` must expose ``.index``
    (ledger shard id) and ``.attempt`` (restamped via
    ``dataclasses.replace`` on retry).  ``fallback(task)`` re-solves a
    task in the calling process after retries are exhausted (only
    consulted when ``policy.requeue_cold``); ``verify(task, result)``
    returns an error string for an implausible result, ``None`` when it
    certifies.
    """
    policy = policy or RetryPolicy()
    ledger = ledger if ledger is not None else FaultLedger()
    if workers is None or workers <= 1 or len(tasks) <= 1:
        return _run_inline(tasks, solve, fallback, verify, policy, ledger)
    return _run_pool(
        tasks,
        solve,
        fallback,
        verify,
        policy,
        ledger,
        min(workers, len(tasks)),
        mp_context,
    )


def _verified(task, result, verify, *, cold: bool):
    if verify is None:
        return result
    problem = verify(task, result)
    if problem is None:
        return result
    if cold:
        # The fallback runs fault-free in this very process: a result it
        # produces that still fails verification is a real solver bug,
        # not an injected hazard — surface it, never mask it.
        raise RuntimeError(
            f"cold requeue of shard {task.index} failed verification: " f"{problem}"
        )
    raise FaultInjected(
        f"injected shard worker fault (shard {task.index}): poisoned "
        f"result — {problem}"
    )


def _fail(
    task,
    attempt,
    exc,
    kind,
    *,
    policy,
    ledger,
    now,
    pending,
    pos,
    results,
    fallback,
    verify,
):
    """Shared failure policy: retry → requeue-cold → raise."""
    detail = f"{type(exc).__name__}: {exc}"
    if attempt < policy.max_retries:
        backoff = policy.backoff_s(task.index, attempt)
        ledger.record(task.index, attempt, kind, "retry", detail, backoff)
        pending.append((pos, attempt + 1, now + backoff))
        return
    if policy.requeue_cold:
        ledger.record(task.index, attempt, kind, "requeue_cold", detail)
        results[pos] = _verified(task, fallback(task), verify, cold=True)
        return
    ledger.record(task.index, attempt, kind, "raise", detail)
    raise exc


def _run_inline(tasks, solve, fallback, verify, policy, ledger):
    """Serial supervision (workers<=1): same retry/requeue policy, no
    deadline enforcement — a hang in this process cannot be preempted,
    which is exactly why chaos runs use worker processes."""
    results = [None] * len(tasks)
    for pos, task in enumerate(tasks):
        attempt = getattr(task, "attempt", 0)
        while True:
            try:
                results[pos] = _verified(
                    task,
                    solve(replace(task, attempt=attempt)),
                    verify,
                    cold=False,
                )
                break
            except Exception as exc:
                kind = "poison" if "poisoned result" in str(exc) else (_classify(exc))
                if attempt < policy.max_retries:
                    backoff = policy.backoff_s(task.index, attempt)
                    ledger.record(
                        task.index,
                        attempt,
                        kind,
                        "retry",
                        f"{type(exc).__name__}: {exc}",
                        backoff,
                    )
                    time.sleep(min(backoff, 0.25))  # bounded: same process
                    attempt += 1
                    continue
                if policy.requeue_cold:
                    ledger.record(
                        task.index,
                        attempt,
                        kind,
                        "requeue_cold",
                        f"{type(exc).__name__}: {exc}",
                    )
                    results[pos] = _verified(task, fallback(task), verify, cold=True)
                    break
                ledger.record(
                    task.index,
                    attempt,
                    kind,
                    "raise",
                    f"{type(exc).__name__}: {exc}",
                )
                raise
    return results


def _drain_order(finished, in_flight):
    """Completed futures in task-position order.

    ``wait()`` hands back a *set* of futures; iterating it directly
    would drain in heap-address order, making ledger event order (and
    retry budgets under racing deadlines) differ run to run.
    """
    return sorted(finished, key=lambda future: in_flight[future][0])


def _run_pool(tasks, solve, fallback, verify, policy, ledger, max_workers, mp_context):
    results = [None] * len(tasks)
    done = [False] * len(tasks)
    # (pos, attempt, ready_at): ready_at gates backoff re-submission.
    pending = [(pos, getattr(t, "attempt", 0), 0.0) for pos, t in enumerate(tasks)]
    in_flight = {}  # future -> (pos, attempt, deadline)
    pool = ProcessPoolExecutor(max_workers=max_workers, mp_context=mp_context)
    pool_broken = False
    try:
        while pending or in_flight:
            now = time.monotonic()
            if pool_broken:
                _kill_pool(pool)
                pool = ProcessPoolExecutor(
                    max_workers=max_workers, mp_context=mp_context
                )
                pool_broken = False
            # Submit every ready task while worker slots are free — wave
            # scheduling: a deadline starts at submission, never while
            # the task is still queued behind others.
            still_waiting = []
            for pos, attempt, ready_at in sorted(pending):
                if (
                    ready_at <= now and len(in_flight) < max_workers and not pool_broken
                ):
                    try:
                        future = pool.submit(
                            solve, replace(tasks[pos], attempt=attempt)
                        )
                    except (BrokenProcessPool, RuntimeError):
                        pool_broken = True  # rebuild next iteration
                        still_waiting.append((pos, attempt, ready_at))
                        continue
                    deadline = (
                        now + policy.task_timeout_s
                        if policy.task_timeout_s is not None
                        else None
                    )
                    in_flight[future] = (pos, attempt, deadline)
                else:
                    still_waiting.append((pos, attempt, ready_at))
            pending = still_waiting

            # Sleep until something completes, a deadline expires, or a
            # backed-off task becomes ready.
            wake_at = [
                d for (_, _, d) in in_flight.values() if d is not None
            ] + [r for (_, _, r) in pending if r > now]
            timeout = max(0.0, min(wake_at) - now) if wake_at else None
            if in_flight:
                finished, _ = wait(
                    in_flight,
                    timeout=timeout,
                    return_when=FIRST_COMPLETED,
                )
            else:
                finished = set()
                if timeout:
                    time.sleep(min(timeout, 0.05))
            now = time.monotonic()

            for future in _drain_order(finished, in_flight):
                pos, attempt, _deadline = in_flight.pop(future)
                task = tasks[pos]
                exc = future.exception()
                if isinstance(exc, BrokenProcessPool):
                    pool_broken = True
                if exc is None:
                    try:
                        results[pos] = _verified(
                            task, future.result(), verify, cold=False
                        )
                        done[pos] = True
                        continue
                    except FaultInjected as poisoned:
                        _fail(
                            task,
                            attempt,
                            poisoned,
                            "poison",
                            policy=policy,
                            ledger=ledger,
                            now=now,
                            pending=pending,
                            pos=pos,
                            results=results,
                            fallback=fallback,
                            verify=verify,
                        )
                        if results[pos] is not None:
                            done[pos] = True
                        continue
                _fail(
                    task,
                    attempt,
                    exc,
                    _classify(exc),
                    policy=policy,
                    ledger=ledger,
                    now=now,
                    pending=pending,
                    pos=pos,
                    results=results,
                    fallback=fallback,
                    verify=verify,
                )
                if results[pos] is not None:
                    done[pos] = True

            # Deadline sweep: any in-flight task past its deadline means
            # killing the pool (running futures cannot be cancelled).
            expired = [
                (future, meta)
                for future, meta in in_flight.items()
                if meta[2] is not None and now >= meta[2]
            ]
            if expired:
                expired_futures = {future for future, _ in expired}
                collateral = [
                    meta for future, meta in in_flight.items()
                    if future not in expired_futures
                ]
                in_flight.clear()
                _kill_pool(pool)
                pool = ProcessPoolExecutor(
                    max_workers=max_workers, mp_context=mp_context
                )
                pool_broken = False
                for _future, (pos, attempt, _deadline) in expired:
                    task = tasks[pos]
                    exc = ShardTimeoutError(
                        f"shard {task.index} attempt {attempt} exceeded "
                        f"{policy.task_timeout_s:.3f}s deadline"
                    )
                    _fail(
                        task,
                        attempt,
                        exc,
                        "timeout",
                        policy=policy,
                        ledger=ledger,
                        now=now,
                        pending=pending,
                        pos=pos,
                        results=results,
                        fallback=fallback,
                        verify=verify,
                    )
                    if results[pos] is not None:
                        done[pos] = True
                for pos, attempt, _deadline in collateral:
                    # Killed alongside the offender through no fault of
                    # its own: requeue at the SAME attempt, no penalty.
                    ledger.record(
                        tasks[pos].index,
                        attempt,
                        "collateral",
                        "requeue",
                        "worker pool killed by a sibling's deadline",
                    )
                    pending.append((pos, attempt, now))
    finally:
        _kill_pool(pool)
    missing = [pos for pos, ok in enumerate(done) if not ok]
    if missing:  # unreachable by construction; guard against None results
        raise RuntimeError(f"supervised run lost results for task positions {missing}")
    return results


__all__ = [
    "RetryPolicy",
    "ShardTimeoutError",
    "run_supervised",
]
