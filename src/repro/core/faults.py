"""Deterministic, composable fault injection for the shard runtime.

The sharded engine and the serving layer both run real production
hazards — worker processes crash, hang, or start slowly; shared-memory
segments vanish between creation and attach; a solver hands back a
corrupted result; a warm session's residual state dies.  Reproducing
those hazards on demand is what makes the supervision layer
(:mod:`repro.core.supervisor`) testable: a :class:`FaultPlan` names
exactly which fault fires where and when, the same plan replays the same
failure schedule in any process, and `repro-cca chaos` sweeps seeded
plans as a reproducible chaos harness.

Sites (where a fault can fire)
------------------------------
* ``"worker"`` — inside :func:`~repro.core.shard.solve_shard_task`,
  before/around the per-shard solve.  Occurrence axis: the task's retry
  *attempt* (0 = first try).
* ``"attach"`` — inside :func:`repro.core.shm.attach`, the worker's
  zero-copy mapping of the shared column segment.  Occurrence axis: the
  attempt, as above.
* ``"session"`` — a warm :class:`~repro.core.session.Matcher` owned by
  the serving engine dies (is marked dead and must be quarantined and
  rebuilt).  Occurrence axis: the service's delta-group index.

Kinds (what the fault does)
---------------------------
* ``"crash"`` — the worker process dies hard (``os._exit``); inside the
  coordinator process it degrades to raising :class:`FaultInjected`
  (killing the caller's interpreter would be a test hazard, not a
  simulated one).
* ``"error"`` — raise :class:`FaultInjected` (a clean worker exception).
* ``"hang"`` — sleep for ``delay_s`` (long; the supervisor's per-task
  deadline is what ends it).
* ``"slow"`` — sleep for ``delay_s``, then continue normally (slow
  start; exercises deadlines without losing the work).
* ``"poison"`` — complete the solve, then corrupt the result
  deterministically (the supervisor's verifier must catch it).

Matching is purely positional — ``(site, shard, occurrence)`` — so a
plan is deterministic by construction: no clocks, no randomness at fire
time.  :meth:`FaultPlan.from_seed` derives a random *plan* from a seed,
but the plan itself is then fixed.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

FAULT_SITES = ("worker", "attach", "session")
FAULT_KINDS = ("crash", "error", "hang", "slow", "poison")

# Default sleep for "hang" faults: long enough that only a supervisor
# deadline ends it, short enough that an unsupervised run (workers<=1,
# no timeout) eventually finishes instead of wedging a test session.
DEFAULT_HANG_S = 60.0
DEFAULT_SLOW_S = 0.2


class FaultInjected(RuntimeError):
    """An injected fault fired (never raised by real failures)."""


@dataclass(frozen=True)
class FaultSpec:
    """One fault: where (site/shard), when (occurrences), what (kind).

    ``shard=None`` matches every shard; ``at=None`` + ``period=None``
    matches every occurrence; ``at=(0, 2)`` fires on occurrences 0 and 2
    only; ``period=k`` fires on every k-th occurrence (k, 2k, ...).
    """

    kind: str = "error"
    site: str = "worker"
    shard: Optional[int] = None
    at: Optional[Tuple[int, ...]] = (0,)
    period: Optional[int] = None
    delay_s: float = 0.0

    def __post_init__(self):
        if self.site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; expected one of " f"{FAULT_SITES}"
            )
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of " f"{FAULT_KINDS}"
            )
        if self.period is not None and self.period < 1:
            raise ValueError("fault period must be >= 1")
        if self.at is not None:
            object.__setattr__(self, "at", tuple(int(a) for a in self.at))

    def matches(self, site: str, shard: int, occurrence: int) -> bool:
        if site != self.site:
            return False
        if self.shard is not None and shard != self.shard:
            return False
        if self.at is None and self.period is None:
            return True
        if self.at is not None and occurrence in self.at:
            return True
        if self.period is not None and occurrence > 0:
            return occurrence % self.period == 0
        return False

    def describe(self) -> str:
        where = "any shard" if self.shard is None else f"shard {self.shard}"
        if self.at is None and self.period is None:
            when = "every occurrence"
        elif self.at is not None:
            when = f"occurrences {list(self.at)}"
        else:
            when = f"every {self.period}th occurrence"
        return f"{self.kind}@{self.site} on {where}, {when}"


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, picklable collection of :class:`FaultSpec`.

    Plans compose with ``|`` (left plan's specs match first) and travel
    inside :class:`~repro.core.shard.ShardTask`, so workers see exactly
    the schedule the coordinator decided on — no ambient state.
    """

    specs: Tuple[FaultSpec, ...] = ()
    seed: Optional[int] = None  # provenance of generated plans

    def __post_init__(self):
        object.__setattr__(self, "specs", tuple(self.specs))

    def __bool__(self) -> bool:
        return bool(self.specs)

    def __or__(self, other: "FaultPlan") -> "FaultPlan":
        return FaultPlan(specs=self.specs + tuple(other.specs))

    def match(self, site: str, shard: int, occurrence: int) -> Optional[FaultSpec]:
        """The first spec firing at (site, shard, occurrence), if any."""
        for spec in self.specs:
            if spec.matches(site, shard, int(occurrence)):
                return spec
        return None

    def describe(self) -> str:
        if not self.specs:
            return "fault-free plan"
        head = f"FaultPlan(seed={self.seed}): " if self.seed is not None \
            else "FaultPlan: "
        return head + "; ".join(spec.describe() for spec in self.specs)

    # -- constructors ---------------------------------------------------
    @classmethod
    def none(cls) -> "FaultPlan":
        """An explicitly fault-free plan (``solve_sharded`` treats it
        like ``None``)."""
        return cls()

    @classmethod
    def single(
        cls,
        kind: str,
        *,
        shard: Optional[int] = None,
        site: Optional[str] = None,
        at: Optional[Sequence[int]] = (0,),
        period: Optional[int] = None,
        delay_s: Optional[float] = None,
    ) -> "FaultPlan":
        """One fault; site defaults by kind (``attach`` is site-like and
        maps to an error at the attach seam for convenience)."""
        if kind == "attach":
            site, kind = "attach", "error"
        if site is None:
            site = "worker"
        if delay_s is None:
            delay_s = DEFAULT_HANG_S if kind == "hang" else (
                DEFAULT_SLOW_S if kind == "slow" else 0.0
            )
        return cls(
            specs=(
                FaultSpec(
                    kind=kind,
                    site=site,
                    shard=shard,
                    at=None if at is None else tuple(at),
                    period=period,
                    delay_s=float(delay_s),
                ),
            )
        )

    @classmethod
    def from_seed(
        cls,
        seed: int,
        num_shards: int,
        *,
        kinds: Sequence[str] = ("crash", "error", "hang", "slow", "poison"),
        attach_faults: bool = True,
        n_faults: int = 2,
        hang_s: float = DEFAULT_HANG_S,
    ) -> "FaultPlan":
        """A random — but fully deterministic given ``seed`` — chaos plan.

        Every generated fault fires on the *first* attempt only, so a
        supervised run always recovers (retry attempt 1 is clean); the
        bit-identity acceptance gate is therefore checkable on any
        generated plan.
        """
        if num_shards < 1:
            raise ValueError("num_shards must be positive")
        rng = np.random.default_rng(seed)
        specs = []
        for _ in range(max(1, int(n_faults))):
            kind = str(rng.choice(list(kinds)))
            shard = int(rng.integers(0, num_shards))
            site = "worker"
            if attach_faults and kind == "error" and rng.random() < 0.5:
                site = "attach"
            delay_s = hang_s if kind == "hang" else (
                DEFAULT_SLOW_S if kind == "slow" else 0.0
            )
            specs.append(
                FaultSpec(kind=kind, site=site, shard=shard, at=(0,), delay_s=delay_s,)
            )
        return cls(specs=tuple(specs), seed=int(seed))

    @classmethod
    def session_faults(
        cls,
        groups: Sequence[int],
        num_shards: int,
    ) -> "FaultPlan":
        """Kill one (rotating) shard session at each listed delta group —
        the serving layer's fixed-crash-rate chaos schedule."""
        specs = tuple(
            FaultSpec(
                kind="error",
                site="session",
                shard=(k % max(1, num_shards)),
                at=(int(g),),
            )
            for k, g in enumerate(groups)
        )
        return cls(specs=specs)


def trigger(spec: FaultSpec, *, where: str = "") -> None:
    """Fire a worker-site fault (poison is handled by the caller, which
    owns the result to corrupt)."""
    label = f" ({where})" if where else ""
    if spec.kind == "crash":
        if multiprocessing.parent_process() is not None:
            os._exit(17)  # a real hard death; no cleanup, no exception
        # Inline (coordinator) execution: killing the caller's interpreter
        # would take the test session down with it — degrade to a raise.
        raise FaultInjected(f"injected shard worker fault{label}: crash")
    if spec.kind == "error":
        raise FaultInjected(f"injected shard worker fault{label}")
    if spec.kind in ("hang", "slow"):
        # repro-lint: disable=RPR006 -- the sleep IS the injected fault
        # (latency/hang simulation); its duration comes from the seeded plan
        time.sleep(spec.delay_s)
        if spec.kind == "hang" and spec.delay_s >= DEFAULT_HANG_S:
            # An unsupervised hang that slept its full budget still
            # surfaces loudly rather than pretending nothing happened.
            raise FaultInjected(f"injected shard worker fault{label}: hang expired")
        return
    if spec.kind == "poison":
        return  # the caller corrupts its result after solving


@contextmanager
def attach_fault(spec: Optional[FaultSpec], *, where: str = "") -> Iterator[None]:
    """Arm the shm attach seam to fail while the context is active."""
    from repro.core import shm

    if spec is None:
        yield
        return

    def _hook(handle):
        raise FaultInjected(
            f"injected shm attach failure ({where}): segment "
            f"{handle.name!r} unreachable"
        )

    shm.set_attach_fault(_hook)
    try:
        yield
    finally:
        shm.set_attach_fault(None)


def poison_result(result):
    """Deterministically corrupt a ShardResult-shaped object in place.

    Perturbs the first pair's distance when there is one (a silent
    objective corruption — exactly what the supervisor's verifier must
    catch), otherwise inflates the claimed matching size.
    """
    if result.pairs:
        i, j, d = result.pairs[0]
        result.pairs[0] = (i, j, d + 1.0)
    else:
        result.gamma += 1
    return result


# ----------------------------------------------------------------------
# ledger (recorded by the supervisor, surfaced on SolverStats)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultEvent:
    """One observed failure and what the supervisor did about it."""

    shard: int
    attempt: int
    kind: str  # crash | error | timeout | poison | collateral
    action: str  # retry | requeue_cold | raise | requeue
    detail: str = ""
    backoff_s: float = 0.0


@dataclass
class FaultLedger:
    """Every retry / requeue / timeout of one supervised run."""

    events: list = field(default_factory=list)

    def record(
        self,
        shard: int,
        attempt: int,
        kind: str,
        action: str,
        detail: str = "",
        backoff_s: float = 0.0,
    ) -> FaultEvent:
        event = FaultEvent(
            shard=int(shard),
            attempt=int(attempt),
            kind=kind,
            action=action,
            detail=detail,
            backoff_s=float(backoff_s),
        )
        self.events.append(event)
        return event

    def __len__(self) -> int:
        return len(self.events)

    def count(self, *, kind: Optional[str] = None, action: Optional[str] = None) -> int:
        return sum(
            1
            for e in self.events
            if (kind is None or e.kind == kind)
            and (action is None or e.action == action)
        )

    @property
    def retries(self) -> int:
        return self.count(action="retry")

    @property
    def requeues(self) -> int:
        return self.count(action="requeue_cold")

    @property
    def timeouts(self) -> int:
        return self.count(kind="timeout")

    @property
    def crashes(self) -> int:
        return self.count(kind="crash")

    @property
    def poisoned(self) -> int:
        return self.count(kind="poison")

    def summary(self) -> dict:
        """JSON-able roll-up (stored in ``SolverStats.extra['faults']``)."""
        return {
            "events": len(self.events),
            "retries": self.retries,
            "requeues_cold": self.requeues,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "poisoned": self.poisoned,
            "backoff_s": round(sum(e.backoff_s for e in self.events), 6),
            "by_shard": sorted({e.shard for e in self.events}),
        }


__all__ = [
    "FAULT_KINDS",
    "FAULT_SITES",
    "FaultEvent",
    "FaultInjected",
    "FaultLedger",
    "FaultPlan",
    "FaultSpec",
    "attach_fault",
    "poison_result",
    "trigger",
]

# `replace` is re-exported for supervisor convenience (attempt stamping).
_ = replace
