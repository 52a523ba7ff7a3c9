"""A fixed reference workload that measures how fast the host runs now.

The benchmark's host is a few cores of a shared machine whose speed
moves in phases: identical solves take up to twice as long for minutes
at a time, in CPU time as well as in wall time, so the slowdown is the
core itself running slower, not the process waiting.  Every run
therefore times this reference workload between its operations and
reports each operation's time scaled to a reference host by the samples
taken nearest to it (see :meth:`Calibrator.factors`).

The work is the benchmark's own code and never changes: a heap-driven
shortest-path search over a fixed bipartite graph, written in the same
style as the ``array`` flow kernel (Python lists, tuple heap entries,
reduced-cost arithmetic), and a nearest-neighbour selection over a fixed
point set with NumPy, as the index supply does.  It imports nothing from
the package under test, so a change to the program cannot change the
reference, and a program that gets slower reads slower.
"""

from __future__ import annotations

import heapq
import time
from typing import List, Sequence

import numpy as np

# The reference host is one on which the reference workload's median
# time is this many seconds.  It is a fixed unit, not a measurement to
# update: changing it rescales every reported time.  On a 2-vCPU shared
# host (Python 3.11.7, NumPy 2.4.6) the workload took 4.2-9.5 ms,
# depending on the host's phase.
REFERENCE_S = 0.005

_PROVIDERS = 60
_CUSTOMERS = 900
_FAN = 6
_POINTS = 4000
_QUERIES = 12
_NEAREST = 80
# Samples around an operation whose median gives its scale factor.
WINDOW = 5


class Calibrator:
    """Times the reference workload on demand and keeps every sample."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20080610)
        # Each customer links to a few providers with a distance; each
        # provider has a potential, as in a flow network mid-solve.
        self._bwd: List[List[tuple]] = [
            [
                (0, int(i), float(d))
                for i, d in zip(
                    rng.integers(0, _PROVIDERS, _FAN), rng.random(_FAN), strict=True
                )
            ]
            for _ in range(_CUSTOMERS)
        ]
        self._fwd: List[List[int]] = [[] for _ in range(_PROVIDERS)]
        for j, fan in enumerate(self._bwd):
            for _, i, _d in fan:
                self._fwd[i].append(j)
        self._q_tau = [float(x) for x in rng.random(_PROVIDERS)]
        self._p_tau = [float(x) * 0.5 for x in rng.random(_CUSTOMERS)]
        self._points = rng.random((_POINTS, 2))
        self._queries = rng.random((_QUERIES, 2))
        self.at: List[float] = []  # perf_counter at each sample's start
        self.samples: List[float] = []

    def _search(self) -> int:
        nq = _PROVIDERS
        size = nq + _CUSTOMERS
        alpha = [float("inf")] * size
        settled = [False] * size
        bwd, fwd = self._bwd, self._fwd
        q_tau, p_tau = self._q_tau, self._p_tau
        push, pop = heapq.heappush, heapq.heappop
        heap = []
        for i in range(0, nq, 7):
            alpha[i] = 0.0
            push(heap, (0.0, i))
        pops = 0
        while heap:
            a, idx = pop(heap)
            if a > alpha[idx] or settled[idx]:
                continue
            settled[idx] = True
            pops += 1
            if idx >= nq:
                j = idx - nq
                p_tau_j = p_tau[j]
                for _, i, d in bwd[j]:
                    w = q_tau[i] - d - p_tau_j
                    av = a + (w if w > 0.0 else 0.0)
                    if av < alpha[i]:
                        alpha[i] = av
                        settled[i] = False
                        push(heap, (av, i))
            else:
                for j in fwd[idx]:
                    t = j + nq
                    av = a + 0.25 + p_tau[j] * 0.1
                    if av < alpha[t]:
                        alpha[t] = av
                        push(heap, (av, t))
        return pops

    def _nearest(self) -> float:
        total = 0.0
        for q in self._queries:
            diff = self._points - q
            dist = np.sqrt(diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1])
            part = np.argpartition(dist, _NEAREST)[:_NEAREST]
            total += float(dist[part[np.argsort(dist[part])]][-1])
        return total

    def sample(self) -> float:
        """Run the reference workload once; returns and keeps its time."""
        started = time.perf_counter()
        self._search()
        self._search()
        self._nearest()
        seconds = time.perf_counter() - started
        self.at.append(started)
        self.samples.append(seconds)
        return seconds

    def factors(self, when: Sequence[float]) -> np.ndarray:
        """The scale factor at each ``perf_counter`` time in ``when``:
        the reference time over the median of the ``WINDOW`` samples
        taken nearest to it.  Multiply a time measured then by its factor
        to read it on the reference host."""
        at = np.asarray(self.at)
        samples = np.asarray(self.samples)
        half = WINDOW // 2
        out = np.empty(len(when))
        for n, t in enumerate(when):
            mid = int(np.searchsorted(at, t))
            lo = max(0, min(mid - half, len(at) - WINDOW))
            out[n] = REFERENCE_S / float(np.median(samples[lo : lo + WINDOW]))
        return out
