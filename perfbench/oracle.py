"""Independent optimality oracle for CCA matchings.

The optimum is computed with SciPy's ``linear_sum_assignment`` over the
capacity-expanded distance matrix: provider ``q`` contributes ``q.k`` rows,
live customer ``p`` contributes ``p.w`` columns.  A rectangular assignment
covers ``min(rows, columns)`` = γ pairs, so its minimum cost is the CCA
optimum.  Only coordinates, capacities and weights are read from the
instance; no solver, flow or index code runs here.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import List, Sequence, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

EXACT_RTOL = 1e-9
WORKERS = 2


def _columns(problem) -> Tuple[np.ndarray, ...]:
    """The instance as plain arrays (cheap to send to a worker)."""
    qxy = np.array([q.point.coords for q in problem.providers], dtype=float)
    pxy = np.array([p.point.coords for p in problem.customers], dtype=float)
    caps = np.asarray(problem.capacities, dtype=np.int64)
    weights = np.asarray(problem.weights, dtype=np.int64)
    return qxy.reshape(-1, 2), pxy.reshape(-1, 2), caps, weights


def _optimum(columns: Tuple[np.ndarray, ...]) -> Tuple[float, int]:
    qxy, pxy, caps, weights = columns
    live = np.flatnonzero(weights > 0)
    rows = np.repeat(np.arange(len(caps)), caps)
    cols = np.repeat(live, weights[live])
    if not len(rows) or not len(cols):
        return 0.0, 0
    qx, qy = qxy[rows, 0], qxy[rows, 1]
    px, py = pxy[cols, 0], pxy[cols, 1]
    cost = np.hypot(qx[:, None] - px[None, :], qy[:, None] - py[None, :])
    r, c = linear_sum_assignment(cost)
    return float(cost[r, c].sum()), int(len(r))


def optima(problems: Sequence) -> List[Tuple[float, int]]:
    """(optimal cost, γ) of each problem over its live customers, computed
    by ``WORKERS`` processes that are joined before this returns."""
    columns = [_columns(problem) for problem in problems]
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=WORKERS, mp_context=context) as pool:
        return list(pool.map(_optimum, columns))


def check(matching, problem, best: float, gamma: int, *, exact: bool) -> str:
    """Validate ``matching`` against ``problem`` and its oracle optimum.

    Returns an empty string when every check passed, else what failed.
    Any matching must be valid and maximal (``Matching.validate``), have
    the oracle's γ pairs, and never beat the optimum; an exact one must
    reach it within ``EXACT_RTOL``.
    """
    try:
        matching.validate(problem)
    except AssertionError as exc:
        return f"invalid matching: {exc}"
    if gamma != len(matching.pairs):
        return f"size {len(matching.pairs)} != oracle gamma {gamma}"
    cost = matching.cost
    slack = EXACT_RTOL * max(1.0, abs(best))
    if cost < best - slack:
        return f"cost {cost!r} below the optimum {best!r}"
    if exact and cost > best + slack:
        return f"cost {cost!r} above the optimum {best!r}"
    return ""
