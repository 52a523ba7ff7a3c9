"""One-call façade over every solver in the repository."""

from __future__ import annotations

from typing import Optional

from repro.core.approx.ca import CAApproxSolver
from repro.core.approx.sa import SAApproxSolver
from repro.core.baseline import SSPASolver
from repro.core.ida import IDASolver
from repro.core.matching import Matching
from repro.core.nia import NIASolver
from repro.core.problem import CCAProblem
from repro.core.ria import RIASolver
from repro.core.shard import SHARD_METHODS, solve_sharded
from repro.core.sm import SMSolver
from repro.experiments.config import PAPER_DEFAULTS
from repro.flow.backend import DEFAULT_BACKEND, BackendLike
from repro.rtree.backend import IndexBackendLike

EXACT_METHODS = ("sspa", "ria", "nia", "ida")
APPROX_METHODS = ("san", "sae", "can", "cae", "sm")


def solve(
    problem: CCAProblem,
    method: str = "ida",
    *,
    theta: float = 0.8,
    delta: Optional[float] = None,
    use_pua: bool = True,
    use_fast_path: bool = True,
    ann_group_size: Optional[int] = None,
    backend: BackendLike = DEFAULT_BACKEND,
    index_backend: Optional[IndexBackendLike] = None,
    shards: int = 1,
    workers: Optional[int] = None,
    router: str = "nearest",
) -> Matching:
    """Solve a CCA instance.

    Parameters
    ----------
    method:
        One of ``sspa`` / ``ria`` / ``nia`` / ``ida`` (exact), ``san`` /
        ``sae`` / ``can`` / ``cae`` (SA/CA approximation with NN-based or
        exclusive-NN refinement), or ``sm`` (greedy spatial-matching
        baseline).
    theta:
        RIA's range increment θ.
    delta:
        SA/CA partition diagonal δ (defaults: the paper's sweet spots from
        ``experiments.config.PAPER_DEFAULTS`` — 40 for SA, 10 for CA).
        With ``shards > 1`` it doubles as the shard-planning diagonal.
    use_pua / use_fast_path / ann_group_size:
        Optimization toggles for NIA/IDA (Section 3.3-3.4), exposed for
        ablation studies.  ``ann_group_size`` defaults to the paper's
        Section 3.4.2 group size from
        ``experiments.config.PAPER_DEFAULTS``.
    backend:
        Flow-kernel selector (``"dict"`` reference or ``"array"``
        columnar kernel; see :mod:`repro.flow.backend`).  Both return
        identical matchings; ``array`` is faster at scale.
    index_backend:
        Spatial-index selector (``"pointer"`` reference R-tree or
        ``"packed"`` columnar array tree; see :mod:`repro.rtree.backend`).
        Both return bit-identical matchings and page-access counts;
        ``packed`` streams neighbors at array speed.  ``None`` follows
        the problem's configured default.
    shards / workers / router:
        ``shards > 1`` routes exact methods through the sharded parallel
        engine (:mod:`repro.core.shard`): the instance is decomposed into
        provider-disjoint spatial shards solved concurrently by
        ``workers`` processes and reconciled.  ``shards=1`` (default) is
        the plain serial solver.
    """
    method = method.lower()
    if ann_group_size is None:
        ann_group_size = PAPER_DEFAULTS["ann_group_size"]
    if shards != 1:
        if method not in SHARD_METHODS:
            raise ValueError(
                f"shards={shards} requires an incremental exact method "
                f"{SHARD_METHODS}, got {method!r}"
            )
        return solve_sharded(
            problem,
            shards,
            workers=workers,
            method=method,
            router=router,
            delta=delta,
            backend=backend,
            index_backend=index_backend,
            use_pua=use_pua,
            ann_group_size=ann_group_size,
            use_fast_path=use_fast_path,
            theta=theta,
        )
    if method == "sspa":
        return SSPASolver(problem, backend=backend, index_backend=index_backend).solve()
    if method == "ria":
        return RIASolver(
            problem,
            theta=theta,
            backend=backend,
            index_backend=index_backend,
        ).solve()
    if method == "nia":
        return NIASolver(
            problem,
            use_pua=use_pua,
            ann_group_size=ann_group_size,
            backend=backend,
            index_backend=index_backend,
        ).solve()
    if method == "ida":
        return IDASolver(
            problem,
            use_pua=use_pua,
            ann_group_size=ann_group_size,
            use_fast_path=use_fast_path,
            backend=backend,
            index_backend=index_backend,
        ).solve()
    if method in ("san", "sae"):
        return SAApproxSolver(
            problem,
            delta=PAPER_DEFAULTS["sa_delta"] if delta is None else delta,
            refinement="nn" if method == "san" else "exclusive",
            backend=backend,
            index_backend=index_backend,
        ).solve()
    if method in ("can", "cae"):
        return CAApproxSolver(
            problem,
            delta=PAPER_DEFAULTS["ca_delta"] if delta is None else delta,
            refinement="nn" if method == "can" else "exclusive",
            backend=backend,
            index_backend=index_backend,
        ).solve()
    if method == "sm":
        return SMSolver(
            problem,
            ann_group_size=ann_group_size,
            backend=backend,
            index_backend=index_backend,
        ).solve()
    raise ValueError(
        f"unknown method {method!r}; expected one of "
        f"{EXACT_METHODS + APPROX_METHODS}"
    )
