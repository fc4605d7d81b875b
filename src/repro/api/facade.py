"""The programmatic façade: ``solve`` / ``solve_all`` / ``solve_batch``.

One stable entry point over every registered min-cut solver::

    from repro.api import solve

    result = solve(graph)                       # auto-picked exact solver
    result = solve(graph, solver="stoer_wagner")
    result = solve(graph, epsilon=0.25)         # auto-picked (1+eps) solver
    result = solve(graph, solver="exact", mode="congest")

Every call returns a canonical :class:`~repro.api.result.CutResult`
stamped with the solver name, guarantee class, seed and wall time, so
downstream consumers (CLI, comparison tables, benchmarks, the
:mod:`repro.service` HTTP layer) never touch per-algorithm result
types.

These module-level functions are **thin delegations to the default
:class:`~repro.api.engine.Engine`** (:func:`repro.api.default_engine`):
the engine is the session object that owns registry, backend, cache
and budget policy, and this module keeps the historic per-call-kwarg
surface stable on top of it.  Every knob accepted here — ``backend=``
(``"serial"``/``"process"``/``"remote"`` or an
:class:`~repro.exec.backends.Executor`, default from
``$REPRO_BACKEND``), ``cache=`` (a
:class:`~repro.exec.cache.ResultCache`), ``registry=``, ``budget=`` —
forwards verbatim, with unset values falling back to the default
engine's configuration; long-lived callers should construct their own
:class:`~repro.api.engine.Engine` instead of re-passing kwargs.

``solve_all`` runs every applicable solver on one graph (the compare
workload); ``solve_batch`` maps ``solve`` over many graphs (the sweep
workload).  Per-task seeds are frozen up front and all backends run
the identical task path, so parallelism (including remote sharding)
only changes wall time, never results.  Cache-enabled results carry
``extras["cache"]`` with the hit flag and the cache's running hit/miss
counters.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence, Union

from ..exec.backends import Executor
from ..exec.cache import ResultCache
from ..graphs.graph import WeightedGraph
from .engine import _UNSET, default_engine
from .registry import SolverRegistry
from .result import CutResult

Backend = Union[str, Executor, None]


def solve(
    graph: WeightedGraph,
    solver: str = "auto",
    *,
    epsilon: Optional[float] = None,
    mode: str = "reference",
    seed: int = 0,
    budget: Optional[int] = None,
    registry: Optional[SolverRegistry] = None,
    cache: Optional[ResultCache] = None,
    **options: Any,
) -> CutResult:
    """Compute a minimum cut of ``graph`` with one registered solver.

    Parameters
    ----------
    solver:
        A registry name (see ``python -m repro solvers``) or ``"auto"``:
        with ``epsilon`` unset the strongest applicable *exact* solver is
        chosen; with ``epsilon`` set the strongest applicable *approx*
        solver (capability filters remove solvers that cannot run on the
        instance — e.g. integer-weight samplers on fractional graphs, or
        brute force beyond its node limit).
    epsilon:
        Approximation parameter forwarded to approximate solvers
        (default 0.5 when such a solver runs without one).
    mode:
        ``"reference"`` (centralized) or ``"congest"`` (simulated
        CONGEST execution with round accounting, for solvers that
        support it).
    seed / budget:
        ``seed`` is the determinism knob.  ``budget`` has two readings:
        with a *named* solver it is that solver's effort cap (packing
        trees, contraction repetitions, sampling rate steps — per-solver
        meaning is listed in the registry summary); with
        ``solver="auto"`` it is an **expected-cost ceiling** in the
        registry's cost units — the policy consults each candidate's
        registered cost model and skips solvers too expensive for this
        instance before running anything (falling back to the cheapest
        candidate when nothing fits), and the chosen solver then runs at
        its default effort.
    cache:
        Optional :class:`repro.exec.ResultCache`.  The key covers the
        graph content hash and every knob (resolved solver name, epsilon,
        mode, seed, budget, options); on a hit the stored result is
        returned without running the solver.  Cache-enabled results
        carry ``extras["cache"] = {"hit": bool, "hits": int,
        "misses": int}``.
    options:
        Extra keyword arguments forwarded verbatim to the solver adapter
        (e.g. ``tree_count=...`` for the packing solvers).
    """
    return default_engine().solve(
        graph,
        solver,
        epsilon=epsilon,
        mode=mode,
        seed=seed,
        budget=budget,
        registry=registry,
        cache=cache if cache is not None else _UNSET,
        **options,
    )


def solve_all(
    graph: WeightedGraph,
    *,
    epsilon: Optional[float] = None,
    mode: str = "reference",
    seed: int = 0,
    budget: Optional[int] = None,
    kinds: Optional[Sequence[str]] = None,
    names: Optional[Sequence[str]] = None,
    include_heavy: bool = False,
    registry: Optional[SolverRegistry] = None,
    backend: Backend = None,
    cache: Optional[ResultCache] = None,
) -> list[CutResult]:
    """Run every applicable registered solver on ``graph``.

    Solvers are filtered by capability (node limits, congest support,
    integer weights), by ``kinds``/``names`` when given, and — unless
    ``include_heavy`` — by the ``heavy`` flag (full CONGEST pipelines).
    Results come back in registration order.

    ``names`` is an explicit selection: unknown names raise
    :class:`~repro.errors.AlgorithmError` and the ``heavy`` filter is
    bypassed (you asked for them by name); capability filters still
    apply, so compare the returned solvers against your request to see
    what was skipped as inapplicable.

    ``backend`` fans the per-solver runs out through
    :mod:`repro.exec` (``"serial"``/``"process"``/``"remote"``,
    default from ``$REPRO_BACKEND``); ``cache``
    short-circuits solvers whose result for this exact instance and
    knob set is already known.
    """
    return default_engine().solve_all(
        graph,
        epsilon=epsilon,
        mode=mode,
        seed=seed,
        budget=budget,
        kinds=kinds,
        names=names,
        include_heavy=include_heavy,
        registry=registry,
        backend=backend if backend is not None else _UNSET,
        cache=cache if cache is not None else _UNSET,
    )


def solve_batch(
    graphs: Iterable[WeightedGraph],
    solver: str = "auto",
    *,
    epsilon: Optional[float] = None,
    mode: str = "reference",
    seed: int = 0,
    budget: Optional[int] = None,
    registry: Optional[SolverRegistry] = None,
    backend: Backend = None,
    cache: Optional[ResultCache] = None,
    **options: Any,
) -> list[CutResult]:
    """``solve`` mapped over many graphs (one result per graph, in order).

    Each graph gets seed ``seed + index`` so batch runs are deterministic
    yet not correlated across instances — and because every task's seed
    is frozen before dispatch, the ``backend`` knob (``"serial"``,
    ``"process"``, ``"remote"``; default from ``$REPRO_BACKEND``) never changes the results, only the wall time.

    With ``solver="auto"``, ``budget`` is the expected-cost ceiling the
    per-graph selection trades on (see :func:`solve`) and is not
    forwarded to the chosen solvers; a named solver receives it as its
    effort cap, as before.

    ``graphs`` may be any iterable (it is materialised exactly once), and
    a failure anywhere raises :class:`~repro.errors.AlgorithmError`
    naming the offending graph index instead of bubbling a bare
    mid-batch error; results completed before the failure are still
    written to ``cache``.  ``cache`` is consulted per task before
    dispatch — because the key includes the per-index seed, replaying a
    batch hits (same instance, same index/seed), but a duplicate graph
    *within* a batch sits at a different index, gets a different seed,
    and recomputes.
    """
    return default_engine().solve_batch(
        graphs,
        solver,
        epsilon=epsilon,
        mode=mode,
        seed=seed,
        budget=budget,
        registry=registry,
        backend=backend if backend is not None else _UNSET,
        cache=cache if cache is not None else _UNSET,
        **options,
    )


__all__ = ["solve", "solve_all", "solve_batch"]
