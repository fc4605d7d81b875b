"""The Engine: a configurable session object over the solver registry.

Historically the module-level façade (``solve`` / ``solve_all`` /
``solve_batch``) threaded an ever-growing set of per-call kwargs —
``registry=``, ``backend=``, ``cache=``, ``budget=`` — through every
layer, and anything long-lived (the HTTP service, a benchmark sweep, a
shard router) had to re-pass them on every call.  :class:`Engine`
separates the *policy* object that owns those choices from the
per-request call:

    from repro.api import Engine
    from repro.exec import ResultCache

    engine = Engine(cache=ResultCache(path="results_store"),
                    backend="process", budget=50_000)
    result = engine.solve(graph)            # engine defaults apply
    results = engine.solve_batch(graphs)    # cached + process fan-out
    table = engine.compare(graph)           # ground truth first

Registry, backend and cache belong to the engine: its methods take no
per-call ``registry=``/``backend=``/``cache=`` (a caller who wants
another builds another ``Engine``).  The solver knobs resolve as
**explicit call argument > engine default**, and the backend as
**engine > environment** (``$REPRO_BACKEND``).  The module-level
façade functions delegate to one process-wide default engine
(:func:`default_engine`), or to a fresh engine when the call names a
registry, backend or cache, so the historic surface keeps working
unchanged — same signatures, same env fallbacks, same results.

Engines also own the **task plane**: :meth:`Engine.build_batch_tasks`
freezes a batch call into :class:`~repro.exec.task.SolveTask` objects
(optionally with per-task seed/solver overrides — the wire form the
service layer and the ``remote`` backend exchange) and
:meth:`Engine.solve_tasks` runs any task list through the configured
backend and cache.  ``repro serve`` constructs an Engine per process;
a shard router is literally ``Engine(backend=RemoteExecutor([...]))``.

Cache warm-start rides on the same object: ``Engine(cache=path)``
opens a persistent store-backed cache in place, and
:meth:`Engine.warm_start` merges previously recorded stores (e.g. the
output of ``python -m repro cache merge``) or legacy schema ≤ 2 cache
files so the first sweep already hits.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Iterable, Optional, Sequence, Union

from ..config import EngineConfig, check_field
from ..errors import AlgorithmError, ReproError
from ..exec.backends import Executor, resolve_backend
from ..exec.cache import CacheKey, ResultCache
from ..exec.task import SolveTask
from ..graphs.graph import WeightedGraph
from .registry import SolverRegistry, SolverSpec, default_registry
from .result import CutResult

Backend = Union[str, Executor, None]

#: Sentinel distinguishing "argument not given" from an explicit ``None``
#: for the knobs where ``None`` is a real value (``epsilon=None``: exact
#: solvers; ``budget=None``: no cap), not "the engine's default".
_UNSET = object()


@dataclass(frozen=True, slots=True)
class Lookup:
    """One ``solve`` call resolved and probed against the cache.

    :meth:`Engine.lookup` builds it: the solver is resolved, ``budget``
    is the one the solver would run at, ``key`` is the cache key
    (``None`` without a cache) and ``result`` the stamped hit, or
    ``None`` on a miss.  :meth:`Engine.finish` completes a miss without
    parsing, hashing or counting it again.
    """

    spec: SolverSpec
    graph: WeightedGraph
    epsilon: Optional[float]
    mode: str
    seed: int
    budget: Optional[int]
    options: dict[str, Any]
    key: Optional[CacheKey]
    result: Optional[CutResult]


class Engine:
    """A session object owning registry, backend, cache and solver knobs.

    Parameters
    ----------
    registry:
        The :class:`SolverRegistry` to resolve solver names against
        (default: the library registry with every built-in solver).
    backend:
        Default execution backend for batch entry points — a name in
        :data:`repro.config.BACKENDS` (``"serial"``/``"process"``/``"remote"``),
        an :class:`~repro.exec.backends.Executor` instance, or ``None``
        to defer to ``$REPRO_BACKEND`` then ``"serial"``.
    cache:
        Default :class:`~repro.exec.cache.ResultCache` consulted by
        every call.  A ``str``/``Path`` opens a persistent cache on
        that path (the warm-start workflow): the directory of an
        append-only :class:`repro.store.SegmentStore`, created if
        missing (an existing file raises with the migration hint);
        ``None`` disables caching.
    solver / epsilon / mode / seed / budget:
        Default solver knobs, overridable per call.  Semantics are the
        façade's: ``solver="auto"`` picks by capability (and treats
        ``budget`` as an expected-cost ceiling), a named solver
        receives ``budget`` as its effort cap.

    Every method resolves configuration as **explicit argument > engine
    default > environment**, and returns the same canonical
    :class:`CutResult` objects as the module-level façade.  A backend
    name and the solver knobs are checked by their
    :class:`~repro.config.EngineConfig` fields' checkers here, so a bad
    one raises :class:`~repro.errors.ConfigError` at construction.
    """

    def __init__(
        self,
        *,
        registry: Optional[SolverRegistry] = None,
        backend: Backend = None,
        cache: Union[ResultCache, str, Path, None] = None,
        solver: str = "auto",
        epsilon: Optional[float] = None,
        mode: str = "reference",
        seed: int = 0,
        budget: Optional[int] = None,
    ) -> None:
        self.registry = registry if registry is not None else default_registry()
        if not isinstance(backend, Executor):
            backend = check_field(EngineConfig, "backend", backend)
        self.backend = backend
        if isinstance(cache, (str, Path)):
            cache = ResultCache(path=cache)
        self.cache = cache
        self.solver = check_field(EngineConfig, "solver", solver)
        self.epsilon = check_field(EngineConfig, "epsilon", epsilon)
        self.mode = check_field(EngineConfig, "mode", mode)
        self.seed = check_field(EngineConfig, "seed", seed)
        self.budget = check_field(EngineConfig, "budget", budget)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        backend = (
            self.backend if isinstance(self.backend, (str, type(None))) else self.backend.name
        )
        return (
            f"Engine(backend={backend!r}, cache={'on' if self.cache else 'off'}, "
            f"solver={self.solver!r}, solvers={len(self.registry)})"
        )

    @classmethod
    def from_config(
        cls,
        config=None,
        *,
        registry: Optional[SolverRegistry] = None,
    ) -> "Engine":
        """Build an engine from the typed config schema.

        ``config`` may be a :class:`~repro.config.ReproConfig`, a bare
        :class:`~repro.config.EngineConfig`, a config-file path, or
        ``None`` (load via ``$REPRO_CONFIG``/defaults — the usual entry
        from ``repro --config``).  A full ``ReproConfig`` whose engine
        backend is ``"remote"`` and whose ``[remote]`` section supplies
        workers or a manager gets a ready
        :class:`~repro.exec.remote.RemoteExecutor` attached, so
        ``Engine.from_config("repro.toml")`` is a complete shard router
        when the file says so.
        """
        from ..config import ReproConfig, load_config

        if config is None or isinstance(config, (str, Path)):
            config = load_config(config)
        remote_cfg = None
        if isinstance(config, ReproConfig):
            remote_cfg = config.remote
            config = config.engine
        backend: Backend = config.backend
        if (
            backend == "remote"
            and remote_cfg is not None
            and (remote_cfg.workers or remote_cfg.manager)
        ):
            from ..exec.remote import RemoteExecutor

            backend = RemoteExecutor.from_config(remote_cfg)
        if config.cache is True:
            cache: Union[ResultCache, str, None] = ResultCache()
        elif config.cache is False or config.cache is None:
            cache = None
        else:
            cache = config.cache  # a path string -> persistent cache
        return cls(
            registry=registry,
            backend=backend,
            cache=cache,
            solver=config.solver,
            epsilon=config.epsilon,
            mode=config.mode,
            seed=config.seed,
            budget=config.budget,
        )

    # -- the façade surface ---------------------------------------------

    def solve(
        self,
        graph: WeightedGraph,
        solver: Optional[str] = None,
        *,
        epsilon: Union[Optional[float], object] = _UNSET,
        mode: Optional[str] = None,
        seed: Optional[int] = None,
        budget: Union[Optional[int], object] = _UNSET,
        **options: Any,
    ) -> CutResult:
        """Compute a minimum cut of ``graph`` with one registered solver.

        Same contract as :func:`repro.api.solve`, with unset knobs
        falling back to this engine's defaults.
        """
        _refuse_session_knobs("solve", options)
        return self._solve(
            graph,
            solver=self.solver if solver is None else solver,
            epsilon=self.epsilon if epsilon is _UNSET else epsilon,
            mode=self.mode if mode is None else mode,
            seed=self.seed if seed is None else seed,
            budget=self.budget if budget is _UNSET else budget,
            options=options,
        )

    def lookup(
        self,
        graph: WeightedGraph,
        solver: Optional[str] = None,
        *,
        epsilon: Union[Optional[float], object] = _UNSET,
        mode: Optional[str] = None,
        seed: Optional[int] = None,
        budget: Union[Optional[int], object] = _UNSET,
        **options: Any,
    ) -> Lookup:
        """The cache-probe half of :meth:`solve`: resolve, key, look up.

        Takes :meth:`solve`'s arguments and runs no solver: the returned
        :class:`Lookup` carries the stamped hit in ``result``, or
        ``None`` on a miss, which :meth:`finish` then solves.  A hit is
        counted once, here.  The service answers ``/solve`` hits this
        way on its event loop, without waiting for solves in flight.
        """
        _refuse_session_knobs("lookup", options)
        return self._lookup(
            graph,
            solver=self.solver if solver is None else solver,
            epsilon=self.epsilon if epsilon is _UNSET else epsilon,
            mode=self.mode if mode is None else mode,
            seed=self.seed if seed is None else seed,
            budget=self.budget if budget is _UNSET else budget,
            options=options,
        )

    def finish(self, lookup: Lookup) -> CutResult:
        """The solve half of :meth:`solve`: a hit as is, else a solve.

        A miss checks connectivity, runs the resolved solver and puts
        the result under ``lookup.key`` — unless a call for the same key
        has put it since the lookup, which is then answered from the
        cache (its miss stays counted).
        """
        if lookup.result is not None:
            return lookup.result
        cache = self.cache
        if cache is not None and lookup.key is not None:
            with cache.lock:
                done = cache.peek(lookup.key)
                if done is not None:
                    return _stamp_cache(done, cache, hit=True)
        graph = lookup.graph
        # Only a miss checks connectivity: an entry exists only for a
        # graph some solve already required to be connected, and the key
        # pins the graph's content, so a hit skips the traversal.
        graph.require_connected()
        result = _run(
            lookup.spec, graph, epsilon=lookup.epsilon, mode=lookup.mode,
            seed=lookup.seed, budget=lookup.budget, **lookup.options,
        )
        if cache is not None and lookup.key is not None:
            with cache.lock:
                cache.put(lookup.key, result)
                result = _stamp_cache(result, cache, hit=False)
        return result

    def solve_all(
        self,
        graph: WeightedGraph,
        *,
        epsilon: Union[Optional[float], object] = _UNSET,
        mode: Optional[str] = None,
        seed: Optional[int] = None,
        budget: Union[Optional[int], object] = _UNSET,
        kinds: Optional[Sequence[str]] = None,
        names: Optional[Sequence[str]] = None,
        include_heavy: bool = False,
    ) -> list[CutResult]:
        """Run every applicable registered solver on ``graph``.

        Same contract as :func:`repro.api.solve_all`, with unset knobs
        falling back to this engine's defaults.
        """
        return self._solve_all(
            graph,
            epsilon=self.epsilon if epsilon is _UNSET else epsilon,
            mode=self.mode if mode is None else mode,
            seed=self.seed if seed is None else seed,
            budget=self.budget if budget is _UNSET else budget,
            kinds=kinds,
            names=names,
            include_heavy=include_heavy,
        )

    def solve_batch(
        self,
        graphs: Iterable[WeightedGraph],
        solver: Optional[str] = None,
        *,
        epsilon: Union[Optional[float], object] = _UNSET,
        mode: Optional[str] = None,
        seed: Optional[int] = None,
        budget: Union[Optional[int], object] = _UNSET,
        **options: Any,
    ) -> list[CutResult]:
        """``solve`` mapped over many graphs (one result per graph, in order).

        Same contract as :func:`repro.api.solve_batch`, with unset knobs
        falling back to this engine's defaults.
        """
        _refuse_session_knobs("solve_batch", options)
        tasks = self.build_batch_tasks(
            graphs,
            solver=self.solver if solver is None else solver,
            epsilon=self.epsilon if epsilon is _UNSET else epsilon,
            mode=self.mode if mode is None else mode,
            seed=self.seed if seed is None else seed,
            budget=self.budget if budget is _UNSET else budget,
            options=options,
        )
        return self.solve_tasks(tasks)

    def compare(
        self,
        graph: WeightedGraph,
        *,
        epsilon: Union[Optional[float], object] = _UNSET,
        mode: Optional[str] = None,
        seed: Optional[int] = None,
        names: Optional[Sequence[str]] = None,
        kinds: Optional[Sequence[str]] = None,
        include_heavy: bool = False,
    ) -> list[CutResult]:
        """The compare workload: every applicable solver plus ground truth.

        Runs :meth:`solve_all`, guarantees the registry's ground-truth
        solver is represented (running it separately when filtered out
        or inapplicable by name selection), and returns the results
        with the ground-truth entry first — the shape the CLI's
        ``compare`` table and the registry-driven benchmarks consume.
        """
        seed = self.seed if seed is None else seed
        results = self._solve_all(
            graph,
            epsilon=self.epsilon if epsilon is _UNSET else epsilon,
            mode=self.mode if mode is None else mode,
            seed=seed,
            budget=None,
            kinds=kinds,
            names=names,
            include_heavy=include_heavy,
        )
        truth_name = self.registry.ground_truth().name
        if all(result.solver != truth_name for result in results):
            results.insert(
                0,
                self._solve(
                    graph,
                    solver=truth_name,
                    epsilon=None,
                    mode="reference",
                    seed=seed,
                    budget=None,
                    options={},
                ),
            )
        results.sort(key=lambda result: result.solver != truth_name)
        return results

    # -- the cost plane --------------------------------------------------

    def task_cost_fn(self):
        """A ``cost_fn(task) -> float`` for the shared LPT planner.

        Each task costs its solver's registry ``cost_model`` at the
        task graph's ``(n, m)``, in the registry's cost units
        (consistent *relative* costs are all packing needs); ``1.0``
        when nothing is known, which degenerates the pack to the
        historic stripe.
        """
        registry = self.registry

        def cost(task: SolveTask) -> float:
            try:
                spec = registry.get(task.solver)
            except ReproError:
                return 1.0
            n = task.graph.number_of_nodes
            m = task.graph.number_of_edges
            if spec.cost_model is not None:
                return float(spec.cost_model(n, m))
            return 1.0

        return cost

    # -- the task plane --------------------------------------------------

    def build_batch_tasks(
        self,
        graphs: Iterable[WeightedGraph],
        *,
        solver: str = "auto",
        epsilon: Optional[float] = None,
        mode: str = "reference",
        seed: int = 0,
        budget: Optional[int] = None,
        options: Optional[dict[str, Any]] = None,
        seeds: Optional[Sequence[int]] = None,
        solvers: Optional[Sequence[str]] = None,
    ) -> list[SolveTask]:
        """Freeze a batch call into :class:`SolveTask` objects.

        Graph ``i`` gets seed ``seed + i`` and the resolved name of
        ``solver`` — unless ``seeds`` / ``solvers`` supply per-task
        overrides (the wire form a shard router exchanges: a shard's
        tasks keep their original frozen seeds and resolved solver
        names, so re-running them anywhere is bit-identical).  Each
        graph is validated and its solver resolved up front; failures
        raise :class:`AlgorithmError` naming the graph index.  With
        ``solver="auto"``, ``budget`` steers selection and is *not*
        frozen into the tasks (the pick runs at default effort).
        """
        frozen_options = tuple(sorted((options or {}).items()))
        graphs = list(graphs)
        for name, override in (("seeds", seeds), ("solvers", solvers)):
            if override is not None and len(override) != len(graphs):
                raise AlgorithmError(
                    f"solve_batch: {name} override has {len(override)} "
                    f"entr{'y' if len(override) == 1 else 'ies'} for "
                    f"{len(graphs)} graph(s)"
                )
        tasks = []
        for index, graph in enumerate(graphs):
            wanted = solver if solvers is None else solvers[index]
            try:
                graph.require_connected()
                spec = _resolve_spec(
                    self.registry, graph, wanted, mode=mode, epsilon=epsilon,
                    budget=budget,
                )
            except ReproError as exc:
                raise AlgorithmError(f"solve_batch: graph #{index}: {exc}") from exc
            tasks.append(
                SolveTask(
                    graph=graph,
                    solver=spec.name,
                    epsilon=epsilon,
                    mode=mode,
                    seed=seed + index if seeds is None else seeds[index],
                    budget=None if wanted == "auto" else budget,
                    options=frozen_options,
                    label=f"graph #{index}",
                )
            )
        return tasks

    def solve_tasks(
        self, tasks: Sequence[SolveTask], *, backend: Backend = None
    ) -> list[CutResult]:
        """Run pre-built tasks through a backend and this engine's cache.

        The seam under every batch entry point.  ``backend`` (``None``:
        this engine's own) is the one per-call knob: the service's
        ``/solve_batch`` lets a request pick how it fans out.

        Cache lookups and stores happen in the calling process (worker
        processes cannot share the cache object), so only misses are
        dispatched; results come back in task order either way.
        Backends return failures as captured exceptions; with a cache
        attached every completed result is cached (memory + one disk
        flush) before the first failure — in task order — is raised,
        while without one the serial backend stops at the failure
        instead of computing results nobody will see.
        """
        cache = self.cache
        # Validate the backend even if every task hits.
        executor = resolve_backend(self.backend if backend is None else backend)
        if getattr(executor, "cost_fn", None) is None:
            # Attach the engine's task-cost predictor so packing
            # backends balance by predicted work; an executor the
            # caller already configured keeps its own cost function.
            executor.cost_fn = self.task_cost_fn()
        tasks = list(tasks)
        results: list[Optional[CutResult]] = [None] * len(tasks)
        if cache is not None:
            pending: list[tuple[int, SolveTask]] = []
            keys = {}
            for position, task in enumerate(tasks):
                key = task.cache_key()
                keys[position] = key
                hit = cache.get(key)
                if hit is not None:
                    results[position] = _stamp_cache(hit, cache, hit=True)
                else:
                    pending.append((position, task))
        else:
            pending = list(enumerate(tasks))
        failure: Optional[Exception] = None
        if pending:
            computed = executor.run_tasks(
                [task for _, task in pending],
                registry=self.registry,
                keep_going=cache is not None,  # completed work is only worth
            )                                  # finishing if it can be cached
            for (position, _task), outcome in zip(pending, computed):
                if isinstance(outcome, Exception):
                    if failure is None:
                        failure = outcome
                    continue
                if cache is not None:
                    cache.put(keys[position], outcome, flush=False)
                    outcome = _stamp_cache(outcome, cache, hit=False)
                results[position] = outcome
        if cache is not None:
            # One disk write per batch for its puts and hit records, so
            # an all-hit replay still leaves its hits in the store.
            cache.flush()
        if failure is not None:
            raise failure
        return results  # type: ignore[return-value]  (every slot is filled)

    # -- dynamic sessions ------------------------------------------------

    def dynamic_session(self, graph: WeightedGraph, **knobs):
        """Open a :class:`~repro.dynamic.session.DynamicSession` on ``graph``.

        The session inherits this engine's registry, cache and solver
        knobs; ``knobs`` (``solver=``/``epsilon=``/``mode=``/``seed=``/
        ``copy=``/``validate=``) override per session.  Mutations stream
        through a :class:`~repro.dynamic.ops.MutationLog` with a live
        content hash and O(1) reweight index patches, and
        ``session.solve()`` skips the solver when a cut certificate
        proves the cached result still stands.
        """
        from ..dynamic.session import DynamicSession

        return DynamicSession(self, graph, **knobs)

    # -- warm start ------------------------------------------------------

    def warm_start(
        self, *sources: Union[ResultCache, str, Path], flush: bool = True
    ) -> int:
        """Merge recorded caches (store dirs, legacy files, live caches) in.

        The cache warm-start workflow: record caches during benchmark or
        sharded-sweep runs, merge them (``python -m repro cache merge``
        or directly here), and the engine's first sweep over the same
        instances is all hits.  Creates a memory-backed cache when the
        engine has none.  Returns the number of entries adopted.
        """
        if self.cache is None:
            self.cache = ResultCache()
        adopted = 0
        for source in sources:
            adopted += self.cache.merge_from(source, flush=False)
        if adopted and flush:
            self.cache.flush()
        return adopted

    # -- internals (default-resolved values) -----------------------------

    def _solve(self, graph: WeightedGraph, **knobs: Any) -> CutResult:
        return self.finish(self._lookup(graph, **knobs))

    def _lookup(
        self,
        graph: WeightedGraph,
        *,
        solver: str,
        epsilon: Optional[float],
        mode: str,
        seed: int,
        budget: Optional[int],
        options: dict[str, Any],
    ) -> Lookup:
        spec = _resolve_spec(
            self.registry, graph, solver, mode=mode, epsilon=epsilon, budget=budget
        )
        if solver == "auto":
            budget = None  # consumed by selection; the pick runs at default effort
        cache = self.cache
        key = hit = None
        if cache is not None:
            key = CacheKey.for_solve(
                graph, spec.name, epsilon=epsilon, mode=mode, seed=seed,
                budget=budget, options=options,
            )
            with cache.lock:  # the stamped counters are this lookup's
                hit = cache.get(key)
                if hit is not None:
                    hit = _stamp_cache(hit, cache, hit=True)
        return Lookup(spec, graph, epsilon, mode, seed, budget, options, key, hit)

    def _solve_all(
        self,
        graph: WeightedGraph,
        *,
        epsilon: Optional[float],
        mode: str,
        seed: int,
        budget: Optional[int],
        kinds: Optional[Sequence[str]],
        names: Optional[Sequence[str]],
        include_heavy: bool,
    ) -> list[CutResult]:
        registry = self.registry
        graph.require_connected()
        kind_filter = tuple(kinds) if kinds is not None else None
        if names is not None:
            requested = {name: registry.get(name) for name in names}  # validates
            specs = [
                spec
                for spec in registry
                if spec.name in requested
                and (kind_filter is None or spec.kind in kind_filter)
                and spec.applicable(graph, mode=mode, epsilon=epsilon)
            ]
        else:
            specs = registry.applicable(
                graph, mode=mode, epsilon=epsilon, kinds=kind_filter,
                include_heavy=include_heavy,
            )
        tasks = [
            SolveTask(
                graph=graph,
                solver=spec.name,
                epsilon=epsilon,
                mode=mode,
                seed=seed,
                budget=budget,
                label=f"solver {spec.name!r}",
            )
            for spec in specs
        ]
        return self.solve_tasks(tasks)


def _refuse_session_knobs(method: str, options: dict) -> None:
    """Registry, backend and cache belong to the engine, not to a call.

    ``solve``/``solve_batch`` forward unknown keywords to the solver, so
    they refuse these names explicitly (``solve_all``/``compare`` have
    no such catch-all and refuse them as Python does).
    """
    passed = [name for name in ("registry", "backend", "cache") if name in options]
    if passed:
        raise TypeError(
            f"Engine.{method}() takes no per-call {'/'.join(passed)}=; "
            "build another Engine(registry=..., backend=..., cache=...)"
        )


def _resolve_spec(
    registry: SolverRegistry,
    graph: WeightedGraph,
    solver: str,
    *,
    mode: str,
    epsilon: Optional[float],
    budget: Optional[float] = None,
) -> SolverSpec:
    """Resolve ``solver`` (a name or ``"auto"``) to an applicable spec.

    ``budget`` only steers the auto policy (expected-cost ceiling); a
    named solver receives it as its effort cap instead.
    """
    if solver == "auto":
        return registry.select_auto(
            graph, mode=mode, epsilon=epsilon, budget=budget
        )
    spec = registry.get(solver)
    reason = spec.inapplicable_reason(graph, mode=mode, epsilon=epsilon)
    if reason is not None:
        raise AlgorithmError(reason)
    return spec


def _stamp_cache(
    result: CutResult, cache: ResultCache, *, hit: bool, **more: Any
) -> CutResult:
    """Surface the cache outcome and running counters in ``extras``
    (plus any ``more`` keys, in one copy of the result)."""
    extras = dict(result.extras)
    extras["cache"] = {"hit": hit, "hits": cache.hits, "misses": cache.misses}
    extras.update(more)
    return replace(result, extras=extras)


def _run(
    spec: SolverSpec,
    graph: WeightedGraph,
    *,
    epsilon: Optional[float],
    mode: str,
    seed: int,
    budget: Optional[int],
    **options: Any,
) -> CutResult:
    started = time.perf_counter()
    raw = spec.run(
        graph, epsilon=epsilon, mode=mode, seed=seed, budget=budget, **options
    )
    elapsed = time.perf_counter() - started
    return CutResult(
        value=raw.value,
        side=frozenset(raw.side),
        solver=spec.name,
        guarantee=spec.guarantee,
        seed=seed,
        metrics=raw.metrics,
        wall_time=elapsed,
        extras=dict(raw.extras),
    )


#: The process-wide engine behind the module-level façade functions.
_DEFAULT_ENGINE: Optional[Engine] = None


def default_engine() -> Engine:
    """The process-wide default :class:`Engine` (built lazily, once).

    This is the engine the module-level ``solve``/``solve_all``/
    ``solve_batch`` delegate to when the call names no registry,
    backend or cache: default registry, no cache, backend from
    ``$REPRO_BACKEND``.
    """
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = Engine()
    return _DEFAULT_ENGINE


__all__ = ["Engine", "Lookup", "default_engine"]
