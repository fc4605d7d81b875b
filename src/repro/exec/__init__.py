"""Execution engine: pluggable solve backends + content-addressed cache.

The façade (:mod:`repro.api.facade`) is the single choke point for
every sweep workload; this package is the layer that scales it:

* :mod:`~repro.exec.task` — :class:`SolveTask`, a picklable frozen
  façade call, and :func:`run_task`, the module-level runner every
  backend shares (the determinism contract).
* :mod:`~repro.exec.backends` — :class:`Executor`, the
  :func:`register_backend` registry, and the ``serial`` / ``process``
  implementations, selected by the ``backend=`` knob on
  ``solve_batch``/``solve_all`` or the ``REPRO_BACKEND`` environment
  variable.
* :mod:`~repro.exec.remote` — :class:`RemoteExecutor`
  (``backend="remote"``), the sharded fan-out over a pool of
  ``repro serve`` workers (registered lazily; worker URLs via the
  constructor, a ``WorkerPool`` or the ``[remote]`` config section).
* :mod:`~repro.exec.plan` — :func:`pack_tasks`, the deterministic LPT
  planner the ``process`` and ``remote`` backends share for cost-aware
  chunk/shard packing (uniform costs degenerate to the historic
  round-robin stripe).  Costs come from the solver registry's
  ``cost_model`` metadata, the one cost model in :mod:`repro`.
* :mod:`~repro.exec.cache` — :class:`CacheKey` (graph content hash +
  solver knobs) and :class:`ResultCache`, an LRU with an optional
  persistence tier: a single versioned JSON file, or — when ``path``
  is a directory — a :class:`repro.store.SegmentStore` of append-only
  JSONL segments with deterministic compaction.  Mergeable via
  :meth:`ResultCache.merge_from` / ``python -m repro cache merge``
  (which reports :class:`MergeCounts`), consulted by
  ``solve``/``solve_all``/``solve_batch`` via their ``cache=``
  parameter.

Usage::

    from repro.api import solve_batch
    from repro.exec import ResultCache

    cache = ResultCache(path="results.json")
    results = solve_batch(graphs, backend="process", cache=cache)
    again = solve_batch(graphs, backend="process", cache=cache)  # all hits
"""

from .backends import (
    BACKENDS,
    Executor,
    ProcessExecutor,
    REPRO_BACKEND_ENV,
    SerialExecutor,
    register_backend,
    resolve_backend,
)
from .cache import (
    CACHE_SCHEMA_VERSION,
    CacheKey,
    MergeCounts,
    ResultCache,
    load_cache_file,
)
from .plan import PackPlan, pack_tasks
from .task import SolveTask, run_task, run_task_captured

__all__ = [
    "BACKENDS",
    "CACHE_SCHEMA_VERSION",
    "CacheKey",
    "Executor",
    "MergeCounts",
    "PackPlan",
    "ProcessExecutor",
    "REPRO_BACKEND_ENV",
    "ResultCache",
    "SerialExecutor",
    "SolveTask",
    "load_cache_file",
    "pack_tasks",
    "register_backend",
    "resolve_backend",
    "run_task",
    "run_task_captured",
]
