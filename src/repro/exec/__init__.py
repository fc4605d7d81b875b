"""Execution engine: pluggable solve backends + content-addressed cache.

The façade (:mod:`repro.api.facade`) is the single choke point for
every sweep workload; this package is the layer that scales it:

* :mod:`~repro.exec.task` — :class:`SolveTask`, a picklable frozen
  façade call, and :func:`run_task`, the module-level runner every
  backend shares (the determinism contract).
* :mod:`~repro.exec.backends` — :class:`Executor`, the ``serial`` /
  ``process`` implementations and :func:`resolve_backend`, which maps
  a name in :data:`repro.config.BACKENDS` (the ``backend=`` knob, or
  the ``REPRO_BACKEND`` environment variable) onto its executor.
* :mod:`~repro.exec.remote` — :class:`RemoteExecutor`
  (``backend="remote"``), the sharded fan-out over a pool of
  ``repro serve`` workers (imported when picked; worker URLs via the
  constructor, a ``WorkerPool`` or the ``[remote]`` config section).
* :mod:`~repro.exec.plan` — :func:`pack_tasks`, the deterministic LPT
  planner the ``process`` and ``remote`` backends share for cost-aware
  chunk/shard packing (uniform costs degenerate to the historic
  round-robin stripe).  Costs come from the solver registry's
  ``cost_model`` metadata, the one cost model in :mod:`repro`.
* :mod:`~repro.exec.cache` — :class:`CacheKey` (graph content hash +
  solver knobs) and :class:`ResultCache`, an LRU with an optional
  persistence tier: a :class:`repro.store.SegmentStore` directory of
  append-only JSONL segments with deterministic compaction (schema ≤ 2
  single-file caches are read-only migration inputs) holding
  :meth:`repro.api.CutResult.to_json` payloads.  Mergeable via
  :meth:`ResultCache.merge_from` / ``python -m repro cache merge``
  (which reports :class:`MergeCounts`), consulted by
  ``solve``/``solve_all``/``solve_batch`` via their ``cache=``
  parameter.

Usage::

    from repro.api import solve_batch
    from repro.exec import ResultCache

    cache = ResultCache(path="results_store")
    results = solve_batch(graphs, backend="process", cache=cache)
    again = solve_batch(graphs, backend="process", cache=cache)  # all hits
"""

from .backends import (
    BACKENDS,
    Executor,
    ProcessExecutor,
    REPRO_BACKEND_ENV,
    SerialExecutor,
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
    "resolve_backend",
    "run_task",
    "run_task_captured",
]
